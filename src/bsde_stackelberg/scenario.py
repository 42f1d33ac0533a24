"""Scenario files: JSON serialization of game instances.

A scenario document carries dimensions, grid, coefficient paths (either
constant or sampled at arbitrary times with linear interpolation),
weights, the terminal condition, the validation mode, an optional
exogenous leader control and optional market parameters for the
consumption application.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .finance import MarketParams
from .model import (
    AffineControl,
    CoefficientPath,
    Dimensions,
    LQGameSpec,
    SpecError,
    TerminalCondition,
    TimeGrid,
    coefficient_shapes,
)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the game spec plus run-level extras."""

    spec: LQGameSpec
    mode: str  # "strict" | "permissive"
    u2: AffineControl
    market: MarketParams | None
    sha256: str


def _json_type(value) -> str:
    """The JSON type name of a parsed JSON value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return {dict: "object", list: "array", str: "string"}.get(type(value), "number")


def _field(doc: dict, name: str):
    """The field of doc at the last key of the dotted name; SpecError names it if missing."""
    parent, _, key = name.rpartition(".")
    if key not in doc:
        raise SpecError(f"{parent or 'the scenario'} is missing '{key}'")
    return doc[key]


def _object(doc: dict, name: str, holds: str) -> dict:
    """The field of doc at the dotted name, checked to be a JSON object; holds
    says what the object must hold."""
    value = _field(doc, name)
    if not isinstance(value, dict):
        raise SpecError(f"{name} must be an object {holds}, got {_json_type(value)}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(flat: np.ndarray, name: str) -> np.ndarray:
    """An object array of numbers as floats; SpecError names the field if one is NaN,
    infinite or an integer too large for a float, all of which json reads."""
    try:
        values = flat.astype(float)
    except OverflowError:
        values = np.array([np.inf])
    if not np.isfinite(values).all():
        raise SpecError(f"{name} must be finite")
    return values


def _number(value, name: str) -> float:
    if not _is_number(value):
        raise SpecError(f"{name} must be a number, got {_json_type(value)}")
    return float(_finite(np.array([value], dtype=object), name)[0])


def _matrix(value, shape: tuple[int, int], name: str) -> np.ndarray:
    """A rows x cols matrix given as a number or as nested arrays of numbers."""
    rows, cols = shape
    flat = np.asarray(value, dtype=object).ravel()  # a ragged array keeps lists as entries
    if not all(map(_is_number, flat)):
        raise SpecError(f"{name} must be a number or an array of numbers")
    if flat.size != rows * cols:
        raise SpecError(f"{name} must hold {rows} x {cols} numbers, got {flat.size}")
    return _finite(flat, name).reshape(rows, cols)


def _parse_path(doc: dict, name: str, grid: TimeGrid, shape: tuple[int, int]) -> CoefficientPath:
    """The coefficient of doc at the dotted name: {"constant": flat} or
    {"nodes": [[t, flat], ...]}.

    Node times must be distinct and cover [0, T], so that interpolation
    never holds an end value constant.
    """
    rows, cols = shape
    entry = _object(doc, name, "with 'constant' or 'nodes'")
    if "constant" in entry:
        return CoefficientPath.constant(grid, _matrix(entry["constant"], shape, f"{name}.constant"))
    if "nodes" in entry:
        nodes = entry["nodes"]
        if not (
            isinstance(nodes, list)
            and all(isinstance(p, list) and len(p) == 2 for p in nodes)
        ):
            raise SpecError(f"{name}.nodes must be an array of [t, values] pairs")
        pairs = sorted(
            ((_number(t, f"{name}.nodes times"), v) for t, v in nodes), key=lambda p: p[0]
        )
        times = np.array([p[0] for p in pairs], dtype=float)
        if np.any(np.diff(times) == 0.0):
            raise SpecError(f"{name} has repeated node times")
        if not (times.size and times[0] <= 0.0 and times[-1] >= grid.horizon):
            raise SpecError(f"{name} node times must cover [0, {grid.horizon}]")
        vals = np.stack([_matrix(p[1], shape, f"{name}.nodes values") for p in pairs])
        out = np.empty((grid.steps + 1, rows, cols))
        for r in range(rows):
            for c in range(cols):
                out[:, r, c] = np.interp(grid.nodes, times, vals[:, r, c])
        return CoefficientPath(grid, out)
    raise SpecError(f"{name} needs 'constant' or 'nodes'")


def scenario_from_dict(doc: dict, steps: int | None = None, sha256: str = "") -> Scenario:
    """Parse a scenario document.  Each field's JSON type is checked before it
    is converted, so a malformed field raises SpecError with the field's name."""
    if not isinstance(doc, dict):
        raise SpecError(f"a scenario must be a JSON object, got {_json_type(doc)}")
    dims_doc = dict(_object(doc, "dims", "with n, k and d"))
    d = dims_doc.pop("d", 1)
    if d != 1 or isinstance(d, bool):
        raise SpecError(f"dims.d must be 1 (the model has one Brownian motion), got {d!r}")
    unknown = sorted(set(dims_doc) - {"n", "k"})
    if unknown:
        raise SpecError(f"unknown dims keys {unknown}; expected n, k and d")
    dims = Dimensions(_field(dims_doc, "dims.n"), dims_doc.get("k", 1))
    horizon = _number(_field(doc, "horizon"), "horizon")
    grid = TimeGrid(horizon, _field(doc, "steps") if steps is None else steps)
    coeff_doc = _object(doc, "coefficients", "of coefficient paths")
    coeffs = {
        name: _parse_path(coeff_doc, f"coefficients.{name}", grid, shape)
        for name, shape in coefficient_shapes(dims).items()
    }
    weights = _object(doc, "weights", "with G1 and G2")
    term = _object(doc, "terminal", "with a and b")
    n = dims.n
    a = _matrix(_field(term, "terminal.a"), (n, 1), "terminal.a").reshape(n)
    b = _matrix(term["b"], (n, 1), "terminal.b") if "b" in term else np.zeros((n, 1))
    xi = TerminalCondition(a, b)
    spec = LQGameSpec(
        dims=dims,
        grid=grid,
        G1=_matrix(_field(weights, "weights.G1"), (n, n), "weights.G1"),
        G2=_matrix(_field(weights, "weights.G2"), (n, n), "weights.G2"),
        xi=xi,
        **coeffs,
    )
    mode = doc.get("mode", "strict")
    if mode not in ("strict", "permissive"):
        raise SpecError(f"mode must be 'strict' or 'permissive', got {mode!r}")

    if "u2" in doc:
        u2_doc = _object(doc, "u2", "with 'const' and optionally 'lin'")
        const = _parse_path(u2_doc, "u2.const", grid, (dims.k, 1))
        if "lin" in u2_doc:
            lin = _parse_path(u2_doc, "u2.lin", grid, (dims.k, 1))
        else:
            lin = CoefficientPath.constant(grid, np.zeros((dims.k, 1)))
        u2 = AffineControl(const, lin)
    else:
        u2 = AffineControl.zero(grid, dims.k)

    market = None
    if "market" in doc:
        if n != 1:
            raise SpecError(f"market needs a one-dimensional game (one wealth), got dims.n = {n}")
        mdoc = _object(doc, "market", "of market parameters")
        paths = {
            name: _parse_path(mdoc, f"market.{name}", grid, (1, 1))
            for name in ("r", "mu", "sigma", "R1", "R2")
        }
        market = MarketParams(
            grid=grid,
            G1=_number(_field(mdoc, "market.G1"), "market.G1"),
            G2=_number(_field(mdoc, "market.G2"), "market.G2"),
            xi=xi,
            **paths,
        )
    return Scenario(spec, mode, u2, market, sha256)


def load_scenario(path: str | Path, steps: int | None = None) -> Scenario:
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    return scenario_from_dict(json.loads(raw.decode("utf-8")), steps=steps, sha256=digest)


def make_constant_spec(
    horizon: float,
    steps: int,
    A,
    B1,
    B2,
    C,
    Q1,
    R1,
    S1,
    G1,
    Q2,
    R2,
    S2,
    G2,
    a,
    b,
) -> LQGameSpec:
    """Programmatic constant-coefficient spec (scalars or matrices)."""
    n = np.atleast_2d(np.asarray(A, dtype=float)).shape[0]
    k = np.atleast_2d(np.asarray(B1, dtype=float)).shape[1]
    dims, grid = Dimensions(n, k), TimeGrid(horizon, steps)
    given = dict(A=A, B1=B1, B2=B2, C=C, Q1=Q1, R1=R1, S1=S1, Q2=Q2, R2=R2, S2=S2)
    coeffs = {
        name: CoefficientPath.constant(grid, np.asarray(given[name], dtype=float).reshape(shape))
        for name, shape in coefficient_shapes(dims).items()
    }
    return LQGameSpec(
        dims=dims,
        grid=grid,
        G1=np.asarray(G1, dtype=float).reshape(n, n),
        G2=np.asarray(G2, dtype=float).reshape(n, n),
        xi=TerminalCondition(
            np.asarray(a, dtype=float).reshape(n), np.asarray(b, dtype=float).reshape(n, 1)
        ),
        **coeffs,
    )


def hand_solvable_scenario(steps: int = 1000) -> LQGameSpec:
    """Scalar benchmark whose entire solution is known in closed form.

    With A = Q1 = S1 = S2 = Q2 = 0, B1 = B2 = R1 = R2 = G1 = G2 = 1,
    C = 0 and xi = 1 deterministic: P1 = 1 - t, P2 = 1/(1 + t), the
    equilibrium has x = 1/2, y = (1 + t)/2, z = 0, u1 = -1/2, J1 = 1/4.
    """
    return make_constant_spec(
        1.0, steps,
        A=0.0, B1=1.0, B2=1.0, C=0.0,
        Q1=0.0, R1=1.0, S1=0.0, G1=1.0,
        Q2=0.0, R2=1.0, S2=0.0, G2=1.0,
        a=1.0, b=0.0,
    )


def stochastic_scenario(steps: int = 1000) -> LQGameSpec:
    """Scalar benchmark with multiplicative noise and a random terminal datum."""
    return make_constant_spec(
        1.0, steps,
        A=0.1, B1=1.0, B2=1.0, C=0.3,
        Q1=0.5, R1=1.0, S1=0.2, G1=0.5,
        Q2=0.3, R2=1.0, S2=0.1, G2=1.0,
        a=0.5, b=0.4,
    )
