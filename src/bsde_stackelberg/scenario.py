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


def _parse_path(entry, grid: TimeGrid, shape: tuple[int, int], name: str) -> CoefficientPath:
    """One coefficient: {"constant": flat} or {"nodes": [[t, flat], ...]}.

    Node times must be distinct and cover [0, T], so that interpolation
    never holds an end value constant.
    """
    rows, cols = shape
    if "constant" in entry:
        flat = np.asarray(entry["constant"], dtype=float).reshape(rows, cols)
        return CoefficientPath.constant(grid, flat)
    if "nodes" in entry:
        pairs = sorted(entry["nodes"], key=lambda p: p[0])
        times = np.array([p[0] for p in pairs], dtype=float)
        if np.any(np.diff(times) == 0.0):
            raise SpecError(f"coefficient {name} has repeated node times")
        if not (times.size and times[0] <= 0.0 and times[-1] >= grid.horizon):
            raise SpecError(f"coefficient {name} node times must cover [0, {grid.horizon}]")
        vals = np.stack([np.asarray(p[1], dtype=float).reshape(rows, cols) for p in pairs])
        out = np.empty((grid.steps + 1, rows, cols))
        for r in range(rows):
            for c in range(cols):
                out[:, r, c] = np.interp(grid.nodes, times, vals[:, r, c])
        return CoefficientPath(grid, out)
    raise SpecError(f"coefficient {name} needs 'constant' or 'nodes'")


def scenario_from_dict(doc: dict, steps: int | None = None, sha256: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SpecError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    dims_doc = dict(doc["dims"])
    d = dims_doc.pop("d", 1)
    if d != 1:
        raise SpecError(f"dims.d must be 1 (the model has one Brownian motion), got {d!r}")
    unknown = sorted(set(dims_doc) - {"n", "k"})
    if unknown:
        raise SpecError(f"unknown dims keys {unknown}; expected n, k and d")
    dims = Dimensions(dims_doc["n"], dims_doc.get("k", 1))
    grid = TimeGrid(float(doc["horizon"]), doc["steps"] if steps is None else steps)
    coeffs = {
        name: _parse_path(doc["coefficients"][name], grid, shape, name)
        for name, shape in coefficient_shapes(dims).items()
    }
    weights = doc["weights"]
    term = doc["terminal"]
    a = np.asarray(term["a"], dtype=float).reshape(dims.n)
    xi = TerminalCondition(a, term.get("b", np.zeros(dims.n)))
    spec = LQGameSpec(
        dims=dims,
        grid=grid,
        G1=np.asarray(weights["G1"], dtype=float).reshape(dims.n, dims.n),
        G2=np.asarray(weights["G2"], dtype=float).reshape(dims.n, dims.n),
        xi=xi,
        **coeffs,
    )
    mode = doc.get("mode", "strict")
    if mode not in ("strict", "permissive"):
        raise SpecError(f"mode must be 'strict' or 'permissive', got {mode!r}")

    if "u2" in doc:
        u2_doc = doc["u2"]
        const = _parse_path(u2_doc["const"], grid, (dims.k, 1), "u2.const")
        if "lin" in u2_doc:
            lin = _parse_path(u2_doc["lin"], grid, (dims.k, 1), "u2.lin")
        else:
            lin = CoefficientPath.constant(grid, np.zeros((dims.k, 1)))
        u2 = AffineControl(const, lin)
    else:
        u2 = AffineControl.zero(grid, dims.k)

    market = None
    if "market" in doc:
        mdoc = doc["market"]
        paths = {
            name: _parse_path(mdoc[name], grid, (1, 1), f"market.{name}")
            for name in ("r", "mu", "sigma", "R1", "R2")
        }
        market = MarketParams(
            grid=grid,
            G1=float(mdoc["G1"]),
            G2=float(mdoc["G2"]),
            xi=TerminalCondition(xi.a[:1], xi.b[:1]),
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
