"""Game specification: dimensions, time grid, coefficients, terminal data, validation.

Everything here is immutable after construction and safe to share across
threads.  A coefficient is given by its node samples on a uniform grid, with
linear interpolation in between, and stored as one (2N+1)-sample table at
the half steps t = j dt / 2: the nodes at even j, the interval midpoints at
odd j.  RK4 reads that table, the node readers its even rows, and the spec
inverts R1 and R2 once, on those tables, for every consumer of a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .odeint import check_finite, guarded_inv

SYMMETRY_TOL = 1e-12


class SpecError(ValueError):
    """Structural problem with a game specification (bad shapes, bad grid)."""


@dataclass(frozen=True)
class Dimensions:
    """State (n) and control (k) dimensions; the noise is one Brownian motion."""

    n: int
    k: int = 1

    def __post_init__(self):
        for name in ("n", "k"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise SpecError(f"dimension {name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_0 = 0 < ... < t_N = T with dt = T / N computed once."""

    horizon: float
    steps: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    dt: float = field(init=False, compare=False)

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise SpecError(f"horizon must be a positive real, got {self.horizon!r}")
        steps = self.steps
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise SpecError(f"steps must be a positive integer, got {self.steps!r}")
        dt = self.horizon / self.steps
        nodes = np.arange(self.steps + 1) * dt
        nodes[-1] = self.horizon
        nodes.setflags(write=False)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "nodes", nodes)

    @cached_property
    def half_times(self) -> np.ndarray:
        """The 2N+1 RK4 stage times j dt / 2: the nodes at even j, the midpoints at odd j."""
        half = np.repeat(self.nodes, 2)[:-1]
        half[1::2] += 0.5 * self.dt
        half.setflags(write=False)
        return half

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """The N+1 trapezoid-rule weights of the nodes: dt inside, dt / 2 at both ends."""
        w = np.full(self.steps + 1, self.dt)
        w[[0, -1]] *= 0.5
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class CoefficientPath:
    """A matrix-valued function of time, given by its samples at the grid nodes.

    It holds one (2N+1, rows, cols) table, half, of samples at t = j dt / 2:
    the node values at even j, the interval midpoints (the linear interpolant
    there) at odd j, filled once here.  values, of shape (N + 1, rows, cols),
    is the read-only view half[::2].  Evaluation between nodes is linear
    interpolation; node evaluation returns the stored matrix bit-exactly.
    """

    grid: TimeGrid
    values: np.ndarray
    half: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise SpecError(f"coefficient values must be (N+1, rows, cols), got shape {v.shape}")
        if v.shape[0] != self.grid.steps + 1:
            raise SpecError(
                f"coefficient has {v.shape[0]} node values, grid has {self.grid.steps + 1} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise SpecError("coefficient values must be finite")
        half = np.empty((2 * v.shape[0] - 1, *v.shape[1:]))
        half[0::2] = v
        half[1::2] = 0.5 * (v[:-1] + v[1:])
        half.setflags(write=False)
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "values", half[::2])

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]

    @classmethod
    def constant(cls, grid: TimeGrid, value) -> "CoefficientPath":
        m = np.atleast_2d(np.asarray(value, dtype=float))
        return cls(grid, np.broadcast_to(m, (grid.steps + 1, *m.shape)))

    def __call__(self, t: float) -> np.ndarray:
        return eval_coefficient(self, t)


def eval_coefficient(path: CoefficientPath, t) -> np.ndarray:
    """Value at time t: stored matrix at nodes, linear interpolation in between.

    K times give a (K, rows, cols) stack, bit for bit K one-time calls.  Times
    up to 1e-12 max(1, T) outside [0, T] are clamped; others raise ValueError.
    """
    grid = path.grid
    t = np.asarray(t, dtype=float)
    tol = 1e-12 * max(1.0, grid.horizon)
    inside = (-tol <= t) & (t <= grid.horizon + tol)
    if not inside.all():
        bad = float(t[~inside][0]) if t.ndim else float(t)
        raise ValueError(f"t={bad} outside [0, {grid.horizon}]")
    t = np.clip(t, 0.0, grid.horizon)
    i = np.minimum(np.floor(t / grid.dt).astype(int), grid.steps)
    # t / dt can round to just below a node's index: take that node when t equals it
    nxt = np.minimum(i + 1, grid.steps)
    i = np.where(t == grid.nodes[nxt], nxt, i)
    # at and past the last node, i + 1 is clamped; those entries take values[i] below
    w = ((t - grid.nodes[i]) / grid.dt)[..., None, None]
    out = (1.0 - w) * path.values[i] + w * path.values[np.minimum(i + 1, grid.steps)]
    exact = ((i == grid.steps) | (t == grid.nodes[i]))[..., None, None]
    return np.where(exact, path.values[i], out)


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal datum xi = a + b W(T) with b an n x 1 column; deterministic iff b = 0."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(-1)
        b = np.asarray(self.b, dtype=float)
        if b.size != a.shape[0]:
            raise SpecError(
                f"terminal loading b must be a {a.shape[0]} x 1 column, got shape {b.shape}"
            )
        b = b.reshape(-1, 1)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise SpecError("terminal condition entries must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def deterministic(self) -> bool:
        return not np.any(self.b)


@dataclass(frozen=True)
class AffineControl:
    """Control of the form u(t) = u_const(t) + u_lin(t) W(t)."""

    u_const: CoefficientPath  # k x 1
    u_lin: CoefficientPath  # k x 1

    @classmethod
    def zero(cls, grid: TimeGrid, k: int) -> "AffineControl":
        return cls.constant(grid, np.zeros(k))

    @classmethod
    def constant(cls, grid: TimeGrid, value) -> "AffineControl":
        c = np.asarray(value, dtype=float).reshape(-1, 1)
        zero = CoefficientPath.constant(grid, np.zeros_like(c))
        return cls(CoefficientPath.constant(grid, c), zero)


_COEFF_SHAPES = {
    "A": ("n", "n"),
    "B1": ("n", "k"),
    "B2": ("n", "k"),
    "C": ("n", "n"),
    "Q1": ("n", "n"),
    "R1": ("k", "k"),
    "S1": ("n", "n"),
    "Q2": ("n", "n"),
    "R2": ("k", "k"),
    "S2": ("n", "n"),
}


def coefficient_shapes(dims: Dimensions) -> dict[str, tuple[int, int]]:
    """(rows, cols) of every coefficient path of a game with these dimensions."""
    sizes = {"n": dims.n, "k": dims.k}
    return {name: (sizes[r], sizes[c]) for name, (r, c) in _COEFF_SHAPES.items()}


@dataclass(frozen=True)
class LQGameSpec:
    """All data of one leader-follower game instance."""

    dims: Dimensions
    grid: TimeGrid
    A: CoefficientPath
    B1: CoefficientPath
    B2: CoefficientPath
    C: CoefficientPath
    Q1: CoefficientPath
    R1: CoefficientPath
    S1: CoefficientPath
    G1: np.ndarray
    Q2: CoefficientPath
    R2: CoefficientPath
    S2: CoefficientPath
    G2: np.ndarray
    xi: TerminalCondition

    def __post_init__(self):
        n = self.dims.n
        for name, want in coefficient_shapes(self.dims).items():
            path = getattr(self, name)
            if path.grid != self.grid:
                raise SpecError(f"coefficient {name} is sampled on a different grid")
            if path.shape != want:
                raise SpecError(f"coefficient {name} has shape {path.shape}, expected {want}")
        for name in ("G1", "G2"):
            g = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if g.shape != (n, n):
                raise SpecError(f"weight {name} has shape {g.shape}, expected {(n, n)}")
            if not np.all(np.isfinite(g)):
                raise SpecError(f"weight {name} must be finite")
            g = g.copy()
            g.setflags(write=False)
            object.__setattr__(self, name, g)
        if self.xi.a.shape[0] != n:
            raise SpecError(f"terminal condition has length {self.xi.a.shape[0]}, expected {n}")

    @cached_property
    def R1_inv(self) -> np.ndarray:
        """(2N+1, k, k) half-step table of R1^-1, inverted once per spec."""
        return guarded_inv(self.R1.half, self.grid.half_times, "R1")

    @cached_property
    def R2_inv(self) -> np.ndarray:
        """(2N+1, k, k) half-step table of R2^-1, inverted once per spec."""
        return guarded_inv(self.R2.half, self.grid.half_times, "R2")

    @cached_property
    def B1_R1inv_B1T(self) -> np.ndarray:
        """(2N+1, n, n) half-step table of B1 R1^-1 B1^T, checked finite when formed
        (DivergenceError names it); the follower's flows read it as their B2-hat R^-1 B2-hat^T."""
        B1 = self.B1.half
        table = B1 @ self.R1_inv @ np.swapaxes(B1, 1, 2)
        return check_finite(table, self.grid.half_times, "B1 R1^-1 B1^T")

    def weights(self, player: int) -> tuple:
        """The cost weights (Q, R, S, G) of player 1, the follower, or 2, the leader."""
        return tuple(getattr(self, f"{name}{player}") for name in "QRSG")

    @property
    def c_vanishes(self) -> bool:
        """True when the noise coefficient C is zero at every node (to 1e-12)."""
        return vanishes(self.C)


def vanishes(path: CoefficientPath) -> bool:
    """True when every node value of path is below 1e-12 in size: the test of
    C = 0 that the CLI and the Riccati closed forms share."""
    return bool(np.max(np.abs(path.values)) < 1e-12)


@dataclass(frozen=True)
class Violation:
    assumption: str  # "(L1)", "(L2)" or "(L3)"
    location: str  # field name, possibly with node time
    message: str
    severity: str  # "error" or "warning"

    def __str__(self):
        return f"{self.assumption}: {self.message} [{self.location}, {self.severity}]"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "error")

    @property
    def passed(self) -> bool:
        return not self.errors


def validate_spec(spec: LQGameSpec, strict: bool = True) -> ValidationReport:
    """Check assumptions (L1)-(L3) on a structurally well-formed spec.

    Symmetry violations and non-PD R weights are always errors.  PSD
    violations of Q1, S1, Q2, S2, G1, G2 are errors in strict mode and
    warnings in permissive mode (the finance application needs the
    permissive reading).
    """
    out: list[Violation] = []

    def check_block(name: str, values: np.ndarray, assumption: str, kind: str):
        # kind: "psd" or "pd"; values shaped (nodes, m, m) or (m, m), checked in one batch
        vals_t = np.swapaxes(values, -1, -2)
        worst_asym = float(np.max(np.abs(values - vals_t)))
        min_eig = float(np.linalg.eigvalsh(0.5 * (values + vals_t)).min())
        if worst_asym > SYMMETRY_TOL:
            problem, severity = f"not symmetric (asymmetry {worst_asym:.3e})", "error"
        elif kind == "pd" and min_eig <= 0.0:
            problem, severity = f"not positive definite (min eig {min_eig:.3e})", "error"
        elif kind == "psd" and min_eig < -SYMMETRY_TOL:
            problem, severity = f"not PSD (min eig {min_eig:.3e})", "error" if strict else "warning"
        else:
            return
        out.append(Violation(assumption, name, f"{name} {problem}", severity))

    # (L1): boundedness of A, B1, B2, C == finiteness of node values, enforced
    # by CoefficientPath construction; nothing left to flag here.
    check_block("Q1", spec.Q1.values, "(L2)", "psd")
    check_block("S1", spec.S1.values, "(L2)", "psd")
    check_block("R1", spec.R1.values, "(L2)", "pd")
    check_block("G1", spec.G1, "(L2)", "psd")
    check_block("Q2", spec.Q2.values, "(L3)", "psd")
    check_block("S2", spec.S2.values, "(L3)", "psd")
    check_block("R2", spec.R2.values, "(L3)", "pd")
    check_block("G2", spec.G2, "(L3)", "psd")
    return ValidationReport(tuple(out))
