"""The four Riccati equations and the stacked leader system.

P1 (backward, terminal 0) and P2 (forward, initial G1) decouple the
follower's Hamiltonian system; Pi1 (backward) and Pi2 (forward, initial
G2-hat) decouple the leader's stacked FBSDE.  For constant coefficients
with C = 0 the solutions of Pi1 and Pi2 have matrix-exponential closed
forms, implemented here as an independent cross-check of the RK4 route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import CoefficientPath, LQGameSpec, TerminalCondition, TimeGrid
from .odeint import (
    OdeDirection,
    SolvabilityReport,
    determinant_scan,
    guarded_inv,
    integrate_matrix_ode,
    transition_steps,
)


class UnsolvableError(RuntimeError):
    """The determinant condition behind a closed-form representation fails."""

    def __init__(self, min_determinant: float, t: float):
        self.min_determinant = min_determinant
        self.t = t
        super().__init__(
            f"solvability condition violated: min determinant {min_determinant:.6g} at t={t:.6g}"
        )


@dataclass(frozen=True)
class RiccatiPath:
    """A solved Riccati equation, sampled on the grid."""

    tag: str  # "P1", "P2", "Pi1" or "Pi2"
    path: CoefficientPath

    def __call__(self, t: float) -> np.ndarray:
        return self.path(t)

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    def max_asymmetry(self) -> float:
        v = self.path.values
        return float(np.max(np.abs(v - np.transpose(v, (0, 2, 1)))))


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def p1_field(spec: LQGameSpec) -> Callable[[float, np.ndarray], np.ndarray]:
    n = spec.dims.n
    eye = np.eye(n)

    def field(t, P1):
        A, B1, C = spec.A(t), spec.B1(t), spec.C(t)
        Q1, S1 = spec.Q1(t), spec.S1(t)
        R1inv = guarded_inv(spec.R1(t), t, "R1")
        inv1 = guarded_inv(P1 @ S1 + eye, t, "(P1 S1 + I)")
        return -(
            A @ P1 + P1 @ A.T - P1 @ Q1 @ P1 + B1 @ R1inv @ B1.T + C @ inv1 @ P1 @ C.T
        )

    return field


def p2_field(spec: LQGameSpec, p1: RiccatiPath) -> Callable[[float, np.ndarray], np.ndarray]:
    n = spec.dims.n
    eye = np.eye(n)

    def field(t, P2):
        A, B1, C = spec.A(t), spec.B1(t), spec.C(t)
        Q1, S1, P1 = spec.Q1(t), spec.S1(t), p1(t)
        R1inv = guarded_inv(spec.R1(t), t, "R1")
        inv1 = guarded_inv(P1 @ S1 + eye, t, "(P1 S1 + I)")
        return (
            P2 @ A + A.T @ P2 + Q1 - P2 @ B1 @ R1inv @ B1.T @ P2
            - P2 @ C @ inv1 @ P1 @ C.T @ P2
        )

    return field


def solve_p1(spec: LQGameSpec, symmetrize: bool = True) -> RiccatiPath:
    """Backward RK4 for P1 with P1(T) = 0, symmetrized per step."""
    n = spec.dims.n
    post = _sym if symmetrize else None
    path = integrate_matrix_ode(
        p1_field(spec), np.zeros((n, n)), spec.grid, OdeDirection.BACKWARD, postprocess=post
    )
    return RiccatiPath("P1", path)


def solve_p2(spec: LQGameSpec, p1: RiccatiPath, symmetrize: bool = True) -> RiccatiPath:
    """Forward RK4 for P2 with P2(0) = G1; may blow up in finite time."""
    post = _sym if symmetrize else None
    path = integrate_matrix_ode(
        p2_field(spec, p1), spec.G1, spec.grid, OdeDirection.FORWARD, postprocess=post
    )
    return RiccatiPath("P2", path)


@dataclass(frozen=True)
class StackedSystem:
    """Hat matrices of the leader's 2n-dimensional FBSDE."""

    n: int
    grid: TimeGrid
    A1h: CoefficientPath
    B1h: CoefficientPath
    B2h: CoefficientPath
    C1h: CoefficientPath
    D1h: CoefficientPath
    F1h: CoefficientPath
    F2h: CoefficientPath
    S1h: CoefficientPath
    G2h: np.ndarray
    xih: TerminalCondition


def build_stacked_system(
    spec: LQGameSpec,
    p1: RiccatiPath,
    p2: RiccatiPath,
    hat_c1_source: str = "dynamics",
) -> StackedSystem:
    """Node-wise assembly of the hat matrices from spec, P1 and P2.

    hat_c1_source selects the second-term factor in the upper-left block
    of C1-hat: "dynamics" uses (P1 S1 + I)^-1 so the stacked FBSDE
    reproduces the leader's state equation block-for-block; "display"
    uses (P1 P2 + I)^-1 as printed.  Default is "dynamics".
    """
    if hat_c1_source not in ("dynamics", "display"):
        raise ValueError(f"hat_c1_source must be 'dynamics' or 'display', got {hat_c1_source!r}")
    n, k = spec.dims.n, spec.dims.k
    grid = spec.grid
    eye = np.eye(n)
    nn = grid.steps + 1

    A1h = np.zeros((nn, 2 * n, 2 * n))
    B1h = np.zeros((nn, 2 * n, k))
    B2h = np.zeros((nn, 2 * n, k))
    C1h = np.zeros((nn, 2 * n, 2 * n))
    D1h = np.zeros((nn, 2 * n, 2 * n))
    F1h = np.zeros((nn, 2 * n, 2 * n))
    F2h = np.zeros((nn, 2 * n, 2 * n))
    S1h = np.zeros((nn, 2 * n, 2 * n))

    for i, t in enumerate(grid.nodes):
        A, B1, B2, C = spec.A(t), spec.B1(t), spec.B2(t), spec.C(t)
        Q2, S1, S2 = spec.Q2(t), spec.S1(t), spec.S2(t)
        P1, P2 = p1.values[i], p2.values[i]
        R1inv = guarded_inv(spec.R1(t), t, "R1")
        inv1 = guarded_inv(P1 @ S1 + eye, t, "(P1 S1 + I)")

        a_cl = A - B1 @ R1inv @ B1.T @ P2
        A1h[i, :n, :n] = a_cl
        A1h[i, n:, n:] = a_cl
        B1h[i, :n, :] = P2 @ B2
        B2h[i, n:, :] = B2

        if hat_c1_source == "dynamics":
            second = inv1
        else:
            second = guarded_inv(P1 @ P2 + eye, t, "(P1 P2 + I)")
        C1h[i, :n, :n] = (P1 @ P2 + eye) @ inv1 @ C.T - (P2 - S1) @ second @ P1 @ C.T
        C1h[i, n:, n:] = C.T

        D1h[i, :n, n:] = P2 @ C
        D1h[i, n:, :n] = P2 @ C @ inv1 @ (P1 @ P2 + eye) - P2 @ C @ P1 @ inv1 @ (P2 - S1)

        F1h[i, :n, n:] = P2 @ C @ inv1 @ P1 @ C.T @ P2
        F1h[i, n:, :n] = P2 @ C @ P1 @ inv1 @ C.T @ P2
        F1h[i, n:, n:] = Q2

        F2h[i, :n, n:] = -B1 @ R1inv @ B1.T
        F2h[i, n:, :n] = -B1 @ R1inv @ B1.T

        S1h[i, :n, n:] = -(P2 - S1)
        S1h[i, n:, :n] = -(P2 - S1)
        S1h[i, n:, n:] = S2

    G2h = np.zeros((2 * n, 2 * n))
    G2h[n:, n:] = spec.G2
    a_hat = np.concatenate([np.zeros(n), spec.xi.a])
    b_hat = np.vstack([np.zeros_like(spec.xi.b), spec.xi.b])
    return StackedSystem(
        n,
        grid,
        CoefficientPath(grid, A1h),
        CoefficientPath(grid, B1h),
        CoefficientPath(grid, B2h),
        CoefficientPath(grid, C1h),
        CoefficientPath(grid, D1h),
        CoefficientPath(grid, F1h),
        CoefficientPath(grid, F2h),
        CoefficientPath(grid, S1h),
        G2h,
        TerminalCondition(a_hat, b_hat),
    )


def pi1_field(sys: StackedSystem, R2: CoefficientPath) -> Callable[[float, np.ndarray], np.ndarray]:
    eye = np.eye(2 * sys.n)

    def field(t, Pi1):
        A1, B1, B2 = sys.A1h(t), sys.B1h(t), sys.B2h(t)
        C1, D1, F1, F2, S1 = sys.C1h(t), sys.D1h(t), sys.F1h(t), sys.F2h(t), sys.S1h(t)
        R2inv = guarded_inv(R2(t), t, "R2")
        inv_s = guarded_inv(eye + Pi1 @ S1, t, "(I + Pi1 S1-hat)")
        return -(
            A1 @ Pi1 + Pi1 @ A1.T - Pi1 @ F1 @ Pi1
            + (Pi1 @ B1 - B2) @ R2inv @ (B1.T @ Pi1 - B2.T)
            + (C1.T - Pi1 @ D1) @ inv_s @ Pi1 @ (C1 - D1.T @ Pi1)
            - F2
        )

    return field


def pi2_field(
    sys: StackedSystem, R2: CoefficientPath, pi1: RiccatiPath
) -> Callable[[float, np.ndarray], np.ndarray]:
    eye = np.eye(2 * sys.n)

    def field(t, Pi2):
        A1, B1, B2 = sys.A1h(t), sys.B1h(t), sys.B2h(t)
        C1, D1, F1, F2, S1 = sys.C1h(t), sys.D1h(t), sys.F1h(t), sys.F2h(t), sys.S1h(t)
        Pi1 = pi1(t)
        R2inv = guarded_inv(R2(t), t, "R2")
        inv_s = guarded_inv(eye + Pi1 @ S1, t, "(I + Pi1 S1-hat)")
        gain = B1 + Pi2 @ B2
        return (
            Pi2 @ A1 + A1.T @ Pi2 + Pi2 @ F2 @ Pi2
            - gain @ R2inv @ gain.T
            - (D1 + Pi2 @ C1.T) @ inv_s @ Pi1 @ (D1.T + C1 @ Pi2)
            + F1
        )

    return field


def solve_pi1(sys: StackedSystem, R2: CoefficientPath, symmetrize: bool = True) -> RiccatiPath:
    """Backward RK4 for Pi1 with Pi1(T) = 0."""
    post = _sym if symmetrize else None
    path = integrate_matrix_ode(
        pi1_field(sys, R2),
        np.zeros((2 * sys.n, 2 * sys.n)),
        sys.grid,
        OdeDirection.BACKWARD,
        postprocess=post,
    )
    return RiccatiPath("Pi1", path)


def solve_pi2(
    sys: StackedSystem, R2: CoefficientPath, pi1: RiccatiPath, symmetrize: bool = True
) -> RiccatiPath:
    """Forward RK4 for Pi2 with Pi2(0) = G2-hat."""
    post = _sym if symmetrize else None
    path = integrate_matrix_ode(
        pi2_field(sys, R2, pi1), sys.G2h, sys.grid, OdeDirection.FORWARD, postprocess=post
    )
    return RiccatiPath("Pi2", path)


def _require_c_zero(sys: StackedSystem):
    worst = max(float(np.max(np.abs(sys.C1h.values))), float(np.max(np.abs(sys.D1h.values))))
    if worst > 1e-12:
        raise ValueError(
            f"closed form requires C1-hat = D1-hat = 0 (i.e. C = 0); max entry {worst:.3e}"
        )


def _transition_closed_form(
    matfun: Callable[[float], np.ndarray], grid: TimeGrid, times: np.ndarray
) -> tuple[np.ndarray, SolvabilityReport]:
    """-(lower-right)^-1 (lower-left) of the cumulative transitions U_i = E_{N-1} ... E_i.

    E_i are the per-step transitions of dU/ds = matfun(s) U.  The lower-right
    determinant of every U_i must stay positive, else UnsolvableError names
    the time (from times) of the smallest one.
    """
    steps = transition_steps(matfun, grid)
    size = steps.shape[1]
    m = size // 2
    cumulative = np.empty((grid.steps + 1, size, size))
    cumulative[-1] = np.eye(size)
    for i in range(grid.steps - 1, -1, -1):
        cumulative[i] = cumulative[i + 1] @ steps[i]
    report = determinant_scan(cumulative, grid)
    if not report.satisfied:
        at = float(times[int(np.argmin(report.determinants))])
        raise UnsolvableError(report.min_determinant, at)
    return -np.linalg.solve(cumulative[:, m:, m:], cumulative[:, m:, :m]), report


def pi1_closed_form(
    sys: StackedSystem, R2: CoefficientPath, grid: TimeGrid
) -> tuple[RiccatiPath, SolvabilityReport]:
    """Matrix-exponential representation of Pi1 (requires C = 0).

    Built on the transition matrices of the linear Hamiltonian system;
    for constant hat matrices this reduces to e^(A (T - t)) literally.
    """
    _require_c_zero(sys)

    def afun(t):
        A1, B1, B2, F1, F2 = sys.A1h(t), sys.B1h(t), sys.B2h(t), sys.F1h(t), sys.F2h(t)
        R2inv = guarded_inv(R2(t), t, "R2")
        top = np.hstack([A1.T - B1 @ R2inv @ B2.T, B1 @ R2inv @ B1.T - F1])
        bot = np.hstack([F2 - B2 @ R2inv @ B2.T, -A1 + B2 @ R2inv @ B1.T])
        return np.vstack([top, bot])

    vals, report = _transition_closed_form(afun, grid, grid.nodes)
    return RiccatiPath("Pi1", CoefficientPath(grid, vals)), report


def pi2_closed_form(
    sys: StackedSystem, R2: CoefficientPath, grid: TimeGrid
) -> tuple[RiccatiPath, SolvabilityReport]:
    """Matrix-exponential representation of Pi2 (requires C = 0).

    The representation lives in reversed time tau = T - t; the returned
    path is mapped back to original time, so it is directly comparable
    with the forward RK4 solution (Pi2(0) = G2-hat at the t = 0 node).
    """
    _require_c_zero(sys)
    T = grid.horizon
    G2h = sys.G2h

    def bfun(tau):
        t = min(max(T - tau, 0.0), T)
        A1, B1, B2, F1, F2 = sys.A1h(t), sys.B1h(t), sys.B2h(t), sys.F1h(t), sys.F2h(t)
        R2inv = guarded_inv(R2(t), t, "R2")
        hamilton = F2 - B2 @ R2inv @ B2.T
        drift = A1 - B2 @ R2inv @ B1.T
        phi = drift + hamilton @ G2h
        psi = G2h @ drift + drift.T @ G2h + G2h @ hamilton @ G2h + F1 - B1 @ R2inv @ B1.T
        # Hamiltonian block sign convention: lower-left carries -psi, matching
        # the representation Pi21 = -(lower-right)^-1 (lower-left)
        return np.vstack([np.hstack([phi, hamilton]), np.hstack([-psi, -phi.T])])

    pi21_tau, report = _transition_closed_form(bfun, grid, T - grid.nodes)
    # Pi2(t_i) = G2-hat + Pi21(tau = T - t_i)
    vals = G2h[None] + pi21_tau[::-1]
    return RiccatiPath("Pi2", CoefficientPath(grid, vals)), report


def riccati_residual(
    ric: RiccatiPath, field: Callable[[float, np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """Max norm of (central-difference derivative - field) at interior nodes.

    Returns (max residual, time of the max).  Second-order differencing:
    the residual of a well-resolved solve shrinks ~4x when N doubles.
    """
    grid = ric.path.grid
    if grid.steps < 4:
        raise ValueError("residual check needs N >= 4")
    vals = ric.values
    dt = grid.dt
    worst, at = -1.0, 0.0
    for i in range(1, grid.steps):
        deriv = (vals[i + 1] - vals[i - 1]) / (2.0 * dt)
        r = float(np.max(np.abs(deriv - field(grid.nodes[i], vals[i]))))
        if r > worst:
            worst, at = r, float(grid.nodes[i])
    return worst, at


def riccati_csv(ric: RiccatiPath) -> str:
    """CSV export: header t,m_11,...,m_nn (row-major), 17 significant digits."""
    rows, cols = ric.path.shape
    header = "t," + ",".join(f"m_{r + 1}{c + 1}" for r in range(rows) for c in range(cols))
    lines = [header]
    for t, m in zip(ric.path.grid.nodes, ric.values):
        lines.append(",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in m.ravel()]))
    return "\n".join(lines) + "\n"
