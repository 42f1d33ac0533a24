"""The Riccati pair of a decoupled FBSDE, and the stacked leader system.

Pi1 (backward, terminal 0) and Pi2 (forward, initial G2-hat) decouple a
StackedSystem.  The leader's system has dimension 2n; the follower's
problem is the same form at dimension n (follower_system), so its P1
(terminal 0) and P2 (initial G1) are that system's Pi1 and Pi2, solved
by the same two flow fields.  For constant coefficients with C = 0 the
solutions of Pi1 and Pi2 have matrix-exponential closed forms,
implemented here as an independent cross-check of the RK4 route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .model import AffineControl, CoefficientPath, LQGameSpec, TerminalCondition, TimeGrid
from .odeint import (
    OdeDirection,
    SingularityError,
    check_finite,
    check_invertible,
    guarded_inv,
    integrate_matrix_ode,
    transition_steps,
)

PI1_S1 = "(I + Pi1 S1-hat)"
_dot = np.ndarray.dot  # a stage's 2-D product: the same dgemm as @, with less call overhead


class UnsolvableError(RuntimeError):
    """The determinant condition behind a closed-form representation fails."""

    def __init__(self, min_determinant: float, t: float):
        self.min_determinant = min_determinant
        self.t = t
        super().__init__(
            f"solvability condition violated: min determinant {min_determinant:.6g} at t={t:.6g}"
        )


@dataclass(frozen=True)
class SolvabilityReport:
    """Determinant scan behind the closed-form Riccati representations."""

    determinants: np.ndarray
    min_determinant: float
    satisfied: bool


@dataclass(frozen=True)
class RiccatiPath:
    """A solved Riccati equation, sampled on the grid."""

    tag: str  # "P1", "P2", "Pi1" or "Pi2"
    path: CoefficientPath
    S1h: CoefficientPath | None = None  # for P1 and Pi1: the S1-hat of their system

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    @cached_property
    def s1_inverse(self) -> np.ndarray:
        """(2N+1) half-step table of (I + Pi1 S1-hat)^-1 for a P1 or Pi1, formed
        and gated once; pi2_field and stacked.solve_tilde_phi read it, and
        build_stacked_system and stacked.path_kernel its node rows [::2]."""
        return pi1_s1_inverse(self.path.half, self.S1h.half, self.path.grid.half_times)


def _tr(stack: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return stack.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M')/2 of a matrix or a stack of matrices."""
    return 0.5 * (m + _tr(m))


def pi1_s1_inverse(Pi1: np.ndarray, S1h: np.ndarray, t) -> np.ndarray:
    """(I + Pi1 S1-hat)^-1 of one matrix at time t, or of a stack at times t."""
    return guarded_inv(np.eye(Pi1.shape[-1]) + Pi1 @ S1h, t, PI1_S1)


@dataclass(frozen=True)
class StackedSystem:
    """Hat matrices of a decoupled FBSDE, its control weight's inverse and its known control.

    The leader's system has dimension 2n (build_stacked_system); the
    follower's problem is the same form at dimension n (follower_system).
    The backward driver carries a known control u as + forcing_load u: the
    leader's control in the follower's problem, none (zero columns) in the
    leader's own.
    """

    n: int  # the game's state dimension
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
    R: CoefficientPath  # the control weight: the spec's R2 or R1
    R_inv: np.ndarray  # (2N+1, k, k) half-step table: the spec's R2_inv or R1_inv
    B2_Rinv_B2T: np.ndarray  # (2N+1, dim, dim) half-step table of B2-hat R^-1 B2-hat^T
    forcing_load: CoefficientPath  # (dim, j) loading of the known control
    forcing_control: AffineControl  # the known control, j x 1

    @property
    def dim(self) -> int:
        """Dimension of the forward and backward states."""
        return self.A1h.shape[0]

    @property
    def weight_name(self) -> str:
        """The spec's name of the control weight R: R2 on the leader's system, R1 on the follower's."""
        return "R2" if self.dim == 2 * self.n else "R1"

    def halves(self) -> tuple[np.ndarray, ...]:
        """Half-step tables of A1h, B1h, B2h, C1h, D1h, F1h, F2h and S1h, in that order."""
        hats = (self.A1h, self.B1h, self.B2h, self.C1h, self.D1h, self.F1h, self.F2h, self.S1h)
        return tuple(h.half for h in hats)


def build_stacked_system(spec: LQGameSpec, p1: RiccatiPath, p2: RiccatiPath) -> StackedSystem:
    """Node-wise assembly of the hat matrices from spec, P1 and P2.

    Every block is read off the follower's closed loop.  phibar = x - P2 ybar,
    with x the follower's adjoint, dx = (A^T x + Q1 ybar) dt + (C^T x + S1 zbar) dW,
    so phibar's diffusion is C^T phibar + C^T P2 ybar + (S1 - P2) zbar and its
    drift carries P2 C zbar and K ybar, K = P2 C (I + P1 S1)^-1 P1 C^T P2.
    Hence C1-hat = diag(C^T, C^T), both off-diagonal blocks of D1-hat are P2 C
    and both of F1-hat are K, which is symmetric.
    """
    n, k = spec.dims.n, spec.dims.k
    grid = spec.grid
    nn = grid.steps + 1

    A, B2, C = spec.A.values, spec.B2.values, spec.C.values
    Q2, S1, S2 = spec.Q2.values, spec.S1.values, spec.S2.values
    P1, P2 = p1.values, p2.values
    Ct = _tr(C)
    gain = spec.B1_R1inv_B1T[::2]
    p2c = P2 @ C

    A1h = np.zeros((nn, 2 * n, 2 * n))
    B1h = np.zeros((nn, 2 * n, k))
    B2h = np.zeros((nn, 2 * n, k))
    C1h = np.zeros((nn, 2 * n, 2 * n))
    D1h = np.zeros((nn, 2 * n, 2 * n))
    F1h = np.zeros((nn, 2 * n, 2 * n))
    F2h = np.zeros((nn, 2 * n, 2 * n))
    S1h = np.zeros((nn, 2 * n, 2 * n))

    A1h[:, :n, :n] = A1h[:, n:, n:] = A - gain @ P2
    B1h[:, :n, :] = P2 @ B2
    B2h[:, n:, :] = B2

    C1h[:, :n, :n] = C1h[:, n:, n:] = Ct
    D1h[:, :n, n:] = D1h[:, n:, :n] = p2c
    F1h[:, :n, n:] = F1h[:, n:, :n] = p2c @ p1.s1_inverse[::2] @ P1 @ Ct @ P2
    F1h[:, n:, n:] = Q2

    F2h[:, :n, n:] = F2h[:, n:, :n] = -gain
    S1h[:, :n, n:] = S1h[:, n:, :n] = S1 - P2
    S1h[:, n:, n:] = S2

    G2h = np.zeros((2 * n, 2 * n))
    G2h[n:, n:] = spec.G2
    a_hat = np.concatenate([np.zeros(n), spec.xi.a])
    b_hat = np.vstack([np.zeros_like(spec.xi.b), spec.xi.b])
    B2h_path = CoefficientPath(grid, B2h)
    B2_Rinv_B2T = B2h_path.half @ spec.R2_inv @ _tr(B2h_path.half)
    # the leader's problem has no known control: zero columns
    return StackedSystem(
        n,
        grid,
        CoefficientPath(grid, A1h),
        CoefficientPath(grid, B1h),
        B2h_path,
        CoefficientPath(grid, C1h),
        CoefficientPath(grid, D1h),
        CoefficientPath(grid, F1h),
        CoefficientPath(grid, F2h),
        CoefficientPath(grid, S1h),
        G2h,
        TerminalCondition(a_hat, b_hat),
        spec.R2,
        spec.R2_inv,
        check_finite(B2_Rinv_B2T, grid.half_times, "B2-hat R2^-1 B2-hat^T"),
        CoefficientPath(grid, np.zeros((nn, 2 * n, 0))),
        AffineControl.zero(grid, 0),
    )


def follower_system(spec: LQGameSpec, u2: AffineControl) -> StackedSystem:
    """The follower's problem as an n-dimensional stacked system, whose Pi1
    and Pi2 are P1 and P2; the leader's control u2 is its known control."""
    grid, n = spec.grid, spec.dims.n
    zero = CoefficientPath.constant(grid, np.zeros((n, n)))
    return StackedSystem(
        n, grid, A1h=spec.A, B1h=CoefficientPath.constant(grid, np.zeros((n, spec.dims.k))),
        B2h=spec.B1, C1h=CoefficientPath(grid, _tr(spec.C.values)), D1h=zero, F1h=spec.Q1,
        F2h=zero, S1h=spec.S1, G2h=spec.G1, xih=spec.xi, R=spec.R1, R_inv=spec.R1_inv,
        B2_Rinv_B2T=spec.B1_R1inv_B1T,
        forcing_load=spec.B2, forcing_control=u2,
    )


def pi1_field(sys: StackedSystem) -> Callable[[int, np.ndarray], np.ndarray]:
    """The Pi1 flow's right-hand side at one RK4 stage (int j), or at a stack
    as riccati_residual passes it, gated by pi1_s1_inverse.  One drift formula
    serves both, with ndarray.dot for a stage's 2-D products and matmul for a
    stack's.  field.gate() checks every stage's I + Pi1 S1-hat after the flow
    (odeint.check_invertible).  Where C1-hat or D1-hat is nonzero the stage
    inverts it with plain inv and keeps it and its inverse in two (4N, m, m)
    stacks, so the gate forms no inverse: a non-finite stage matrix raises
    SingularityError at once, an exactly singular one LinAlgError, whose slot
    the gate leaves to the SVD.  Where both are zero (C = 0) the inverse only
    multiplies zeros: a stage records only its iterate, and the gate forms
    I + Pi1 S1-hat for all stages in one batched product."""
    A1, B1, B2, C1, D1, F1, F2, S1 = sys.halves()
    times = sys.grid.half_times
    B1_Rinv, B2_Rinv = B1 @ sys.R_inv, B2 @ sys.R_inv
    # (Pi1 B1 - B2) R^-1 (B1^T Pi1 - B2^T) expanded: its iterate-free products
    # join A1, F1 and F2 in four tables
    tables = (
        A1 - B2_Rinv @ _tr(B1), _tr(A1) - B1_Rinv @ _tr(B2),
        F1 - B1_Rinv @ _tr(B1), sys.B2_Rinv_B2T - F2, _tr(C1), C1, D1, _tr(D1),
    )
    rows = list(zip(*tables))  # the views of each half step, read per stage
    eye, stage_j, count = np.eye(sys.dim), np.empty(4 * sys.grid.steps, dtype=int), 0
    stages = np.empty((4 * sys.grid.steps, sys.dim, sys.dim))

    if D1.any():
        def noise(mul, Pi1, inv_s, C1t, C1, D1, D1t):
            return mul(mul(mul(C1t - mul(Pi1, D1), inv_s), Pi1), C1 - mul(D1t, Pi1))
    elif C1.any():  # D1-hat is zero (always so on the follower's system), and so are its products
        def noise(mul, Pi1, inv_s, C1t, C1, *_):
            return mul(mul(mul(C1t, inv_s), Pi1), C1)
    else:  # C = 0: C1-hat and D1-hat are zero, and so is the whole inverse term
        noise = None

    def drift(mul, Pi1, inv_s, left, right, quad, const, *diffusion):
        # -(left Pi1 + Pi1 right - Pi1 quad Pi1 + const + noise), summed as written
        d = mul(left, Pi1)
        d += mul(Pi1, right)
        d -= mul(mul(Pi1, quad), Pi1)
        d += const
        if noise is not None:
            d += noise(mul, Pi1, inv_s, *diffusion)
        return np.negative(d, out=d)

    if noise is None:
        def stage(i, j, Pi1):
            stages[i] = Pi1  # the gate forms I + Pi1 S1-hat after the flow
    else:
        # (I + Pi1 S1-hat)^-1 depends on the RK4 iterate, so it is inverted per
        # stage; a slot whose inv raised keeps its NaN, which certifies nothing
        inverses = np.full_like(stages, np.nan)

        def stage(i, j, Pi1):
            m = np.add(eye, _dot(Pi1, S1[j]), out=stages[i])
            if not np.isfinite(m).all():
                raise SingularityError(float(times[j]), PI1_S1)
            inv_s = inverses[i] = np.linalg.inv(m)  # LinAlgError stops the flow
            return inv_s

    def field(j, Pi1):
        if isinstance(j, np.ndarray):
            inv_s = pi1_s1_inverse(Pi1, S1[j], times[j])
            return drift(np.matmul, Pi1, inv_s, *(a[j] for a in tables))
        nonlocal count
        stage_j[count], count = j, count + 1
        return drift(_dot, Pi1, stage(count - 1, j, Pi1), *rows[j])

    def gate():
        k = stage_j[:count]
        if noise is None:
            check_invertible(eye + stages[:count] @ S1[k], times[k], PI1_S1)
        else:
            check_invertible(stages[:count], times[k], PI1_S1, inverses[:count])

    field.gate = gate
    return field


def pi2_field(sys: StackedSystem, pi1: RiccatiPath) -> Callable[[int, np.ndarray], np.ndarray]:
    """The Pi2 flow's right-hand side at one RK4 stage (int j), or at a stack
    as riccati_residual passes it: one drift formula, with ndarray.dot for a
    stage's 2-D products and matmul for a stack's."""
    A1, B1, B2, C1, D1, F1, F2, _ = sys.halves()
    Rinv = sys.R_inv
    w = pi1.s1_inverse @ pi1.path.half
    B2_Rinv, C1t_w, D1_w = B2 @ Rinv, _tr(C1) @ w, D1 @ w
    # (B1 + Pi2 B2) R^-1 (B1 + Pi2 B2)^T and (D1 + Pi2 C1^T) w (D1^T + C1 Pi2)
    # expanded into tables; F1 is symmetric, so the stage iterates are symmetric
    # up to roundoff, but Pi2^T stays apart from Pi2: merging the two tables
    # would regroup the sums, and P2 is this flow on the follower's system
    tables = (
        A1 - B2_Rinv @ _tr(B1) - C1t_w @ _tr(D1),  # left
        F2 - C1t_w @ C1,  # quad
        sys.B2_Rinv_B2T,  # quad_t
        _tr(A1) - D1_w @ C1,  # right
        B1 @ Rinv @ _tr(B2),  # right_t
        F1 - B1 @ Rinv @ _tr(B1) - D1_w @ _tr(D1),  # const
    )
    rows = list(zip(*tables))

    def drift(mul, Pi2, Pi2t, left, quad, quad_t, right, right_t, const):
        # Pi2 (left + quad Pi2 - quad_t Pi2^T) + right Pi2 - right_t Pi2^T + const,
        # summed as written
        inner = mul(quad, Pi2)
        inner += left
        inner -= mul(quad_t, Pi2t)
        d = mul(Pi2, inner)
        d += mul(right, Pi2)
        d -= mul(right_t, Pi2t)
        d += const
        return d

    def field(j, Pi2):
        if isinstance(j, np.ndarray):
            return drift(np.matmul, Pi2, _tr(Pi2), *(a[j] for a in tables))
        return drift(_dot, Pi2, Pi2.T, *rows[j])

    return field


def solve_pi1(sys: StackedSystem) -> RiccatiPath:
    """Backward RK4 for Pi1 with Pi1(T) = 0, symmetrized per step.  The stages
    are gated after the flow (pi1_field), also when it stopped or diverged, so
    SingularityError names the first bad stage in integration order."""
    field, zero = pi1_field(sys), np.zeros((sys.dim, sys.dim))
    try:
        with np.errstate(all="ignore"):  # past a bad stage the iterate may overflow
            values = integrate_matrix_ode(field, zero, sys.grid, OdeDirection.BACKWARD, _sym)
    finally:
        field.gate()
    return RiccatiPath("Pi1", CoefficientPath(sys.grid, values), sys.S1h)


def solve_pi2(sys: StackedSystem, pi1: RiccatiPath) -> RiccatiPath:
    """Forward RK4 for Pi2 with Pi2(0) = G2-hat, symmetrized per step."""
    values = integrate_matrix_ode(
        pi2_field(sys, pi1), sys.G2h, sys.grid, OdeDirection.FORWARD, postprocess=_sym
    )
    return RiccatiPath("Pi2", CoefficientPath(sys.grid, values))


def _riccati_system(spec: LQGameSpec) -> StackedSystem:
    """The follower's system with no known control: its Riccati flows never read one."""
    return follower_system(spec, AffineControl.zero(spec.grid, spec.dims.k))


def solve_p1(spec: LQGameSpec) -> RiccatiPath:
    """P1: Pi1 of the follower's system, backward RK4 from P1(T) = 0."""
    pi1 = solve_pi1(_riccati_system(spec))
    return RiccatiPath("P1", pi1.path, pi1.S1h)


def solve_p2(spec: LQGameSpec, p1: RiccatiPath) -> RiccatiPath:
    """P2: Pi2 of the follower's system, forward RK4 from P2(0) = G1; may blow up in finite time."""
    return RiccatiPath("P2", solve_pi2(_riccati_system(spec), p1).path)


def riccati_chain(
    spec: LQGameSpec,
) -> tuple[RiccatiPath, RiccatiPath, StackedSystem, RiccatiPath, RiccatiPath]:
    """P1, P2, the leader's stacked system, Pi1 and Pi2 of a game, in solve order."""
    p1 = solve_p1(spec)
    p2 = solve_p2(spec, p1)
    sys = build_stacked_system(spec, p1, p2)
    pi1 = solve_pi1(sys)
    return p1, p2, sys, pi1, solve_pi2(sys, pi1)


def _require_c_zero(sys: StackedSystem):
    worst = max(float(np.max(np.abs(sys.C1h.values))), float(np.max(np.abs(sys.D1h.values))))
    if worst > 1e-12:
        raise ValueError(
            f"closed form requires C1-hat = D1-hat = 0 (i.e. C = 0); max entry {worst:.3e}"
        )


def _transition_closed_form(
    matfun: Callable[[np.ndarray], np.ndarray], grid: TimeGrid, times: np.ndarray
) -> tuple[np.ndarray, SolvabilityReport]:
    """-(lower-right)^-1 (lower-left) of the cumulative transitions U_i = E_{N-1} ... E_i.

    E_i are the per-step transitions of dU/ds = matfun(s) U, matfun stack-valued.
    The lower-right determinant of every U_i must stay positive, else
    UnsolvableError names the time (from times) of the smallest one.
    """
    steps = transition_steps(matfun, grid)
    size = steps.shape[1]
    m = size // 2
    cumulative = np.empty((grid.steps + 1, size, size))
    cumulative[-1] = np.eye(size)
    for i in range(grid.steps - 1, -1, -1):
        cumulative[i] = cumulative[i + 1] @ steps[i]
    dets = np.linalg.det(cumulative[:, m:, m:])
    report = SolvabilityReport(dets, float(dets.min()), bool(dets.min() > 0.0))
    if not report.satisfied:
        raise UnsolvableError(report.min_determinant, float(times[int(np.argmin(dets))]))
    return -np.linalg.solve(cumulative[:, m:, m:], cumulative[:, m:, :m]), report


def pi1_closed_form(sys: StackedSystem) -> tuple[RiccatiPath, SolvabilityReport]:
    """Matrix-exponential representation of Pi1 (requires C = 0).

    Built on the transition matrices of the linear Hamiltonian system;
    for constant hat matrices this reduces to e^(A (T - t)) literally.
    """
    _require_c_zero(sys)
    grid = sys.grid

    def afun(t):
        # read and invert at the Gauss times, not from the half-step tables,
        # so that the closed form stays independent of the RK4 route
        A1, B1, B2, F1, F2 = sys.A1h(t), sys.B1h(t), sys.B2h(t), sys.F1h(t), sys.F2h(t)
        R_inv = guarded_inv(sys.R(t), t, sys.weight_name)
        B1t, B2t = _tr(B1), _tr(B2)
        return np.block([
            [_tr(A1) - B1 @ R_inv @ B2t, B1 @ R_inv @ B1t - F1],
            [F2 - B2 @ R_inv @ B2t, -A1 + B2 @ R_inv @ B1t],
        ])

    vals, report = _transition_closed_form(afun, grid, grid.nodes)
    return RiccatiPath("Pi1", CoefficientPath(grid, vals), sys.S1h), report


def pi2_closed_form(sys: StackedSystem) -> tuple[RiccatiPath, SolvabilityReport]:
    """Matrix-exponential representation of Pi2 (requires C = 0).

    The representation lives in reversed time tau = T - t; the returned
    path is mapped back to original time, so it is directly comparable
    with the forward RK4 solution (Pi2(0) = G2-hat at the t = 0 node).
    """
    _require_c_zero(sys)
    grid = sys.grid
    T = grid.horizon
    G2h = sys.G2h

    def bfun(tau):
        t = np.clip(T - tau, 0.0, T)
        A1, B1, B2, F1, F2 = sys.A1h(t), sys.B1h(t), sys.B2h(t), sys.F1h(t), sys.F2h(t)
        R_inv = guarded_inv(sys.R(t), t, sys.weight_name)
        B1t = _tr(B1)
        hamilton = F2 - B2 @ R_inv @ _tr(B2)
        drift = A1 - B2 @ R_inv @ B1t
        phi = drift + hamilton @ G2h
        psi = G2h @ drift + _tr(drift) @ G2h + G2h @ hamilton @ G2h + F1 - B1 @ R_inv @ B1t
        # Hamiltonian block sign convention: lower-left carries -psi, matching
        # the representation Pi21 = -(lower-right)^-1 (lower-left)
        return np.block([[phi, hamilton], [-psi, -_tr(phi)]])

    pi21_tau, report = _transition_closed_form(bfun, grid, T - grid.nodes)
    # Pi2(t_i) = G2-hat + Pi21(tau = T - t_i)
    vals = G2h[None] + pi21_tau[::-1]
    return RiccatiPath("Pi2", CoefficientPath(grid, vals)), report


def riccati_residual(
    ric: RiccatiPath, field: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """Max norm of (central-difference derivative - field) at interior nodes.

    field takes half-step indices (node i is index 2 i) and a stack of iterates,
    as the *_field factories return it; all interior nodes go through one call.
    Returns (max residual, time of the first max).  Second-order differencing:
    the residual of a well-resolved solve shrinks ~4x when N doubles.
    """
    grid = ric.path.grid
    if grid.steps < 4:
        raise ValueError("residual check needs N >= 4")
    vals = ric.values
    deriv = (vals[2:] - vals[:-2]) / (2.0 * grid.dt)
    inner = np.arange(1, grid.steps)
    r = np.max(np.abs(deriv - field(2 * inner, vals[1:-1])), axis=(1, 2))
    worst = int(np.argmax(r))
    return float(r[worst]), float(grid.nodes[inner[worst]])


def riccati_csv(ric: RiccatiPath) -> str:
    """CSV export: header t,m_11,...,m_nn (row-major), 17 significant digits."""
    rows, cols = ric.path.shape
    header = ["t"] + [f"m_{r + 1}{c + 1}" for r in range(rows) for c in range(cols)]
    nodes = ric.path.grid.nodes
    return csv_block(np.column_stack([nodes, ric.values.reshape(len(nodes), -1)]), header)


# rows per "%" call of csv_block: only one slab's values are Python floats at a time
CSV_SLAB_ROWS = 256


def csv_block(table: np.ndarray, header: list[str] | None = None) -> str:
    """CSV text of a 2-D table: the header line, if any, then one line per row,
    17 significant digits; one "%.17g" format string formats each slab of
    CSV_SLAB_ROWS rows, and the text is joined once."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    slabs = np.split(table, range(CSV_SLAB_ROWS, len(table), CSV_SLAB_ROWS))
    head = [] if header is None else [",".join(header) + "\n"]
    return "".join(head + [(line * len(slab)) % tuple(slab.ravel().tolist()) for slab in slabs])
