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

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, TextIO

import numpy as np

from .model import AffineControl, CoefficientPath, LQGameSpec, TerminalCondition, TimeGrid, vanishes
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
class RiccatiPath:
    """A solved Riccati equation, sampled on the grid."""

    tag: str  # "P1", "P2", "Pi1" or "Pi2"
    path: CoefficientPath
    S1h: CoefficientPath | None = None  # for P1 and Pi1: the S1-hat of their system
    # of an RK4 solve: its (N+1) node slopes, read by riccati_residual; the row
    # of the node the flow ends at is unformed (odeint.integrate_matrix_ode)
    slopes: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    @cached_property
    def s1_inverse(self) -> np.ndarray:
        """(2N+1) half-step table of (I + Pi1 S1-hat)^-1 for a P1 or Pi1, formed
        from the path's and S1-hat's half tables by one gated batched inverse;
        pi2_field and stacked.solve_tilde_phi read it, and build_stacked_system
        and stacked.path_kernel its node rows [::2]."""
        Pi1 = self.path.half
        stage = np.eye(Pi1.shape[-1]) + Pi1 @ self.S1h.half
        return guarded_inv(stage, self.path.grid.half_times, PI1_S1)


def _tr(stack: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return stack.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M')/2 of a matrix or a stack of matrices."""
    return 0.5 * (m + _tr(m))


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
    """The Pi1 flow's right-hand side at one RK4 stage j, its products by
    ndarray.dot.  field.gate() checks every stage's I + Pi1 S1-hat after the
    flow (odeint.check_invertible).  Where C1-hat or D1-hat is nonzero the stage
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
        def noise(Pi1, inv_s, C1t, C1, D1, D1t):
            return _dot(_dot(_dot(C1t - _dot(Pi1, D1), inv_s), Pi1), C1 - _dot(D1t, Pi1))
    elif C1.any():  # D1-hat is zero (always so on the follower's system), and so are its products
        def noise(Pi1, inv_s, C1t, C1, *_):
            return _dot(_dot(_dot(C1t, inv_s), Pi1), C1)
    else:  # C = 0: C1-hat and D1-hat are zero, and so is the whole inverse term
        noise = None

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
        # -(left Pi1 + Pi1 right - Pi1 quad Pi1 + const + noise), summed as written
        nonlocal count
        stage_j[count], count = j, count + 1
        inv_s = stage(count - 1, j, Pi1)
        left, right, quad, const, *diffusion = rows[j]
        d = _dot(left, Pi1)
        d += _dot(Pi1, right)
        d -= _dot(_dot(Pi1, quad), Pi1)
        d += const
        if noise is not None:
            d += noise(Pi1, inv_s, *diffusion)
        return np.negative(d, out=d)

    def gate():
        k = stage_j[:count]
        if noise is None:
            check_invertible(eye + stages[:count] @ S1[k], times[k], PI1_S1)
        else:
            check_invertible(stages[:count], times[k], PI1_S1, inverses[:count])

    field.gate = gate
    return field


def pi2_field(sys: StackedSystem, pi1: RiccatiPath) -> Callable[[int, np.ndarray], np.ndarray]:
    """The Pi2 flow's right-hand side at one RK4 stage j, its products by
    ndarray.dot."""
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

    def field(j, Pi2):
        # Pi2 (left + quad Pi2 - quad_t Pi2^T) + right Pi2 - right_t Pi2^T + const,
        # summed as written
        left, quad, quad_t, right, right_t, const = rows[j]
        inner = _dot(quad, Pi2)
        inner += left
        inner -= _dot(quad_t, Pi2.T)
        d = _dot(Pi2, inner)
        d += _dot(right, Pi2)
        d -= _dot(right_t, Pi2.T)
        d += const
        return d

    return field


def solve_pi1(sys: StackedSystem) -> RiccatiPath:
    """Backward RK4 for Pi1 with Pi1(T) = 0, symmetrized per step, with its node
    slopes.  The stages are gated after the flow (pi1_field), also when it
    stopped or diverged, so SingularityError names the first bad stage in
    integration order."""
    field, zero = pi1_field(sys), np.zeros((sys.dim, sys.dim))
    try:
        with np.errstate(all="ignore"):  # past a bad stage the iterate may overflow
            values, slopes = integrate_matrix_ode(
                field, zero, sys.grid, OdeDirection.BACKWARD, _sym
            )
    finally:
        field.gate()
    return RiccatiPath("Pi1", CoefficientPath(sys.grid, values), sys.S1h, slopes)


def solve_pi2(sys: StackedSystem, pi1: RiccatiPath) -> RiccatiPath:
    """Forward RK4 for Pi2 with Pi2(0) = G2-hat, symmetrized per step, with its
    node slopes."""
    values, slopes = integrate_matrix_ode(
        pi2_field(sys, pi1), sys.G2h, sys.grid, OdeDirection.FORWARD, postprocess=_sym
    )
    return RiccatiPath("Pi2", CoefficientPath(sys.grid, values), slopes=slopes)


def _riccati_system(spec: LQGameSpec) -> StackedSystem:
    """The follower's system with no known control: its Riccati flows never read one."""
    return follower_system(spec, AffineControl.zero(spec.grid, spec.dims.k))


def solve_p1(spec: LQGameSpec) -> RiccatiPath:
    """P1: Pi1 of the follower's system, backward RK4 from P1(T) = 0."""
    return replace(solve_pi1(_riccati_system(spec)), tag="P1")


def solve_p2(spec: LQGameSpec, p1: RiccatiPath) -> RiccatiPath:
    """P2: Pi2 of the follower's system, forward RK4 from P2(0) = G1; may blow up in finite time."""
    return replace(solve_pi2(_riccati_system(spec), p1), tag="P2")


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
    """ValueError unless C = 0 by LQGameSpec.c_vanishes's test, read on C1-hat,
    which holds C's entries at both levels; D1-hat = P2 C is not tested, as
    the closed forms read neither."""
    if not vanishes(sys.C1h):
        worst = float(np.max(np.abs(sys.C1h.values)))
        raise ValueError(f"closed form requires C = 0; max |C| entry {worst:.3e}")


def _transition_closed_form(
    matfun: Callable[[np.ndarray], np.ndarray], grid: TimeGrid, times: np.ndarray
) -> tuple[np.ndarray, float]:
    """-(lower-right)^-1 (lower-left) of the cumulative transitions U_i = E_{N-1} ... E_i,
    and the smallest lower-right determinant.

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
    min_det = float(dets.min())
    if not min_det > 0.0:
        raise UnsolvableError(min_det, float(times[int(np.argmin(dets))]))
    return -np.linalg.solve(cumulative[:, m:, m:], cumulative[:, m:, :m]), min_det


def pi1_closed_form(sys: StackedSystem) -> tuple[RiccatiPath, float]:
    """Matrix-exponential representation of Pi1 (requires C = 0), and the
    smallest determinant of its solvability scan (_transition_closed_form).

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

    vals, min_det = _transition_closed_form(afun, grid, grid.nodes)
    return RiccatiPath("Pi1", CoefficientPath(grid, vals), sys.S1h), min_det


def pi2_closed_form(sys: StackedSystem) -> tuple[RiccatiPath, float]:
    """Matrix-exponential representation of Pi2 (requires C = 0), and the
    smallest determinant of its solvability scan.

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

    pi21_tau, min_det = _transition_closed_form(bfun, grid, T - grid.nodes)
    # Pi2(t_i) = G2-hat + Pi21(tau = T - t_i)
    vals = G2h[None] + pi21_tau[::-1]
    return RiccatiPath("Pi2", CoefficientPath(grid, vals)), min_det


def riccati_residual(ric: RiccatiPath) -> tuple[float, float]:
    """Max norm of (central-difference derivative - field) at interior nodes of
    an RK4 solve.

    The field values are the flow's own node slopes (RiccatiPath.slopes), the
    first stage of each RK4 step, so no field is evaluated again.  Returns
    (max residual, time of the first max).  Second-order differencing: the
    residual of a well-resolved solve shrinks ~4x when N doubles.
    """
    grid = ric.path.grid
    if grid.steps < 4:
        raise ValueError("residual check needs N >= 4")
    vals = ric.values
    deriv = (vals[2:] - vals[:-2]) / (2.0 * grid.dt)
    r = np.max(np.abs(deriv - ric.slopes[1:-1]), axis=(1, 2))
    worst = int(np.argmax(r))
    return float(r[worst]), float(grid.nodes[worst + 1])


def riccati_csv(ric: RiccatiPath, out: TextIO):
    """Write the CSV of a solved Riccati path to out: header t,m_11,...,m_nn
    (row-major), 17 significant digits.  Above dimension 9 the row and column
    indices are joined by "_", m_1_12, so that no two entries share a name."""
    rows, cols = ric.path.shape
    sep = "_" if max(rows, cols) > 9 else ""
    header = ["t"] + [f"m_{r + 1}{sep}{c + 1}" for r in range(rows) for c in range(cols)]
    nodes = ric.path.grid.nodes
    csv_block(np.column_stack([nodes, ric.values.reshape(len(nodes), -1)]), header, out)


# rows per "%" call and write of csv_block: only one slab's values are Python
# floats, and one slab's text a string, at a time
CSV_SLAB_ROWS = 256


def csv_block(table: np.ndarray, header: list[str], out: TextIO):
    """Write a 2-D table to out as CSV: the header line, then one line per row,
    17 significant digits; one "%.17g" format string formats each slab of
    CSV_SLAB_ROWS rows, which is written before the next is formed."""
    out.write(",".join(header) + "\n")
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), CSV_SLAB_ROWS):
        slab = table[start : start + CSV_SLAB_ROWS]
        out.write((line * len(slab)) % tuple(slab.ravel().tolist()))
