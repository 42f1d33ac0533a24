"""Brute-force optimality oracles, independent of the Riccati machinery.

With a deterministic terminal datum and deterministic controls, the
backward equation degenerates to a terminal-value ODE with z = 0, so
both players' problems collapse to finite-dimensional convex quadratic
programs over piecewise-constant controls.  Those are solved exactly,
each by one banded solve of its KKT system, in which the discrete states
stay unknowns and the one-step dynamics stay equality constraints;
nothing from the feedback pipeline is trusted.  The leader's bilevel
problem is one QP: the follower's KKT rows, which characterize its
response, are linear constraints of the leader's problem.  Convexity is
decided on the same KKT matrices, by their inertia, when a cheap
certificate on the weights does not settle it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LQGameSpec
from .odeint import linear_rk4_steps

PSD_TOL = 1e-9


class NonConvexError(RuntimeError):
    """The discrete quadratic cost is not strictly convex (assumption violation):
    its KKT matrix has the (positive, negative, zero) eigenvalue counts
    `inertia`, where a strictly convex QP's has `required`."""

    def __init__(self, inertia: tuple[int, int, int], required: tuple[int, int, int]):
        self.inertia, self.required = inertia, required
        found, want = ("(+{}, -{}, {})".format(*counts) for counts in (inertia, required))
        super().__init__(f"discrete cost Hessian not PSD (KKT inertia {found}, required {want})")


@dataclass(frozen=True)
class DiscreteLQProblem:
    """Exact discrete affine state map for deterministic-terminal games.

    Over piecewise-constant controls, the backward state satisfies
    y_i = E_i y_{i+1} + F1_i u1_i + F2_i u2_i with per-step matrices
    from one RK4 step of the degenerate (z = 0) terminal-value ODE.
    """

    spec: LQGameSpec
    E: np.ndarray  # (N, n, n)
    F1: np.ndarray  # (N, n, k)
    F2: np.ndarray  # (N, n, k)
    node_weights: np.ndarray  # (N+1,), trapezoid * dt
    R1_bar: np.ndarray  # (N, k, k), per-step control weight * dt
    R2_bar: np.ndarray  # (N, k, k)

    @cached_property
    def follower_kkt(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The follower's node weights W1 and its KKT matrix as (rows, cols, values)
        over the unknowns (y_i, u1_i, lambda_i), step by step; neither depends on
        u2.  Built, and the follower's QP checked strictly convex, once per
        problem, for both oracles."""
        n, k = self.spec.dims.n, self.spec.dims.k
        W1 = _quadratic_pieces(self, self.spec.Q1(self.spec.grid.nodes), self.spec.G1)
        K = _assemble(2 * n + k, _follower_rows(self, W1, 0, n, n + k, n + k, 0, n), [])
        _require_convex(W1, self.R1_bar, 2 * n + k, K, n)
        return W1, K


def build_discrete_problem(spec: LQGameSpec) -> DiscreteLQProblem:
    if not spec.xi.deterministic:
        raise ValueError("discrete oracle requires a deterministic terminal datum (b = 0)")
    n, k = spec.dims.n, spec.dims.k
    grid = spec.grid
    N, dt = grid.steps, grid.dt

    def rate(t):
        # y' = -(A y + B1 u1 + B2 u2) on (y, u1, u2), with u1 and u2 held constant
        a = np.zeros((N, n + 2 * k, n + 2 * k))
        a[:, :n] = -np.concatenate([spec.A(t), spec.B1(t), spec.B2(t)], axis=2)
        return a

    # one RK4 step from t_{i+1} back to t_i on every interval at once; the top
    # n rows of its step map are [E | F1 | F2]
    h, t1 = -dt, grid.nodes[1:]
    top = linear_rk4_steps(rate(t1), rate(t1 + 0.5 * h), rate(t1 + h), h)[:, :n]
    E, F1, F2 = top[:, :, :n], top[:, :, n : n + k], top[:, :, n + k :]

    R1, R2 = spec.R1(grid.nodes), spec.R2(grid.nodes)
    R1_bar = 0.5 * dt * (R1[:-1] + R1[1:])
    R2_bar = 0.5 * dt * (R2[:-1] + R2[1:])
    return DiscreteLQProblem(spec, E, F1, F2, grid.trapezoid_weights, R1_bar, R2_bar)


def _quadratic_pieces(prob: DiscreteLQProblem, Qs: np.ndarray, G: np.ndarray):
    """Trapezoid state weights + initial weight as one (N+1) stack of matrices."""
    W = prob.node_weights[:, None, None] * Qs
    W[0] += G
    return W


def _certified(W: np.ndarray, R_bar: np.ndarray) -> bool:
    """True when every node weight W_i is PSD and every step weight R_bar_i is PD:
    then a reduced Hessian S'WS + R_bar is at least R_bar, so it is convex and
    no inertia needs to be counted."""
    if np.linalg.eigvalsh(W).min() < 0.0:
        return False
    try:
        np.linalg.cholesky(R_bar)
    except np.linalg.LinAlgError:
        return False
    return True


def _inertia(m: int, K) -> tuple[int, int, int]:
    """(#positive, #negative, #zero) eigenvalues of the symmetric block-tridiagonal
    matrix K = (rows, cols, values) with m unknowns per step.

    Its step blocks give the Schur pivots S_0 = D_0, S_i = D_i - L_i S_{i-1}^-1 L_i',
    with D_i the diagonal block of step i and L_i the block at step row i and
    column i - 1, whose inertias sum to K's (Haynsworth); one batched eigvalsh
    counts them.  A pivot eigenvalue within PSD_TOL max(1, max|K|) of zero counts
    as zero, and a singular pivot ends the count, so it falls short of K's size.
    """
    rows, cols, vals = K
    step, lower = rows // m, rows // m - cols // m
    N, keep = int(step.max()) + 1, lower >= 0  # the blocks above are the L_i'
    flat = ((lower * N + step) * m + rows % m) * m + cols % m
    D, L = np.bincount(flat[keep], vals[keep], 2 * N * m * m).reshape(2, N, m, m)
    S = D.copy()
    for i in range(1, N):
        try:
            S[i] -= L[i] @ np.linalg.solve(S[i - 1], L[i].T)
        except np.linalg.LinAlgError:
            S = S[:i]
            break
    eig = np.linalg.eigvalsh(S)
    tol = PSD_TOL * max(1.0, float(np.abs(D).max()), float(np.abs(L).max()))
    return int((eig > tol).sum()), int((eig < -tol).sum()), int((np.abs(eig) <= tol).sum())


def _require_convex(W: np.ndarray, R_bar: np.ndarray, m: int, K, constraints: int) -> None:
    """NonConvexError unless the QP with node weights W, step weights R_bar and KKT
    matrix K (m unknowns per step, `constraints` of them multipliers) is strictly
    convex on its constraints' null space: _certified, or else K has the inertia
    (#primal, #constraints, 0) (Gould, Math. Programming 32, 1985; Nocedal &
    Wright, Numerical Optimization, 2006, Thm 16.3)."""
    N = len(R_bar)
    required = (N * (m - constraints), N * constraints, 0)
    if not _certified(W, R_bar) and (found := _inertia(m, K)) != required:
        raise NonConvexError(found, required)


@dataclass(frozen=True)
class OracleResult:
    """Exact discrete optimum: step-major control array and certified cost."""

    control: np.ndarray  # (N, k)
    cost: float
    gradient_norm: float  # |K x - b| of the KKT system
    inner_control: np.ndarray | None = None  # leader oracle: induced follower control


def _place(m, r, c, B, rs, cs):
    """(rows, cols, values) of the blocks B[j] at rows (j + rs) m + r and columns
    (j + cs) m + c of a matrix with m unknowns per step."""
    step = np.arange(len(B))[:, None, None]
    rows = (step + rs) * m + r + np.arange(B.shape[1])[:, None]
    cols = (step + cs) * m + c + np.arange(B.shape[2])
    return np.broadcast_to(rows, B.shape).ravel(), np.broadcast_to(cols, B.shape).ravel(), B.ravel()


def _band(rows, cols, vals, size):
    """LAPACK band storage ab[h + r - c, c] = a[r, c] of the matrix with entries
    vals at (rows, cols), repeats summed, and its half-bandwidth h."""
    h = int(np.abs(rows - cols).max())
    flat = (h + rows - cols) * size + cols
    return np.bincount(flat, vals, (2 * h + 1) * size).reshape(2 * h + 1, size), h


def _assemble(m, terms, pairs):
    """A block-banded matrix with m unknowns per step as (rows, cols, values), repeats
    summed: each (r, c, B, rs, cs) in terms places its blocks as _place does, and
    each in pairs also its transposed blocks at the mirrored position."""
    pairs = pairs + [(c, r, np.swapaxes(B, 1, 2), cs, rs) for r, c, B, rs, cs in pairs]
    return tuple(np.concatenate(part) for part in zip(*(_place(m, *t) for t in terms + pairs)))


def _solve_kkt(K, rhs):
    """Solve the banded system K x = rhs, K as (rows, cols, values); returns x and
    the residual norm |K x - rhs|."""
    rows, cols, vals = K
    ab, h = _band(rows, cols, vals, rhs.size)
    import scipy.linalg  # loaded on first use: only verify reaches it

    x = scipy.linalg.solve_banded((h, h), ab, rhs, check_finite=False)
    residual = np.bincount(rows, vals * x[cols], rhs.size) - rhs
    return x, float(np.linalg.norm(residual))


def _follower_rows(prob: DiscreteLQProblem, W1, y, u1, lam, dyn, sy, su1):
    """The follower's KKT rows as (r, c, B, rs, cs) block terms over its unknowns
    y, u1 and lambda at step offsets y, u1 and lam:
    dynamics (rows dyn)        y_i - E_i y_{i+1} - F1_i u1_i = F2_i u2_i (+ E_{N-1} a),
    stationarity in y (sy)     W1_i y_i + lambda_i - E_{i-1}' lambda_{i-1} = 0,
    stationarity in u1 (su1)   R1_bar_i u1_i - F1_i' lambda_i = 0.
    y_N = a is known, so the last step's y_{i+1} term goes to the right-hand side.
    """
    N, n = prob.E.shape[:2]
    eye, E = np.broadcast_to(np.eye(n), (N, n, n)), prob.E[:-1]
    return [
        (dyn, y, eye, 0, 0), (dyn, y, -E, 0, 1), (dyn, u1, -prob.F1, 0, 0),
        (sy, y, W1[:-1], 0, 0), (sy, lam, eye, 0, 0), (sy, lam, -np.swapaxes(E, 1, 2), 1, 0),
        (su1, u1, prob.R1_bar, 0, 0), (su1, lam, -np.swapaxes(prob.F1, 1, 2), 0, 0),
    ]


def _cost(W, y, a, R_bar, u):
    """0.5 sum_i y_i' W_i y_i over the nodes, y_N = a, + 0.5 sum_i u_i' R_bar_i u_i."""
    y = np.vstack([y, a])
    return 0.5 * float(np.einsum("ip,ipq,iq->", y, W, y) + np.einsum("ip,ipq,iq->", u, R_bar, u))


def deterministic_follower_oracle(prob: DiscreteLQProblem, u2: np.ndarray) -> OracleResult:
    """Exact discrete follower optimum for a fixed piecewise-constant u2.

    u2 has shape (N, k); returns the minimizing u1 and its cost.  The unknowns
    are ordered (y_i, u1_i, lambda_i) step by step, so the KKT matrix is
    block-tridiagonal and one banded solve gives them all.
    """
    spec = prob.spec
    n, k = spec.dims.n, spec.dims.k
    N, a = spec.grid.steps, spec.xi.a
    W1, K = prob.follower_kkt
    u1, lam, m = n, n + k, 2 * n + k
    u2 = np.asarray(u2, dtype=float).reshape(N, k)
    rhs = np.zeros((N, m))
    rhs[:, lam:] = (prob.F2 @ u2[..., None])[..., 0]
    rhs[-1, lam:] += prob.E[-1] @ a
    x, residual = _solve_kkt(K, rhs.ravel())
    x = x.reshape(N, m)
    control = x[:, u1:lam]
    return OracleResult(control, _cost(W1, x[:, :n], a, prob.R1_bar, control), residual)


def deterministic_leader_oracle(prob: DiscreteLQProblem) -> OracleResult:
    """Exact discrete leader optimum with the follower responding optimally.

    The follower's QP is strictly convex, so its KKT rows (dynamics and
    stationarity in y and u1) characterize its response; as linear
    constraints of the leader's QP over (y, u1, u2, lambda), with multipliers
    (mu, nu, rho), they make the bilevel problem one banded KKT solve.  Its
    convexity check accepts any stationary point of the follower, so the
    follower's own check (follower_kkt) runs first.
    """
    spec = prob.spec
    grid, n, k = spec.grid, spec.dims.n, spec.dims.k
    N, a = grid.steps, spec.xi.a
    W1 = prob.follower_kkt[0]
    W2 = _quadratic_pieces(prob, spec.Q2(grid.nodes), spec.G2)
    # step offsets of (y, u1, u2, lambda, mu, nu, rho)
    y, u1, u2, lam, mu, nu, rho = np.cumsum([0, n, k, k, n, n, n])
    m = 4 * n + 3 * k
    rhs = np.zeros((N, m))
    rhs[-1, mu : mu + n] = prob.E[-1] @ a
    pairs = _follower_rows(prob, W1, y, u1, lam, mu, nu, rho) + [(mu, u2, -prob.F2, 0, 0)]
    terms = [(y, y, W2[:-1], 0, 0), (u2, u2, prob.R2_bar, 0, 0)]
    K = _assemble(m, terms, pairs)
    _require_convex(W2, prob.R2_bar, m, K, 2 * n + k)
    x, residual = _solve_kkt(K, rhs.ravel())
    x = x.reshape(N, m)
    control = x[:, u2:lam]
    cost = _cost(W2, x[:, :n], a, prob.R2_bar, control)
    return OracleResult(control, cost, residual, inner_control=x[:, u1:u2])


def control_rms_gap(oracle_control: np.ndarray, pipeline_control: np.ndarray) -> float:
    """RMS distance between a step-major oracle control (N, k) and the
    pipeline's node control (N+1, k), compared at step midpoints."""
    mid = 0.5 * (pipeline_control[:-1] + pipeline_control[1:])
    return float(np.sqrt(np.mean((oracle_control - mid) ** 2)))


def oracle_report(
    oracle_cost: float, pipeline_cost: float, rms_gap: float, steps: int
) -> dict:
    denom = max(abs(oracle_cost), 1e-12)
    return {
        "oracle_cost": oracle_cost,
        "pipeline_cost": pipeline_cost,
        "rel_gap": abs(pipeline_cost - oracle_cost) / denom,
        "control_rms_gap": rms_gap,
        "N": steps,
    }
