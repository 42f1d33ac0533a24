"""Brute-force optimality oracles, independent of the Riccati machinery.

With a deterministic terminal datum and deterministic controls, the
backward equation degenerates to a terminal-value ODE with z = 0, so
both players' problems collapse to finite-dimensional convex quadratic
programs over piecewise-constant controls.  Those are solved exactly,
each by one banded solve of its KKT system, in which the discrete states
stay unknowns and the one-step dynamics stay equality constraints;
nothing from the feedback pipeline is trusted.  The leader's bilevel
problem is one QP: the follower's KKT rows, which characterize its
response, are linear constraints of the leader's problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LQGameSpec

PSD_TOL = 1e-9


class NonConvexError(RuntimeError):
    """The discrete quadratic cost is not convex (assumption violation)."""

    def __init__(self, min_eig: float):
        self.min_eig = min_eig
        super().__init__(f"discrete cost Hessian not PSD (min eigenvalue {min_eig:.3e})")


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
    def state_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine map (u1, u2) -> node states: y_i = c_i + S_i u1 + T_i u2.

        Controls are flattened step-major; returns c (N+1, n),
        S and T (N+1, n, N*k).  Built once per problem, for both oracles.
        """
        n, k = self.spec.dims.n, self.spec.dims.k
        N = self.spec.grid.steps
        c = np.zeros((N + 1, n))
        S = np.zeros((N + 1, n, N * k))
        T = np.zeros((N + 1, n, N * k))
        c[N] = self.spec.xi.a
        for i in range(N - 1, -1, -1):
            c[i] = self.E[i] @ c[i + 1]
            S[i] = self.E[i] @ S[i + 1]
            T[i] = self.E[i] @ T[i + 1]
            S[i, :, i * k : (i + 1) * k] += self.F1[i]
            T[i, :, i * k : (i + 1) * k] += self.F2[i]
        for shared in (c, S, T):
            shared.setflags(write=False)
        return c, S, T


def build_discrete_problem(spec: LQGameSpec) -> DiscreteLQProblem:
    if not spec.xi.deterministic:
        raise ValueError("discrete oracle requires a deterministic terminal datum (b = 0)")
    n, k = spec.dims.n, spec.dims.k
    grid = spec.grid
    N, dt = grid.steps, grid.dt

    def rate(t):
        # columns: [state basis | unit u1 | unit u2]; y' = -(A y + B1 u1 + B2 u2)
        A = spec.A(t)
        G = np.concatenate([np.zeros((N, n, n)), spec.B1(t), spec.B2(t)], axis=2)
        return lambda M: -(A @ M + G)

    # one RK4 step from t_{i+1} back to t_i on every interval at once
    h = -dt
    t1 = grid.nodes[1:]
    f1, fm, f0 = rate(t1), rate(t1 + 0.5 * h), rate(t1 + h)
    M = np.tile(np.hstack([np.eye(n), np.zeros((n, 2 * k))]), (N, 1, 1))
    k1 = f1(M)
    k2 = fm(M + 0.5 * h * k1)
    k3 = fm(M + 0.5 * h * k2)
    k4 = f0(M + h * k3)
    M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    E, F1, F2 = M[:, :, :n], M[:, :, n : n + k], M[:, :, n + k :]

    R1, R2 = spec.R1(grid.nodes), spec.R2(grid.nodes)
    R1_bar = 0.5 * dt * (R1[:-1] + R1[1:])
    R2_bar = 0.5 * dt * (R2[:-1] + R2[1:])
    return DiscreteLQProblem(spec, E, F1, F2, grid.trapezoid_weights, R1_bar, R2_bar)


def _quadratic_pieces(prob: DiscreteLQProblem, Qs: np.ndarray, G: np.ndarray):
    """Trapezoid state weights + initial weight as one (N+1) stack of matrices."""
    W = prob.node_weights[:, None, None] * Qs
    W[0] += G
    return W


def _convex(H: np.ndarray) -> np.ndarray:
    """The symmetrized Hessian; NonConvexError unless it is positive semidefinite.

    A Cholesky factorization certifies it (it succeeds only when the minimum
    eigenvalue is above -O(n eps |H|), far inside PSD_TOL); only when it fails
    is the minimum eigenvalue computed and held to the tolerance.
    """
    H = 0.5 * (H + H.T)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(H).min())
        if min_eig < -PSD_TOL * max(1.0, float(np.abs(H).max())):
            raise NonConvexError(min_eig) from None
    return H


def _certified(W: np.ndarray, R_bar: np.ndarray) -> bool:
    """True when every node weight W_i is PSD and every step weight R_bar_i is PD:
    then a reduced Hessian S'WS + R_bar is at least R_bar, so it is convex and
    none needs to be formed."""
    if np.linalg.eigvalsh(W).min() < 0.0:
        return False
    try:
        np.linalg.cholesky(R_bar)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class OracleResult:
    """Exact discrete optimum: step-major control array and certified cost."""

    control: np.ndarray  # (N, k)
    cost: float
    gradient_norm: float  # |K x - b| of the KKT system
    inner_control: np.ndarray | None = None  # leader oracle: induced follower control


def _gram(S, W, T):
    """sum_i S_i' W_i T_i over the nodes: one GEMM over the flattened (N+1) n state rows."""
    return S.reshape(-1, S.shape[-1]).T @ (W @ T).reshape(-1, T.shape[-1])


def _hessian(S, W, R_bar):
    """Hessian S'WS + block_diag(R_bar) of a cost over the controls whose node
    states are c + S u; R_bar adds to its N diagonal k x k blocks."""
    N, k = R_bar.shape[:2]
    H = _gram(S, W, S)
    H.reshape(N, k, N, k)[np.arange(N), :, np.arange(N), :] += R_bar
    return H


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


def _solve_kkt(m, terms, pairs, rhs):
    """Solve the block-banded system K x = rhs with m unknowns per step.

    Each (r, c, B, rs, cs) in terms places its blocks as _place does; each in
    pairs also places the transposed blocks at the mirrored position.  Returns
    x and the residual norm |K x - rhs|.
    """
    pairs = pairs + [(c, r, np.swapaxes(B, 1, 2), cs, rs) for r, c, B, rs, cs in pairs]
    rows, cols, vals = (np.concatenate(part) for part in zip(*(_place(m, *t) for t in terms + pairs)))
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
    grid, n, k = spec.grid, spec.dims.n, spec.dims.k
    N, a = grid.steps, spec.xi.a
    W1 = _quadratic_pieces(prob, spec.Q1(grid.nodes), spec.G1)
    if not _certified(W1, prob.R1_bar):
        _convex(_hessian(prob.state_maps[1], W1, prob.R1_bar))
    y, u1, lam, m = 0, n, n + k, 2 * n + k
    u2 = np.asarray(u2, dtype=float).reshape(N, k)
    rhs = np.zeros((N, m))
    rhs[:, lam:] = (prob.F2 @ u2[..., None])[..., 0]
    rhs[-1, lam:] += prob.E[-1] @ a
    x, residual = _solve_kkt(m, _follower_rows(prob, W1, y, u1, lam, lam, y, u1), [], rhs.ravel())
    x = x.reshape(N, m)
    control = x[:, u1:lam]
    return OracleResult(control, _cost(W1, x[:, :n], a, prob.R1_bar, control), residual)


def deterministic_leader_oracle(prob: DiscreteLQProblem) -> OracleResult:
    """Exact discrete leader optimum with the follower responding optimally.

    The follower's QP is strictly convex, so its KKT rows (dynamics and
    stationarity in y and u1) characterize its response; as linear
    constraints of the leader's QP over (y, u1, u2, lambda), with multipliers
    (mu, nu, rho), they make the bilevel problem one banded KKT solve.
    """
    spec = prob.spec
    grid, n, k = spec.grid, spec.dims.n, spec.dims.k
    N, a = grid.steps, spec.xi.a
    W1 = _quadratic_pieces(prob, spec.Q1(grid.nodes), spec.G1)
    W2 = _quadratic_pieces(prob, spec.Q2(grid.nodes), spec.G2)
    if not _certified(W1, prob.R1_bar):
        _convex(_hessian(prob.state_maps[1], W1, prob.R1_bar))
    if not _certified(W2, prob.R2_bar):
        # the reduced map T + S u1_lin of u2, with u1_lin = -H1^-1 sum_i S_i' W1_i T_i
        _, S, T = prob.state_maps
        u1_lin = np.linalg.solve(_hessian(S, W1, prob.R1_bar), -_gram(S, W1, T))
        T_red = T + (S.reshape(-1, S.shape[-1]) @ u1_lin).reshape(T.shape)
        _convex(_hessian(T_red, W2, prob.R2_bar))
    # step offsets of (y, u1, u2, lambda, mu, nu, rho)
    y, u1, u2, lam, mu, nu, rho = np.cumsum([0, n, k, k, n, n, n])
    m = 4 * n + 3 * k
    rhs = np.zeros((N, m))
    rhs[-1, mu : mu + n] = prob.E[-1] @ a
    pairs = _follower_rows(prob, W1, y, u1, lam, mu, nu, rho) + [(mu, u2, -prob.F2, 0, 0)]
    terms = [(y, y, W2[:-1], 0, 0), (u2, u2, prob.R2_bar, 0, 0)]
    x, residual = _solve_kkt(m, terms, pairs, rhs.ravel())
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
