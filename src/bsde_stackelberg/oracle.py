"""Brute-force optimality oracles, independent of the Riccati machinery.

With a deterministic terminal datum and deterministic controls, the
backward equation degenerates to a terminal-value ODE with z = 0, so
both players' problems collapse to finite-dimensional convex quadratic
programs over piecewise-constant controls.  Those are solved exactly by
normal equations; nothing from the feedback pipeline is trusted.  The
leader oracle nests the follower's exact argmin, which is affine in the
leader's control, so the outer problem is again an exact QP.
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


def _solve_qp(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    H = _convex(H)
    u = np.linalg.solve(H, -g)
    grad = float(np.linalg.norm(H @ u + g))
    return u, grad


@dataclass(frozen=True)
class OracleResult:
    """Exact discrete optimum: step-major control array and certified cost."""

    control: np.ndarray  # (N, k)
    cost: float
    gradient_norm: float
    inner_control: np.ndarray | None = None  # leader oracle: induced follower control


def _gram(S, W, T):
    """sum_i S_i' W_i T_i over the nodes: one GEMM over the flattened (N+1) n state rows."""
    return S.reshape(-1, S.shape[-1]).T @ (W @ T).reshape(-1, T.shape[-1])


def _affine(c0, S, u):
    """Node states c0 + S u of a flattened control u; c0 is (N+1, n) or (N+1, n, q)."""
    return c0 + (S.reshape(-1, S.shape[-1]) @ u).reshape(c0.shape)


def _cost_terms(W, c, S, R_bar):
    """H, g, const of 0.5 u'Hu + g'u + const for one player's cost with state
    weights W: H is S'WS plus R_bar on its N diagonal k x k blocks."""
    N, k = R_bar.shape[:2]
    H = _gram(S, W, S)
    H.reshape(N, k, N, k)[np.arange(N), :, np.arange(N), :] += R_bar
    g = _gram(S, W, c[..., None])[:, 0]
    const = 0.5 * float(np.einsum("in,inp,ip->", c, W, c, optimize=True))
    return H, g, const


def deterministic_follower_oracle(prob: DiscreteLQProblem, u2: np.ndarray) -> OracleResult:
    """Exact discrete follower optimum for a fixed piecewise-constant u2.

    u2 has shape (N, k); returns the minimizing u1 and its cost.
    """
    spec = prob.spec
    grid = spec.grid
    c0, S, T = prob.state_maps
    u2 = np.asarray(u2, dtype=float).reshape(grid.steps * spec.dims.k)
    W1 = _quadratic_pieces(prob, spec.Q1(grid.nodes), spec.G1)
    H, g, const = _cost_terms(W1, _affine(c0, T, u2), S, prob.R1_bar)
    u, grad = _solve_qp(H, g)
    cost = 0.5 * float(u @ H @ u) + float(g @ u) + const
    return OracleResult(u.reshape(grid.steps, spec.dims.k), cost, grad)


def deterministic_leader_oracle(prob: DiscreteLQProblem) -> OracleResult:
    """Exact discrete leader optimum with the follower responding optimally.

    The inner argmin u1*(u2) = -H1^-1 (g1 + B12 u2) is affine, so the
    bilevel cost is an exact quadratic in u2; both solves are direct.
    """
    spec = prob.spec
    grid = spec.grid
    N, k = grid.steps, spec.dims.k
    c0, S, T = prob.state_maps

    # follower optimum as an affine function of u2
    W1 = _quadratic_pieces(prob, spec.Q1(grid.nodes), spec.G1)
    H1, g1_const, _ = _cost_terms(W1, c0, S, prob.R1_bar)
    H1 = _convex(H1)
    g1_lin = _gram(S, W1, T)
    u1_affine = np.linalg.solve(H1, -np.column_stack([g1_const, g1_lin]))  # one factorization
    u1_const, u1_lin = u1_affine[:, 0], u1_affine[:, 1:]

    # reduced state map: y = (c0 + S u1_const) + (T + S u1_lin) u2
    W2 = _quadratic_pieces(prob, spec.Q2(grid.nodes), spec.G2)
    H2, g2, const2 = _cost_terms(W2, _affine(c0, S, u1_const), _affine(T, S, u1_lin), prob.R2_bar)
    u2, grad = _solve_qp(H2, g2)
    cost = 0.5 * float(u2 @ H2 @ u2) + float(g2 @ u2) + const2
    u1 = u1_const + u1_lin @ u2
    return OracleResult(u2.reshape(N, k), cost, grad, inner_control=u1.reshape(N, k))


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
