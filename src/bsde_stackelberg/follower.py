"""The follower's problem for a given terminal datum and leader control.

The linear BSDE for (phi, eta) is closed exactly by the affine ansatz
phi = alpha(t) + beta(t) W(t), eta = beta(t), valid because coefficients
are deterministic, the terminal datum is affine in W(T) and the leader
control is affine in W(t).  That reduces every BSDE here to a pair of
terminal-value ODEs; the only sampling error left is the Euler scheme
for the auxiliary SDE and the decoupled state reconstruction is exact
pathwise at the terminal and initial nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import AffineControl, CoefficientPath, LQGameSpec, TerminalCondition, TimeGrid
from .odeint import OdeDirection, guarded_inv, integrate_matrix_ode
from .oracle import directional_slopes
from .riccati import RiccatiPath, _tr, p1_s1_inverse
from .sampling import MonteCarloConfig, PathBundle, sample_brownian


@dataclass(frozen=True)
class AffineBSDESolution:
    """Solution phi(t) = alpha(t) + beta(t) W(t), eta(t) = beta(t)."""

    alpha: CoefficientPath  # m x 1
    beta: CoefficientPath  # m x 1

    def phi_pathwise(self, W: np.ndarray) -> np.ndarray:
        """(paths, N+1, m) values of phi along Brownian paths."""
        a = self.alpha.values[:, :, 0]  # (N+1, m)
        b = self.beta.values[:, :, 0]
        return a[None] + W[:, :, None] * b[None]

    @property
    def eta_values(self) -> np.ndarray:
        """(N+1, m) deterministic eta trajectory."""
        return self.beta.values[:, :, 0]


def solve_affine_bsde(
    drift_lin: np.ndarray,
    drift_eta: np.ndarray,
    forcing_const: np.ndarray,
    forcing_lin: np.ndarray,
    terminal_const: np.ndarray,
    terminal_lin: np.ndarray,
    grid: TimeGrid,
) -> AffineBSDESolution:
    """Reduce -d(phi) = [M phi + N eta + g(t, W)] dt - eta dW to ODEs.

    With g = g_c(t) + g_l(t) W(t) and phi = alpha + beta W, matching the
    dW and dt parts gives beta' = -M beta - g_l and
    alpha' = -M alpha - N beta - g_c, integrated backward from the
    terminal values by RK4.  M, N (m x m) and g_c, g_l (m x 1) are given
    as (2N+1)-sample tables at the RK4 half steps.
    """
    term_c = np.asarray(terminal_const, dtype=float).reshape(-1, 1)
    term_l = np.asarray(terminal_lin, dtype=float).reshape(-1, 1)

    def field(j, Y):
        alpha, beta = Y[:, :1], Y[:, 1:]
        M = drift_lin[j]
        dalpha = -M @ alpha - drift_eta[j] @ beta - forcing_const[j]
        dbeta = -M @ beta - forcing_lin[j]
        return np.hstack([dalpha, dbeta])

    terminal = np.hstack([term_c, term_l])
    combined = integrate_matrix_ode(field, terminal, grid, OdeDirection.BACKWARD)
    return AffineBSDESolution(
        CoefficientPath(grid, combined.values[:, :, :1]),
        CoefficientPath(grid, combined.values[:, :, 1:]),
    )


def solve_phi_eta(spec: LQGameSpec, p1: RiccatiPath, u2: AffineControl) -> AffineBSDESolution:
    """Auxiliary BSDE of the follower, terminal phi(T) = -xi."""
    P1, B2 = p1.path.half, spec.B2.half
    M = spec.A.half - P1 @ spec.Q1.half
    N = spec.C.half @ p1_s1_inverse(P1, spec.S1.half, spec.grid.half_times)
    g_c = -B2 @ u2.u_const.half
    g_l = -B2 @ u2.u_lin.half
    return solve_affine_bsde(M, N, g_c, g_l, -spec.xi.a, -spec.xi.b, spec.grid)


def p2_p1_inverse(p1: RiccatiPath, p2: RiccatiPath) -> np.ndarray:
    """(N+1, n, n) node table of (I + P2 P1)^-1."""
    P1, P2 = p1.values, p2.values
    return guarded_inv(np.eye(P1.shape[-1]) + P2 @ P1, p1.path.grid.nodes, "(I + P2 P1)")


def _u2_pathwise(u2: AffineControl, W: np.ndarray) -> np.ndarray:
    """(paths, N+1, k) leader control values along paths."""
    uc = u2.u_const.values[:, :, 0]
    ul = u2.u_lin.values[:, :, 0]
    return uc[None] + W[:, :, None] * ul[None]


def simulate_varphi(
    spec: LQGameSpec,
    p1: RiccatiPath,
    p2: RiccatiPath,
    phieta: AffineBSDESolution,
    u2: AffineControl,
    bundle: PathBundle,
) -> np.ndarray:
    """Euler-Maruyama for the adjoint-offset SDE, varphi(0) = 0.

    Returns (paths, N+1, n).  Drift and diffusion matrices are assembled
    at the left node of each step; phi and eta enter through the affine
    representation evaluated on the same Brownian paths.
    """
    n = spec.dims.n
    grid = spec.grid
    N = grid.steps

    phi = phieta.phi_pathwise(bundle.W)
    eta = phieta.eta_values[:, :, None]
    u2p = _u2_pathwise(u2, bundle.W)

    A, B2, C, S1 = spec.A.values, spec.B2.values, spec.C.values, spec.S1.values
    P1, P2 = p1.values, p2.values
    Ct = _tr(C)
    inv1 = p1_s1_inverse(P1, S1, grid.nodes)
    drift_mat = -P2 @ spec.B1_R1inv_B1T[::2] - P2 @ C @ inv1 @ P1 @ Ct + _tr(A)
    drift_u2 = P2 @ B2
    drift_eta = (P2 @ C @ inv1 @ eta)[:, :, 0]
    diff_mat = (P1 @ P2 + np.eye(n)) @ inv1 @ Ct @ p2_p1_inverse(p1, p2)
    diff_phi = diff_mat @ P2
    diff_eta = ((P2 - S1) @ inv1 @ eta)[:, :, 0]

    P = bundle.n_paths
    varphi = np.zeros((P, N + 1, n))
    dt = grid.dt
    for i in range(N):
        drift = varphi[:, i] @ drift_mat[i].T + u2p[:, i] @ drift_u2[i].T - drift_eta[i][None]
        diffusion = varphi[:, i] @ diff_mat[i].T - phi[:, i] @ diff_phi[i].T + diff_eta[i][None]
        varphi[:, i + 1] = varphi[:, i] + drift * dt + diffusion * bundle.dW[:, i, None]
    return varphi


@dataclass
class FollowerEnsemble:
    """Pathwise follower solution on a Brownian ensemble.

    Arrays are (paths, N+1, dim): x is the adjoint state, (y, z) the
    backward state pair, u1 the feedback control and u1_adjoint its
    algebraically equal adjoint representation.
    """

    grid: TimeGrid
    bundle: PathBundle
    varphi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u1: np.ndarray = None
    u1_adjoint: np.ndarray = None
    u2: np.ndarray = None
    J1: tuple[float, float] = None

    @property
    def seed(self) -> int:
        return self.bundle.seed


def reconstruct_follower_state(
    spec: LQGameSpec,
    p1: RiccatiPath,
    p2: RiccatiPath,
    phieta: AffineBSDESolution,
    varphi: np.ndarray,
    bundle: PathBundle,
) -> FollowerEnsemble:
    """Recover (x, y, z) pathwise from the decoupling relations.

    x = (I + P2 P1)^-1 (varphi - P2 phi); y = -P1 x - phi;
    z = -(P1 S1 + I)^-1 (P1 C^T x + eta).  The terminal identity
    y(T) = xi and the initial coupling x(0) = G1 y(0) hold exactly.
    """
    grid = spec.grid
    phi = phieta.phi_pathwise(bundle.W)
    eta = phieta.eta_values[:, :, None]
    P1, P2 = p1.values, p2.values
    inv1 = p1_s1_inverse(P1, spec.S1.values, grid.nodes)
    inv2 = p2_p1_inverse(p1, p2)
    x_phi = inv2 @ P2
    z_x = inv1 @ P1 @ _tr(spec.C.values)
    z_eta = (inv1 @ eta)[:, :, 0]

    x = np.empty_like(phi)
    y = np.empty_like(phi)
    z = np.empty_like(phi)
    for i in range(grid.steps + 1):
        x[:, i] = varphi[:, i] @ inv2[i].T - phi[:, i] @ x_phi[i].T
        y[:, i] = -x[:, i] @ P1[i].T - phi[:, i]
        z[:, i] = -x[:, i] @ z_x[i].T - z_eta[i][None]
    return FollowerEnsemble(grid, bundle, varphi, x, y, z)


def follower_feedback(spec: LQGameSpec, p2: RiccatiPath, ens: FollowerEnsemble) -> np.ndarray:
    """Feedback control u1 = -R1^-1 B1^T (P2 y + varphi), stored on the ensemble.

    The adjoint representation -R1^-1 B1^T x is computed alongside; the
    two agree to roundoff through the identity x = P2 y + varphi.
    """
    grid = spec.grid
    P = ens.y.shape[0]
    u1 = np.empty((P, grid.steps + 1, spec.dims.k))
    u1_adj = np.empty_like(u1)
    gain = spec.R1_inv[::2] @ _tr(spec.B1.values)
    for i in range(grid.steps + 1):
        u1[:, i] = -(ens.y[:, i] @ p2.values[i].T + ens.varphi[:, i]) @ gain[i].T
        u1_adj[:, i] = -ens.x[:, i] @ gain[i].T
    gap = float(np.max(np.abs(u1 - u1_adj), initial=0.0))
    if gap > 1e-10 * max(1.0, float(np.max(np.abs(u1), initial=0.0))):
        raise AssertionError(f"feedback/adjoint control forms disagree by {gap:.3e}")
    ens.u1, ens.u1_adjoint = u1, u1_adj
    return u1


def quadratic_cost(
    grid: TimeGrid,
    y: np.ndarray,
    u: np.ndarray,
    z: np.ndarray,
    Q: CoefficientPath,
    R: CoefficientPath,
    S: CoefficientPath,
    G: np.ndarray,
) -> tuple[float, float]:
    """0.5 E{ int (y'Qy + u'Ru + z'Sz) dt + y(0)'G y(0) }, trapezoidal in time.

    Returns (mean, standard error) over the path ensemble.
    """
    integrand = (
        np.einsum("pij,ijk,pik->pi", y, Q.values, y, optimize=True)
        + np.einsum("pij,ijk,pik->pi", u, R.values, u, optimize=True)
        + np.einsum("pij,ijk,pik->pi", z, S.values, z, optimize=True)
    )
    time_integral = np.trapezoid(integrand, dx=grid.dt, axis=1)
    initial = np.einsum("pj,jk,pk->p", y[:, 0], G, y[:, 0])
    per_path = 0.5 * (time_integral + initial)
    mean = float(per_path.mean())
    n_paths = per_path.shape[0]
    stderr = float(per_path.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return mean, stderr


def follower_cost(spec: LQGameSpec, ens: FollowerEnsemble) -> tuple[float, float]:
    ens.J1 = quadratic_cost(spec.grid, ens.y, ens.u1, ens.z, spec.Q1, spec.R1, spec.S1, spec.G1)
    return ens.J1


def follower_pipeline(
    spec: LQGameSpec,
    p1: RiccatiPath,
    p2: RiccatiPath,
    u2: AffineControl,
    mc: MonteCarloConfig | None = None,
    bundle: PathBundle | None = None,
) -> FollowerEnsemble:
    """Full follower solve for an exogenous affine leader control."""
    if bundle is None:
        mc = mc or MonteCarloConfig()
        bundle = sample_brownian(spec.grid, mc.paths, mc.seed)
    phieta = solve_phi_eta(spec, p1, u2)
    varphi = simulate_varphi(spec, p1, p2, phieta, u2, bundle)
    ens = reconstruct_follower_state(spec, p1, p2, phieta, varphi, bundle)
    ens.u2 = _u2_pathwise(u2, bundle.W)
    follower_feedback(spec, p2, ens)
    follower_cost(spec, ens)
    return ens


def closed_loop_residual(
    spec: LQGameSpec, p2: RiccatiPath, ens: FollowerEnsemble
) -> tuple[float, float]:
    """Discrete residual of the closed-loop BSDE for (y, z).

    r_i = y_{i+1} - y_i + drift_i dt - z_i dW_i per path and step; the
    reported RMS is the root-mean over paths of the accumulated
    squared residual sum_i ||r_i||^2, which scales like O(dt) for a
    consistent first-order scheme.  Also returns the max single-step
    residual.
    """
    A, B2, C = spec.A.values, spec.B2.values, spec.C.values
    gain = spec.B1_R1inv_B1T[::2]

    def drift(i):
        return (
            ens.y[:, i] @ (A[i] - gain[i] @ p2.values[i]).T
            - ens.varphi[:, i] @ gain[i].T
            + ens.u2[:, i] @ B2[i].T
            + ens.z[:, i] @ C[i].T
        )

    return _accumulated_residual(spec.grid, ens.y, ens.z, ens.bundle.dW, drift)


def _accumulated_residual(
    grid: TimeGrid,
    y: np.ndarray,
    z: np.ndarray,
    dW: np.ndarray,
    drift: Callable[[int], np.ndarray],
) -> tuple[float, float]:
    """RMS over paths of sum_i ||r_i||^2 and max |r_i| for a backward pair (y, z).

    r_i = y_{i+1} - y_i + drift(i) dt - z_i dW_i, with drift(i) the
    (paths, m) closed-loop drift at the left node of step i.
    """
    resid = np.stack(
        [
            y[:, i + 1] - y[:, i] + drift(i) * grid.dt - z[:, i] * dW[:, i, None]
            for i in range(grid.steps)
        ],
        axis=1,
    )
    accumulated = np.sum(resid**2, axis=(1, 2))
    return float(np.sqrt(np.mean(accumulated))), float(np.max(np.abs(resid)))


def perturbed_follower_cost(
    spec: LQGameSpec,
    ens: FollowerEnsemble,
    v: AffineControl,
    eps: float,
) -> float:
    """J1 at control u1 + eps*v, same paths (common random numbers).

    The state perturbation solves the homogeneous BSDE with forcing
    B1 v and zero terminal value, closed by the affine ansatz, so the
    perturbed trajectories are exact in the direction of v.
    """
    delta = solve_affine_bsde(
        spec.A.half,
        spec.C.half,
        spec.B1.half @ v.u_const.half,
        spec.B1.half @ v.u_lin.half,
        np.zeros(spec.dims.n),
        np.zeros(spec.dims.n),
        spec.grid,
    )
    # -d(dy) = [A dy + C dz + B1 v] dt - dz dW has solution dy = alpha + beta W
    dy = delta.phi_pathwise(ens.bundle.W)
    dz = np.broadcast_to(delta.eta_values[None], dy.shape)
    dv = _u2_pathwise(v, ens.bundle.W)
    mean, _ = quadratic_cost(
        spec.grid,
        ens.y + eps * dy,
        ens.u1 + eps * dv,
        ens.z + eps * dz,
        spec.Q1,
        spec.R1,
        spec.S1,
        spec.G1,
    )
    return mean


def check_follower_stationarity(
    spec: LQGameSpec,
    ens: FollowerEnsemble,
    v: AffineControl,
    eps_list: tuple[float, ...] = (1e-2, 1e-3),
) -> dict:
    """First-order optimality of the computed feedback control.

    Algebraic part: max ||B1^T x + R1 u1|| over nodes and paths (zero by
    construction).  Variational part: directional derivatives
    [J1(u1 + eps v) - J1(u1)] / eps under common random numbers, plus
    the Richardson-extrapolated limit (exact for a quadratic cost).
    """
    slopes, extrapolated = directional_slopes(
        lambda eps: perturbed_follower_cost(spec, ens, v, eps), ens.J1[0], eps_list
    )
    return {
        "algebraic_residual": stationarity_residual(spec, ens.x, ens.u1),
        "slopes": slopes,
        "extrapolated_slope": extrapolated,
    }


def stationarity_residual(spec: LQGameSpec, x: np.ndarray, u1: np.ndarray) -> float:
    """Max |x B1 + u1 R1^T| over nodes and paths: the follower's algebraic
    first-order condition for adjoint states x and controls u1, both
    (paths, N+1, dim)."""
    r = x.swapaxes(0, 1) @ spec.B1.values + u1.swapaxes(0, 1) @ _tr(spec.R1.values)
    return float(np.max(np.abs(r), initial=0.0))


def follower_paths_csv(ens: FollowerEnsemble, max_paths: int | None = None) -> str:
    """Per-path CSV: path,t,y_*,z_*,u1_*,x_* with 17 significant digits."""
    n, k = ens.y.shape[2], ens.u1.shape[2]
    header = column_labels("y", n) + column_labels("z", n, "1")
    header += column_labels("u1", k) + column_labels("x", n)
    return paths_csv(ens.grid.nodes, header, [ens.y, ens.z, ens.u1, ens.x], max_paths)


def column_labels(prefix: str, count: int, suffix: str = "") -> list[str]:
    """CSV column names prefix_1suffix, ..., prefix_<count>suffix."""
    return [f"{prefix}_{j + 1}{suffix}" for j in range(count)]


def paths_csv(
    nodes: np.ndarray, header: list[str], blocks: list[np.ndarray], max_paths: int | None = None
) -> str:
    """Per-path CSV 'path,t,<header>' at the grid nodes, 17 significant digits.

    blocks are (paths, N+1) or (paths, N+1, cols) arrays whose columns,
    concatenated in order, match header; at most max_paths paths are listed.
    """
    count = blocks[0].shape[0] if max_paths is None else min(max_paths, blocks[0].shape[0])
    data = np.concatenate([np.atleast_3d(b[:count]) for b in blocks], axis=2)
    lines = ["path,t," + ",".join(header)]
    for p in range(count):
        for t, row in zip(nodes, data[p].tolist()):
            lines.append(f"{p},{t:.17g}," + ",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"
