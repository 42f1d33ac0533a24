"""The leader's problem on the stacked 2n-dimensional system.

The leader anticipates the follower's feedback response, which turns the
outer problem into optimal control of a forward-backward pair
(X, (Y, Z)) of doubled dimension.  Two Riccati solutions Pi1, Pi2
decouple it; the optimal trajectories are then reconstructed pathwise
from one auxiliary BSDE (solved by an affine ansatz) and one auxiliary
SDE (Euler-Maruyama), so the terminal condition Y(T) = xi-hat and the
initial coupling X(0) = G2-hat Y(0) hold exactly by construction.
The follower's problem is the same decoupled form at dimension n
(riccati.follower_system), so these kernels serve both levels.
Path arrays are time-major, (N+1, paths, dim), as in the follower module.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .follower import (
    AffineBSDESolution,
    column_labels,
    cost_figures,
    cost_samples,
    follower_kernel,
    follower_paths,
    paths_csv,
    quadratic_expansion,
    solve_affine_bsde,
    stationarity_report,
    stationarity_residual,
    terminal_defect,
)
from .model import (
    AffineControl,
    LQGameSpec,
    TerminalCondition,
    TimeGrid,
)
from .odeint import check_forms_agree, guarded_inv
from .riccati import RiccatiPath, StackedSystem, _tr, pi1_s1_inverse, riccati_chain
from .sampling import MonteCarloConfig, PathBundle, stream_paths


def solve_tilde_phi(sys: StackedSystem, pi1: RiccatiPath) -> AffineBSDESolution:
    """Auxiliary BSDE of a stacked system, terminal value -xi-hat.

    The driver is K phi-tilde - L eta-tilde - forcing_load u with
    K = A1h - Pi1 F1h + (Pi1 B1h - B2h) R^-1 B1h^T
        + (Pi1 D1h - C1h^T)(I + Pi1 S1h)^-1 Pi1 D1h^T,
    L = (Pi1 D1h - C1h^T)(I + Pi1 S1h)^-1 and u the known control.
    """
    A1, B1, B2, C1, D1, F1, _, _ = sys.halves()
    Pi1 = pi1.path.half
    L = (Pi1 @ D1 - _tr(C1)) @ pi1.s1_inverse
    K = A1 - Pi1 @ F1 + (Pi1 @ B1 - B2) @ sys.R_inv @ _tr(B1) + L @ Pi1 @ _tr(D1)
    load, u = sys.forcing_load.half, sys.forcing_control
    g_c, g_l = -load @ u.u_const.half, -load @ u.u_lin.half
    return solve_affine_bsde(K, -L, g_c, g_l, -sys.xih.a, -sys.xih.b, sys.grid)


def _offset_diffusion(C1, D1, Pi1, Pi2, mix, inv_12, inv_21):
    """Diffusion coefficients of the forward offset at every node, as (N+1) stacks.

    Returns (diff_varphi, diff_phi) multiplying the current offset and
    the backward offset; the martingale loading eta-tilde enters through
    mix = (Pi2 - S1h)(I + Pi1 S1h)^-1.  They are assembled from the
    pathwise relations gamma = C1h X + D1h^T Y + mix (Pi1 C1h X
    + Pi1 D1h^T Y + eta), with X, Y expressed through the two offsets, so
    the reconstructed (Y, Z) satisfy the closed-loop backward equation
    without a systematic defect.
    """
    cfac = C1 + mix @ Pi1 @ C1
    dfac = _tr(D1) + mix @ Pi1 @ _tr(D1)
    return cfac @ inv_21 - dfac @ inv_12 @ Pi1, -cfac @ inv_21 @ Pi2 - dfac @ inv_12


def _decoupling_inverses(sys, pi1, pi2):
    """(I + Pi1 S1h)^-1, (I + Pi1 Pi2)^-1 and (I + Pi2 Pi1)^-1, (N+1, dim, dim) node tables."""
    eye = np.eye(sys.dim)
    Pi1, Pi2, nodes = pi1.values, pi2.values, sys.grid.nodes
    return (
        pi1_s1_inverse(Pi1, sys.S1h.values, nodes),
        guarded_inv(eye + Pi1 @ Pi2, nodes, "(I + Pi1 Pi2)"),
        guarded_inv(eye + Pi2 @ Pi1, nodes, "(I + Pi2 Pi1)"),
    )


@dataclass(frozen=True)
class PathKernel:
    """The path layer of one decoupled stacked system, as maps of one augmented state.

    Every path process is affine in zeta = (tilde-varphi, W, 1): the
    auxiliary BSDE's tilde-phi = alpha + eta W and the known control
    u_const + u_lin W live in the W and 1 rows of the kernel's tables.
    step maps zeta_i to the forward offset's drift and diffusion at node i,
    (N+1, dim+2, 2 dim); read_X, read_Y and read_Z map zeta to X, Y and Z,
    (N+1, dim+2, dim) each.  None of them depends on the paths, so one
    kernel serves any number of path chunks (stacked_paths).  step's drift
    and diffusion columns are the tilde-varphi columns of the linear Euler
    recursion zeta_{i+1} = zeta_i (I + A_i dt + C_i dW_i), whose W entry
    steps by dW and whose 1 entry stays.
    """

    sys: StackedSystem
    pi2: RiccatiPath
    tilde_phi: AffineBSDESolution
    step: np.ndarray  # (N+1, dim+2, 2 dim): zeta -> (drift, diffusion) of tilde-varphi
    read_X: np.ndarray  # (N+1, dim+2, dim): zeta -> X
    read_Y: np.ndarray  # (N+1, dim+2, dim): zeta -> Y
    read_Z: np.ndarray  # (N+1, dim+2, dim): zeta -> Z

    @cached_property
    def closed_loop(self) -> tuple[np.ndarray, ...]:
        """(N+1)-node tables (M, F, load) of the closed-loop backward equation of (Y, Z),
        -dY = (M Y + C1h^T Z + F varphi-tilde + forcing_load u) dt - Z dW with
        M = A1h + F2h Pi2 - B2h R^-1 (B1h + Pi2 B2h)^T, F = F2h - B2h R^-1 B2h^T
        and the known control's load forcing_load (u_const + u_lin W) = l W + c
        as its W and 1 rows, load = (l, c), (N+1, 2, dim).  The residual and the
        dual reserve read them."""
        sys, Pi2 = self.sys, self.pi2.values
        B2, F2 = sys.B2h.values, sys.F2h.values
        B2_Rinv = B2 @ sys.R_inv[::2]
        M = sys.A1h.values + F2 @ Pi2 - B2_Rinv @ _tr(sys.B1h.values + Pi2 @ B2)
        u = sys.forcing_control
        load = _affine_rows(sys.forcing_load.values, u.u_const.values, u.u_lin.values)
        return M, F2 - B2_Rinv @ _tr(B2), load


def _affine_rows(K: np.ndarray, const: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """The W and 1 rows, (N+1, 2, rows), of v -> K (const + lin W) as a map of zeta,
    for (N+1, rows, j) tables K and (N+1, j, 1) coefficients."""
    return _tr(np.concatenate([K @ lin, K @ const], axis=2))


def path_kernel(sys: StackedSystem, pi1: RiccatiPath, pi2: RiccatiPath) -> PathKernel:
    """A stacked system's path kernel: the auxiliary BSDE and the four tables on zeta.

    The forward offset's drift follows the decoupled system's display plus
    Pi2 forcing_load u for the known control u, and its diffusion the exact
    pathwise Z-relation (see _offset_diffusion).  X and Y are the two
    decoupling relations of reconstruct_XYZ, and Z's table is composed from
    theirs.  tilde-phi and u are folded into the W and 1 rows here, once;
    the decoupling inverses are formed once, by _decoupling_inverses.
    """
    tilde_phi = solve_tilde_phi(sys, pi1)
    alpha, eta = tilde_phi.alpha.values, tilde_phi.beta.values  # (N+1, dim, 1)
    u = sys.forcing_control
    A1, B1, B2 = sys.A1h.values, sys.B1h.values, sys.B2h.values
    C1, D1, F2 = sys.C1h.values, sys.D1h.values, sys.F2h.values
    Pi1, Pi2, d = pi1.values, pi2.values, sys.dim
    inv_s, inv_12, inv_21 = _decoupling_inverses(sys, pi1, pi2)
    coupler = (D1 + Pi2 @ _tr(C1)) @ inv_s
    mix = (Pi2 - sys.S1h.values) @ inv_s
    drift_mat = (
        _tr(A1) + Pi2 @ F2 - (B1 + Pi2 @ B2) @ sys.R_inv[::2] @ _tr(B2) - coupler @ Pi1 @ C1
    )
    diff_varphi, diff_phi = _offset_diffusion(C1, D1, Pi1, Pi2, mix, inv_12, inv_21)
    step = np.empty((sys.grid.steps + 1, d + 2, 2 * d))
    step[:, :d, :d], step[:, :d, d:] = _tr(drift_mat), _tr(diff_varphi)
    step[:, d:, :d] = _affine_rows(Pi2 @ sys.forcing_load.values, u.u_const.values, u.u_lin.values)
    step[:, d:, d:] = _affine_rows(diff_phi, alpha, eta)
    step[:, -1, :d] -= (coupler @ eta)[:, :, 0]
    step[:, -1, d:] += (mix @ eta)[:, :, 0]
    read_X = np.concatenate([_tr(inv_21), _affine_rows(-inv_21 @ Pi2, alpha, eta)], axis=1)
    read_Y = np.concatenate([-_tr(inv_12 @ Pi1), _affine_rows(-inv_12, alpha, eta)], axis=1)
    # Z = -(I + Pi1 S1h)^-1 (Pi1 C1h X + Pi1 D1h^T Y + eta-tilde)
    gain = inv_s @ Pi1
    read_Z = -(read_X @ _tr(gain @ C1) + read_Y @ _tr(gain @ _tr(D1)))
    read_Z[:, -1] -= (inv_s @ eta)[:, :, 0]
    return PathKernel(sys, pi2, tilde_phi, step, read_X, read_Y, read_Z)


def simulate_tilde_varphi(kernel: PathKernel, bundle: PathBundle) -> np.ndarray:
    """Euler-Maruyama for a stacked system's forward offset, tilde-varphi(0) = 0,
    on the augmented state zeta = (tilde-varphi, W, 1): one matmul with the
    kernel's step table gives each step's drift and diffusion.
    Returns zeta, (N+1, paths, dim + 2)."""
    d, grid = kernel.sys.dim, kernel.sys.grid
    zeta = np.empty((grid.steps + 1, bundle.n_paths, d + 2))
    zeta[0, :, :d] = 0.0
    zeta[:, :, d] = bundle.W
    zeta[:, :, d + 1] = 1.0
    dt, dW = grid.dt, bundle.dW
    for i in range(grid.steps):
        load = zeta[i] @ kernel.step[i]
        zeta[i + 1, :, :d] = zeta[i, :, :d] + load[:, :d] * dt + load[:, d:] * dW[i, :, None]
    return zeta


@dataclass
class LeaderEnsemble:
    """Pathwise stacked solution with named block views.

    X stacks (adjoint-forward offset, forward state), Y stacks
    (adjoint-backward state, follower backward state); the block
    properties expose the n-dimensional components by name.
    """

    kernel: PathKernel
    bundle: PathBundle
    X: np.ndarray  # (N+1, paths, 2n)
    Y: np.ndarray
    Z: np.ndarray
    tilde_varphi: np.ndarray
    u2: np.ndarray = None  # (N+1, paths, k)
    u1: np.ndarray = None
    u1_stacked: np.ndarray = None

    @property
    def grid(self) -> TimeGrid:
        return self.kernel.sys.grid

    @property
    def n(self) -> int:
        return self.kernel.sys.n

    @property
    def phibar(self) -> np.ndarray:
        return self.X[:, :, : self.n]

    @property
    def q(self) -> np.ndarray:
        return self.X[:, :, self.n :]

    @property
    def p(self) -> np.ndarray:
        return self.Y[:, :, : self.n]

    @property
    def ybar(self) -> np.ndarray:
        return self.Y[:, :, self.n :]

    @property
    def zbar(self) -> np.ndarray:
        return self.Z[:, :, self.n :]


def reconstruct_XYZ(kernel: PathKernel, zeta: np.ndarray, bundle: PathBundle) -> LeaderEnsemble:
    """Recover (X, Y, Z) from the augmented state zeta (simulate_tilde_varphi),
    one matmul per process with the kernel's read-out tables:

    X = (I + Pi2 Pi1)^-1 (-Pi2 phi-tilde + varphi-tilde);
    Y = -(I + Pi1 Pi2)^-1 (Pi1 varphi-tilde + phi-tilde);
    Z = -(I + Pi1 S1h)^-1 (Pi1 C1h X + Pi1 D1h^T Y + eta-tilde).

    The ensemble holds a copy of tilde-varphi, not zeta.
    """
    tilde_varphi = np.ascontiguousarray(zeta[:, :, : kernel.sys.dim])
    X, Y, Z = zeta @ kernel.read_X, zeta @ kernel.read_Y, zeta @ kernel.read_Z
    return LeaderEnsemble(kernel, bundle, X, Y, Z, tilde_varphi)


def stacked_paths(kernel: PathKernel, bundle: PathBundle) -> LeaderEnsemble:
    """A decoupled stacked system on a bundle of paths: the Euler forward offset
    and the reconstructed (X, Y, Z).  The one path kernel of both levels."""
    return reconstruct_XYZ(kernel, simulate_tilde_varphi(kernel, bundle), bundle)


def decoupling_consistency(ens: LeaderEnsemble, pi2: RiccatiPath) -> float:
    """Max norm of X - Pi2 Y - varphi-tilde over paths and nodes.

    The reconstruction uses both decoupling relations; their mutual
    consistency is the sanity check of the whole leader solve.
    """
    gap = ens.Y @ _tr(pi2.values)
    np.subtract(ens.X, gap, out=gap)
    gap -= ens.tilde_varphi
    return float(np.max(np.abs(gap), initial=0.0))


def leader_feedback(sys: StackedSystem, pi2: RiccatiPath, ens: LeaderEnsemble) -> np.ndarray:
    """Feedback control u = -R^-1 (B1h + Pi2 B2h)^T Y - R^-1 B2h^T varphi-tilde."""
    Rinv, B2 = sys.R_inv[::2], sys.B2h.values
    u = ens.Y @ -_tr(Rinv @ _tr(sys.B1h.values + pi2.values @ B2))
    u -= ens.tilde_varphi @ _tr(Rinv @ _tr(B2))
    return u


def equilibrium_follower_control(
    spec: LQGameSpec, p2: RiccatiPath, pi2: RiccatiPath, ens: LeaderEnsemble
) -> np.ndarray:
    """The follower's control along the leader-optimal trajectory.

    Stacked form: u1 = -R1^-1 B1^T [(0, P2) + (I, 0) Pi2] Y
                       - R1^-1 B1^T (I, 0) varphi-tilde;
    block form: -R1^-1 B1^T (P2 ybar + phibar).  The two are equal
    through X = Pi2 Y + varphi-tilde; both are computed and compared.
    """
    n = spec.dims.n
    stacked = pi2.values[:, :n].copy()  # (0, P2) + (I, 0) Pi2 at every node
    stacked[:, :, n:] += p2.values
    gains = spec.R1_inv[::2] @ _tr(spec.B1.values)
    gain_t = _tr(gains)
    u1 = ens.Y @ -_tr(gains @ stacked)
    u1 -= ens.tilde_varphi[:, :, :n] @ gain_t
    u1_blk = ens.ybar @ -_tr(gains @ p2.values)
    u1_blk -= ens.phibar @ gain_t
    check_forms_agree(u1, u1_blk, "stacked/block follower control forms")
    ens.u1, ens.u1_stacked = u1_blk, u1
    return u1


def leader_cost(spec: LQGameSpec, ens: LeaderEnsemble) -> np.ndarray:
    """The leader's per-path cost J2 along the ensemble (cost_samples)."""
    return cost_samples(spec.grid, ens.ybar, ens.u2, ens.zbar, spec.Q2, spec.R2, spec.S2, spec.G2)


def equilibrium_follower_cost(spec: LQGameSpec, ens: LeaderEnsemble) -> np.ndarray:
    """The follower's per-path cost J1 along the equilibrium (cost_samples)."""
    return cost_samples(spec.grid, ens.ybar, ens.u1, ens.zbar, spec.Q1, spec.R1, spec.S1, spec.G1)


def equilibrium_follower_stationarity(
    spec: LQGameSpec, p2: RiccatiPath, ens: LeaderEnsemble
) -> float:
    """The follower's algebraic stationarity residual along the equilibrium,
    where its adjoint state is x = P2 ybar + phibar."""
    return stationarity_residual(spec, ens.ybar @ _tr(p2.values) + ens.phibar, ens.u1)


def bsde_residual_samples(ens: LeaderEnsemble) -> tuple[np.ndarray, float]:
    """Discrete residual of the closed-loop BSDE for (Y, Z) on the ensemble's paths.

    r_i = Y_{i+1} - Y_i + drift_i dt - Z_i dW_i per path and step, with the
    drift at the left node (the kernel's closed_loop tables); returns each
    path's accumulated squared residual sum_i ||r_i||^2 and the max
    single-step residual.
    """
    sys, W = ens.kernel.sys, ens.bundle.W[:-1]
    M, F, load = ens.kernel.closed_loop
    drift = ens.Y[:-1] @ _tr(M[:-1])
    drift += ens.Z[:-1] @ sys.C1h.values[:-1]
    drift += ens.tilde_varphi[:-1] @ _tr(F[:-1])
    drift += np.stack([W, np.ones_like(W)], axis=2) @ load[:-1]  # (W, 1) @ (l, c)
    drift *= sys.grid.dt
    resid = ens.Y[1:] - ens.Y[:-1]
    resid += drift
    resid -= ens.Z[:-1] * ens.bundle.dW[:, :, None]
    return np.einsum("ipj,ipj->p", resid, resid), float(np.max(np.abs(resid)))


def residual_rms(accumulated: np.ndarray) -> float:
    """RMS over paths of the accumulated squared residuals of bsde_residual_samples,
    which scales like O(dt) for a consistent first-order scheme."""
    return float(np.sqrt(np.mean(accumulated)))


@dataclass
class StackelbergSolution:
    """An equilibrium solve: its deterministic layer and the ensemble of its paths.

    equilibrium_layer fills everything but the ensemble; equilibrium_paths
    adds the ensemble of one bundle of paths, a whole solve's or one chunk's.
    """

    spec: LQGameSpec
    p1: RiccatiPath
    p2: RiccatiPath
    system: StackedSystem
    pi1: RiccatiPath
    pi2: RiccatiPath
    kernel: PathKernel  # the leader's path kernel
    ensemble: LeaderEnsemble | None = None

    @property
    def tilde_phi(self) -> AffineBSDESolution:
        return self.kernel.tilde_phi


def equilibrium_layer(spec: LQGameSpec) -> StackelbergSolution:
    """The deterministic layer of an equilibrium solve: P1, P2, the stacked
    system, Pi1, Pi2 (riccati_chain) and the leader's path kernel."""
    p1, p2, sys, pi1, pi2 = riccati_chain(spec)
    return StackelbergSolution(spec, p1, p2, sys, pi1, pi2, path_kernel(sys, pi1, pi2))


def equilibrium_paths(sol: StackelbergSolution, bundle: PathBundle) -> StackelbergSolution:
    """sol with the ensemble of a bundle of paths: the leader's path kernel and
    both equilibrium controls; the costs are left to the caller."""
    ens = stacked_paths(sol.kernel, bundle)
    ens.u2 = leader_feedback(sol.system, sol.pi2, ens)
    equilibrium_follower_control(sol.spec, sol.p2, sol.pi2, ens)
    return dataclasses.replace(sol, ensemble=ens)


def _zero_terminal(spec: LQGameSpec) -> LQGameSpec:
    xi0 = TerminalCondition(np.zeros(spec.dims.n), np.zeros(spec.dims.n))
    return dataclasses.replace(spec, xi=xi0)


def response_kernel(
    spec: LQGameSpec, p1: RiccatiPath, p2: RiccatiPath, v: AffineControl
) -> PathKernel:
    """The path kernel of the follower's optimal-response derivative in direction v.

    The response map (u2, xi) -> (y, z) is jointly affine, so the
    derivative is the follower's state for control v with zero terminal
    datum, on the same Brownian paths.
    """
    return follower_kernel(_zero_terminal(spec), p1, p2, v)


def leader_stationarity_samples(sol: StackelbergSolution, response: PathKernel) -> dict:
    """First-order optimality of the leader's feedback control on sol's ensemble,
    for the direction of the response kernel (response_kernel), as samples that
    stationarity_report reduces.

    Algebraic part: max ||B1h^T Y + B2h^T X + R2 u2|| over nodes and
    paths (zero when Pi2 is symmetric).  Variational part: the bilevel
    cost is quadratic in u2 once the follower's optimal response is
    followed through the affine response map, so
    J2(u2 + eps v) = J2(u2) + eps slope + eps^2 curvature exactly under
    common random numbers; per path, the cross term, whose mean is the
    extrapolated, eps -> 0, directional derivative.
    """
    spec, sys, ens = sol.spec, sol.system, sol.ensemble
    r = ens.Y @ sys.B1h.values
    r += ens.X @ sys.B2h.values
    r += ens.u2 @ _tr(spec.R2.values)
    worst = float(np.max(np.abs(r), initial=0.0))
    delta = follower_paths(response, ens.bundle)
    cross = quadratic_expansion(
        spec.grid, (ens.ybar, ens.u2, ens.zbar), (delta.y, delta.u2, delta.z),
        spec.Q2, spec.R2, spec.S2, spec.G2,
    )
    return {"algebraic_residual": worst, "extrapolated_slope": cross}


def initial_coupling_defect(sys: StackedSystem, ens: LeaderEnsemble) -> float:
    """Max over paths of ||X(0) - G2-hat Y(0)||, exact up to roundoff."""
    return float(np.max(np.abs(ens.X[0] - ens.Y[0] @ sys.G2h.T), initial=0.0))


def leader_paths_csv(ens: LeaderEnsemble, max_paths: int | None = None) -> str:
    """Per-path CSV with block-named columns, 17 significant digits (paths_csv)."""
    n, k = ens.n, ens.u2.shape[2]
    # X stacks (phibar, q), Y stacks (p, ybar) and Z stacks (k, zbar)
    header = [c for pre in ("phibar", "q", "p", "ybar", "k", "zbar") for c in column_labels(pre, n)]
    header += column_labels("u1", k) + column_labels("u2", k)
    blocks = [ens.X, ens.Y, ens.Z, ens.u1, ens.u2]
    return paths_csv(ens.grid.nodes, header, blocks, max_paths, ens.bundle.first)


def equilibrium_summary(
    spec: LQGameSpec, mc: MonteCarloConfig, v: AffineControl, csv_paths: int = 0
) -> tuple[dict, str]:
    """The equilibrium's figures on mc's paths, keyed as the CLI's summary, and
    the CSV of the first csv_paths paths, streamed in path chunks (stream_paths).

    The deterministic layer and the response kernel of the stationarity
    direction v are formed once; each chunk runs the path kernel, both
    controls and costs, the residual, both stationarity checks and the
    structural defects.
    """
    sol = equilibrium_layer(spec)
    response = response_kernel(spec, sol.p1, sol.p2, v)

    def chunk(bundle: PathBundle) -> dict:
        chunk_sol = equilibrium_paths(sol, bundle)
        ens = chunk_sol.ensemble
        residual, residual_max = bsde_residual_samples(ens)
        return {
            "J1": equilibrium_follower_cost(spec, ens),
            "J2": leader_cost(spec, ens),
            **leader_stationarity_samples(chunk_sol, response),
            "follower": equilibrium_follower_stationarity(spec, sol.p2, ens),
            "terminal_error_max": terminal_defect(sol.system.xih, ens.Y, bundle.W),
            "initial_coupling_max": initial_coupling_defect(sol.system, ens),
            "decoupling_consistency_max": decoupling_consistency(ens, sol.pi2),
            "residual": residual,
            "bsde_residual_max": residual_max,
            "csv": leader_paths_csv(ens, csv_paths),
        }

    merged = stream_paths(spec.grid, mc, sol.system.dim, chunk)
    stat = stationarity_report(merged)
    summary = {
        "J1": cost_figures(merged["J1"]),
        "J2": cost_figures(merged["J2"]),
        "stationarity": {
            "follower": merged["follower"],
            "leader": stat["algebraic_residual"],
            "leader_extrapolated_slope": stat["extrapolated_slope"],
        },
        "terminal_error_max": merged["terminal_error_max"],
        "initial_coupling_max": merged["initial_coupling_max"],
        "decoupling_consistency_max": merged["decoupling_consistency_max"],
        "bsde_residual_rms": residual_rms(merged["residual"]),
        "bsde_residual_max": merged["bsde_residual_max"],
    }
    return summary, merged["csv"]
