"""The leader's problem on the stacked 2n-dimensional system.

The leader anticipates the follower's feedback response, which turns the
outer problem into optimal control of a forward-backward pair
(X, (Y, Z)) of doubled dimension.  Two Riccati solutions Pi1, Pi2
decouple it, and the stacked path layer (stacked.path_kernel,
stacked.stacked_paths) reconstructs the optimal trajectories pathwise,
as it does for the follower's problem at dimension n.  This module adds
what only the leader has: the equilibrium solve's deterministic layer,
the follower's control and cost along the equilibrium, the leader's
cost and stationarity slope through the follower's response, the
block-named CSV and the summary of the equilibrium command.  The
deterministic layer also checks the structural identities once, on the
kernel's tables (stacked.structural_defects), together with the two
forms of the follower's control and its algebraic condition along the
equilibrium; a chunk of paths forms each control with one matmul and
checks nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .follower import follower_kernel
from .model import AffineControl, LQGameSpec, TerminalCondition
from .odeint import check_forms_agree
from .riccati import RiccatiPath, StackedSystem, _tr, riccati_chain
from .sampling import MonteCarloConfig, PathBundle, stream_paths
from .stacked import (
    AffineBSDESolution,
    PathKernel,
    StackedEnsemble,
    _u2_pathwise,
    bsde_residual_samples,
    column_labels,
    cost_figures,
    cost_samples,
    path_kernel,
    paths_csv,
    quadratic_expansion,
    reachable_max,
    residual_rms,
    stacked_paths,
    structural_defects,
)


def follower_control_table(
    spec: LQGameSpec, p2: RiccatiPath, kernel: PathKernel
) -> tuple[np.ndarray, float]:
    """The follower's control along the equilibrium as a table on the leader's
    zeta, u1 = zeta read_u1, and the max of its algebraic condition there.

    Block form: u1 = -R1^-1 B1^T x with the follower's adjoint state
    x = P2 ybar + phibar; stacked form: -R1^-1 B1^T [(0, P2) + (I, 0) Pi2] Y
    - R1^-1 B1^T (I, 0) varphi-tilde.  The two are equal through
    X = Pi2 Y + varphi-tilde, and their tables are compared once.  The
    condition B1^T x + R1 u1 is read on the block form (reachable_max).
    """
    n = spec.dims.n
    gains_t = spec.B1.values @ _tr(spec.R1_inv[::2])  # (R1^-1 B1^T)^T
    x = kernel.read_Y[:, :, n:] @ _tr(p2.values) + kernel.read_X[:, :, :n]
    read_u1 = -(x @ gains_t)
    stacked = kernel.pi2.values[:, :n].copy()  # (0, P2) + (I, 0) Pi2 at every node
    stacked[:, :, n:] += p2.values
    stacked_u1 = -(kernel.read_Y @ _tr(stacked) @ gains_t)
    stacked_u1[:, :n] -= gains_t
    check_forms_agree(stacked_u1, read_u1, "stacked/block follower control forms")
    condition = x @ spec.B1.values
    condition += read_u1 @ _tr(spec.R1.values)
    return read_u1, reachable_max(condition)


def leader_cost(spec: LQGameSpec, ens: StackedEnsemble) -> np.ndarray:
    """The leader's per-path cost J2 along the ensemble (cost_samples)."""
    return cost_samples(spec.grid, ens.ybar, ens.u2, ens.zbar, spec.Q2, spec.R2, spec.S2, spec.G2)


def equilibrium_follower_cost(spec: LQGameSpec, ens: StackedEnsemble) -> np.ndarray:
    """The follower's per-path cost J1 along the equilibrium (cost_samples)."""
    return cost_samples(spec.grid, ens.ybar, ens.u1, ens.zbar, spec.Q1, spec.R1, spec.S1, spec.G1)


@dataclass
class StackelbergSolution:
    """An equilibrium solve: its deterministic layer and the ensemble of its paths.

    equilibrium_layer fills everything but the ensemble; equilibrium_paths
    adds the ensemble of one bundle of paths, a whole solve's or one chunk's.
    defects holds the leader kernel's structural_defects and, under
    "follower", the follower's algebraic condition along the equilibrium.
    """

    spec: LQGameSpec
    p1: RiccatiPath
    p2: RiccatiPath
    system: StackedSystem
    pi1: RiccatiPath
    pi2: RiccatiPath
    kernel: PathKernel  # the leader's path kernel
    read_u1: np.ndarray  # (N+1, 2n+2, k): the leader's zeta -> the follower's control
    defects: dict
    ensemble: StackedEnsemble | None = None

    @property
    def tilde_phi(self) -> AffineBSDESolution:
        return self.kernel.tilde_phi


def equilibrium_layer(spec: LQGameSpec) -> StackelbergSolution:
    """The deterministic layer of an equilibrium solve: P1, P2, the stacked
    system, Pi1, Pi2 (riccati_chain), the leader's path kernel, the follower's
    control table and the structural defects, before any path is drawn."""
    p1, p2, sys, pi1, pi2 = riccati_chain(spec)
    kernel = path_kernel(sys, pi1, pi2)
    read_u1, follower_condition = follower_control_table(spec, p2, kernel)
    defects = structural_defects(kernel) | {"follower": follower_condition}
    return StackelbergSolution(spec, p1, p2, sys, pi1, pi2, kernel, read_u1, defects)


def equilibrium_paths(sol: StackelbergSolution, bundle: PathBundle) -> StackelbergSolution:
    """sol with the ensemble of a bundle of paths: the leader's path kernel and
    both equilibrium controls, one matmul each; the costs are left to the caller."""
    ens = stacked_paths(sol.kernel, bundle)
    ens.u2 = ens.zeta @ sol.kernel.read_u
    ens.u1 = ens.zeta @ sol.read_u1
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


def leader_stationarity_samples(sol: StackelbergSolution, response: PathKernel) -> np.ndarray:
    """The variational first-order check of the leader's feedback control on sol's
    ensemble, for the direction of the response kernel (response_kernel); its
    algebraic counterpart is a structural defect (sol.defects).

    The bilevel cost is quadratic in u2 once the follower's optimal
    response is followed through the affine response map, so
    J2(u2 + eps v) = J2(u2) + eps slope + eps^2 curvature exactly under
    common random numbers.  Returns the cross term per path, whose mean is
    the extrapolated, eps -> 0, directional derivative.
    """
    spec, ens = sol.spec, sol.ensemble
    delta = stacked_paths(response, ens.bundle)
    du2 = _u2_pathwise(response.sys.forcing_control, ens.bundle.W)
    return quadratic_expansion(
        spec.grid, (ens.ybar, ens.u2, ens.zbar), (delta.Y, du2, delta.Z),
        spec.Q2, spec.R2, spec.S2, spec.G2,
    )


def leader_paths_csv(ens: StackedEnsemble, max_paths: int | None = None) -> str:
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

    The deterministic layer, with its structural defects, and the response
    kernel of the stationarity direction v are formed once; each chunk runs
    the path kernel, both controls and costs, the residual and the leader's
    stationarity slope.
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
            "slope": leader_stationarity_samples(chunk_sol, response),
            "residual": residual,
            "bsde_residual_max": residual_max,
            "csv": leader_paths_csv(ens, csv_paths),
        }

    merged = stream_paths(spec.grid, mc, sol.system.dim, chunk)
    defects = sol.defects
    summary = {
        "J1": cost_figures(merged["J1"]),
        "J2": cost_figures(merged["J2"]),
        "stationarity": {
            "follower": defects["follower"],
            "leader": defects["stationarity"],
            "leader_extrapolated_slope": float(merged["slope"].mean()),
        },
        "terminal_error_max": defects["terminal"],
        "initial_coupling_max": defects["initial_coupling"],
        "decoupling_consistency_max": defects["decoupling"],
        "bsde_residual_rms": residual_rms(merged["residual"]),
        "bsde_residual_max": merged["bsde_residual_max"],
    }
    return summary, merged["csv"]
