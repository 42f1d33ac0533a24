"""The leader's problem on the stacked 2n-dimensional system.

The leader anticipates the follower's feedback response, which turns the
outer problem into optimal control of a forward-backward pair
(X, (Y, Z)) of doubled dimension.  Two Riccati solutions Pi1, Pi2
decouple it, and the stacked path layer (stacked.path_kernel,
stacked.stacked_paths) reconstructs the optimal trajectories pathwise,
as it does for the follower's problem at dimension n.  This module adds
what only the leader has: the equilibrium solve's deterministic layer,
the follower's control and cost along the equilibrium, the leader's
cost and stationarity check through the follower's response, the
block-named CSV and the summary of the equilibrium command.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .follower import follower_kernel, stationarity_residual
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
    decoupling_consistency,
    leader_feedback,
    path_kernel,
    paths_csv,
    quadratic_expansion,
    residual_rms,
    stacked_paths,
    stationarity_report,
    terminal_defect,
)


def equilibrium_follower_control(
    spec: LQGameSpec, p2: RiccatiPath, ens: StackedEnsemble
) -> np.ndarray:
    """The follower's control along the leader-optimal trajectory of the leader's
    ensemble, whose kernel holds Pi2.

    Stacked form: u1 = -R1^-1 B1^T [(0, P2) + (I, 0) Pi2] Y
                       - R1^-1 B1^T (I, 0) varphi-tilde;
    block form: -R1^-1 B1^T (P2 ybar + phibar).  The two are equal
    through X = Pi2 Y + varphi-tilde; both are computed and compared.
    """
    n = spec.dims.n
    stacked = ens.kernel.pi2.values[:, :n].copy()  # (0, P2) + (I, 0) Pi2 at every node
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


def leader_cost(spec: LQGameSpec, ens: StackedEnsemble) -> np.ndarray:
    """The leader's per-path cost J2 along the ensemble (cost_samples)."""
    return cost_samples(spec.grid, ens.ybar, ens.u2, ens.zbar, spec.Q2, spec.R2, spec.S2, spec.G2)


def equilibrium_follower_cost(spec: LQGameSpec, ens: StackedEnsemble) -> np.ndarray:
    """The follower's per-path cost J1 along the equilibrium (cost_samples)."""
    return cost_samples(spec.grid, ens.ybar, ens.u1, ens.zbar, spec.Q1, spec.R1, spec.S1, spec.G1)


def equilibrium_follower_stationarity(
    spec: LQGameSpec, p2: RiccatiPath, ens: StackedEnsemble
) -> float:
    """The follower's algebraic stationarity residual along the equilibrium,
    where its adjoint state is x = P2 ybar + phibar."""
    return stationarity_residual(spec, ens.ybar @ _tr(p2.values) + ens.phibar, ens.u1)


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
    ensemble: StackedEnsemble | None = None

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
    ens.u2 = leader_feedback(ens)
    equilibrium_follower_control(sol.spec, sol.p2, ens)
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
    delta = stacked_paths(response, ens.bundle)
    du2 = _u2_pathwise(response.sys.forcing_control, ens.bundle.W)
    cross = quadratic_expansion(
        spec.grid, (ens.ybar, ens.u2, ens.zbar), (delta.Y, du2, delta.Z),
        spec.Q2, spec.R2, spec.S2, spec.G2,
    )
    return {"algebraic_residual": worst, "extrapolated_slope": cross}


def initial_coupling_defect(ens: StackedEnsemble) -> float:
    """Max over paths of ||X(0) - G2-hat Y(0)||, exact up to roundoff."""
    return float(np.max(np.abs(ens.X[0] - ens.Y[0] @ ens.kernel.sys.G2h.T), initial=0.0))


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
            "initial_coupling_max": initial_coupling_defect(ens),
            "decoupling_consistency_max": decoupling_consistency(ens),
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
