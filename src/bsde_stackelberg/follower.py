"""The follower's problem for a given terminal datum and leader control.

The follower's problem is the leader's stacked form at dimension n
(riccati.follower_system): P1 and P2 are that system's Pi1 and Pi2, and
its offsets, reconstruction, feedback and residual are the stacked path
layer (stacked.path_kernel, stacked.stacked_paths) run on it.  On the
follower's ensemble X is the adjoint state x and (Y, Z) the backward
state pair (y, z).  This module adds what only the follower has: the
adjoint form of its feedback, checked once on the kernel's tables, its
cost, its response to a control step, its stationarity slope, its CSV and
the summary of its command.  Its algebraic first-order condition
B1^T x + R1 u1 is the stacked system's maximum-principle table
(stacked.structural_defects), read once per kernel.
"""

from __future__ import annotations

import numpy as np

from .model import AffineControl, LQGameSpec
from .odeint import check_forms_agree
from .riccati import RiccatiPath, _tr, follower_system, solve_p1, solve_p2
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
    residual_rms,
    solve_affine_bsde,
    stacked_paths,
    structural_defects,
)


def follower_feedback(ens: StackedEnsemble) -> np.ndarray:
    """Feedback control u1 = -R1^-1 B1^T (P2 y + varphi) = zeta read_u, stored on
    the follower's ensemble (follower_kernel checks it against the adjoint form)."""
    ens.u1 = ens.zeta @ ens.kernel.read_u
    return ens.u1


def follower_cost(spec: LQGameSpec, ens: StackedEnsemble) -> np.ndarray:
    """The follower's per-path cost J1 on its ensemble (cost_samples)."""
    return cost_samples(spec.grid, ens.Y, ens.u1, ens.Z, spec.Q1, spec.R1, spec.S1, spec.G1)


def follower_kernel(
    spec: LQGameSpec, p1: RiccatiPath, p2: RiccatiPath, u2: AffineControl
) -> PathKernel:
    """The stacked path kernel on follower_system(spec, u2), whose Pi1 and Pi2
    are P1 and P2.  Its feedback table is compared once with the adjoint form
    -R1^-1 B1^T x, which it equals through the identity x = P2 y + varphi."""
    kernel = path_kernel(follower_system(spec, u2), p1, p2)
    adjoint = -(kernel.read_X @ spec.B1.values @ _tr(spec.R1_inv[::2]))
    check_forms_agree(kernel.read_u, adjoint, "feedback/adjoint control forms")
    return kernel


def response_step(spec: LQGameSpec, v: AffineControl) -> AffineBSDESolution:
    """The follower's state perturbation for a control step v, for any paths.

    It solves the homogeneous BSDE -d(dy) = [A dy + C dz + B1 v] dt - dz dW
    with zero terminal value, closed by the affine ansatz: dy = alpha + beta W
    and the deterministic dz = beta.
    """
    return solve_affine_bsde(
        spec.A.half,
        spec.C.half,
        spec.B1.half @ v.u_const.half,
        spec.B1.half @ v.u_lin.half,
        np.zeros(spec.dims.n),
        np.zeros(spec.dims.n),
        spec.grid,
    )


def follower_stationarity_samples(
    spec: LQGameSpec, ens: StackedEnsemble, v: AffineControl, delta: AffineBSDESolution
) -> np.ndarray:
    """The variational first-order check of the follower's feedback control on the
    ensemble, for the step v and its state perturbation delta (response_step).

    J1 is quadratic, so along the direction v,
    J1(u1 + eps v) = J1(u1) + eps slope + eps^2 curvature exactly under
    common random numbers.  Returns the cross term per path, whose mean is
    the extrapolated, eps -> 0, directional derivative.
    """
    W = ens.bundle.W
    step = (delta.phi_pathwise(W), _u2_pathwise(v, W), delta.eta_values[:, None])
    return quadratic_expansion(
        spec.grid, (ens.Y, ens.u1, ens.Z), step, spec.Q1, spec.R1, spec.S1, spec.G1
    )


def follower_paths_csv(ens: StackedEnsemble, max_paths: int | None = None) -> str:
    """Per-path CSV: path,t,y_*,z_*,u1_*,x_* with 17 significant digits (paths_csv)."""
    n, k = ens.Y.shape[2], ens.u1.shape[2]
    header = column_labels("y", n) + column_labels("z", n, "1")
    header += column_labels("u1", k) + column_labels("x", n)
    blocks = [ens.Y, ens.Z, ens.u1, ens.X]
    return paths_csv(ens.grid.nodes, header, blocks, max_paths, ens.bundle.first)


def follower_summary(
    spec: LQGameSpec, u2: AffineControl, mc: MonteCarloConfig, v: AffineControl, csv_paths: int = 0
) -> tuple[dict, str]:
    """The follower's figures for the leader control u2 on mc's paths, keyed as
    the CLI's summary, and the CSV of the first csv_paths paths, streamed in
    path chunks (stream_paths).

    P1, P2, the path kernel with its structural defects and the response
    step of the stationarity direction v are formed once; each chunk runs
    the kernel, the feedback, the cost, the residual and the stationarity
    slope.
    """
    p1 = solve_p1(spec)
    p2 = solve_p2(spec, p1)
    kernel = follower_kernel(spec, p1, p2, u2)
    delta = response_step(spec, v)
    defects = structural_defects(kernel)

    def chunk(bundle: PathBundle) -> dict:
        ens = stacked_paths(kernel, bundle)
        follower_feedback(ens)
        residual, residual_max = bsde_residual_samples(ens)
        return {
            "J1": follower_cost(spec, ens),
            "slope": follower_stationarity_samples(spec, ens, v, delta),
            "residual": residual,
            "bsde_residual_max": residual_max,
            "csv": follower_paths_csv(ens, csv_paths),
        }

    merged = stream_paths(spec.grid, mc, kernel.sys.dim, chunk)
    summary = {
        "J1": cost_figures(merged["J1"]),
        "stationarity": {
            "algebraic": defects["stationarity"],
            "extrapolated_slope": float(merged["slope"].mean()),
        },
        "terminal_error_max": defects["terminal"],
        "bsde_residual_rms": residual_rms(merged["residual"]),
        "bsde_residual_max": merged["bsde_residual_max"],
    }
    return summary, merged["csv"]
