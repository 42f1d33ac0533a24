"""The follower's problem for a given terminal datum and leader control.

The follower's problem is the leader's stacked form at dimension n
(riccati.follower_system) with P1 and P2 as its Pi1 and Pi2, run through the
stacked path layer; on its kernel read_X reads the adjoint state x, read_Y
and read_Z the backward state pair (y, z) and read_u the feedback control
u1 = -R1^-1 B1^T (P2 y + varphi).  This module adds its cost and stationarity
slope as forms on its zeta, its response to a control step, its CSV and
the summary of its command.
"""

from __future__ import annotations

from typing import Callable, TextIO

import numpy as np

from .model import AffineControl, LQGameSpec
from .riccati import RiccatiPath, follower_system, solve_p1, solve_p2
from .sampling import MonteCarloConfig, PathBundle, stream_paths
from .stacked import (
    PathKernel,
    affine_table,
    check_feedback,
    column_labels,
    cost_figures,
    form_samples,
    form_table,
    path_kernel,
    paths_csv,
    residual_rms,
    residual_samples,
    simulate_tilde_varphi,
    solve_affine_bsde,
    structural_defects,
)


def follower_cost_table(spec: LQGameSpec, kernel: PathKernel) -> np.ndarray:
    """The form of the follower's cost J1 on its zeta (stacked.form_table)."""
    return form_table(spec.grid, spec.weights(1), (kernel.read_Y, kernel.read_u, kernel.read_Z))


def follower_kernel(
    spec: LQGameSpec, p1: RiccatiPath, p2: RiccatiPath, u2: AffineControl
) -> PathKernel:
    """The stacked path kernel on follower_system(spec, u2), whose Pi1 and Pi2 are
    P1 and P2, with its feedback checked against the adjoint form (check_feedback)."""
    kernel = path_kernel(follower_system(spec, u2), p1, p2)
    check_feedback(kernel)
    return kernel


def response_step(spec: LQGameSpec, v: AffineControl) -> tuple[np.ndarray, np.ndarray]:
    """The follower's state perturbation for a control step v, for any paths.

    It solves the homogeneous BSDE -d(dy) = [A dy + C dz + B1 v] dt - dz dW
    with zero terminal value, closed by the affine ansatz: dy = alpha + beta W
    and the deterministic dz = beta.  Returns the node arrays (alpha, beta).
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


def follower_slope_table(spec: LQGameSpec, kernel: PathKernel, v: AffineControl) -> np.ndarray:
    """The form on the follower's zeta of its stationarity cross term along v:
    J1(u1 + eps v) = J1(u1) + eps slope + eps^2 curvature exactly under common
    random numbers.  The step (alpha + beta W, v, beta) of response_step's
    perturbation is affine in W, so it reads only zeta's W and 1 rows."""
    n, (alpha, beta) = spec.dims.n, response_step(spec, v)
    step = (
        affine_table(alpha, beta, n),
        affine_table(v.u_const.values, v.u_lin.values, n),
        affine_table(beta, np.zeros_like(beta), n),
    )
    reads = (kernel.read_Y, kernel.read_u, kernel.read_Z)
    return form_table(spec.grid, spec.weights(1), reads, step)


def follower_paths_csv(kernel: PathKernel, zeta: np.ndarray, out: TextIO):
    """Write the per-path CSV path,t,y_*,z_*,u1_*,x_* of the follower's zeta to
    out, 17 significant digits (paths_csv)."""
    n, k = kernel.sys.dim, kernel.read_u.shape[2]
    header = column_labels("y", n) + column_labels("z", n, "1")
    header += column_labels("u1", k) + column_labels("x", n)
    table = np.concatenate([kernel.read_Y, kernel.read_Z, kernel.read_u, kernel.read_X], axis=2)
    paths_csv(kernel.sys.grid.nodes, header, zeta, table, out)


def follower_chunk(
    spec: LQGameSpec, kernel: PathKernel, v: AffineControl
) -> Callable[[PathBundle], dict]:
    """The per-path figures of follower_summary on one chunk of paths: one Euler
    loop, then J1, the slope along v and the residual read off zeta."""
    cost, slope = follower_cost_table(spec, kernel), follower_slope_table(spec, kernel, v)

    def chunk(bundle: PathBundle) -> dict:
        zeta = simulate_tilde_varphi(kernel.step, bundle)
        residual, residual_max = residual_samples(kernel, zeta, bundle.dW)
        return {
            "J1": form_samples(cost, zeta),
            "slope": form_samples(slope, zeta),
            "residual": residual,
            "bsde_residual_max": residual_max,
        }

    return chunk


def follower_summary(
    spec: LQGameSpec, u2: AffineControl, mc: MonteCarloConfig, v: AffineControl
) -> tuple[dict, PathKernel]:
    """The follower's figures for the leader control u2 on mc's paths, keyed as
    the CLI's summary and streamed in path chunks (follower_chunk), and the
    follower's kernel, which its CSV reads (follower_paths_csv)."""
    p1 = solve_p1(spec)
    p2 = solve_p2(spec, p1)
    kernel = follower_kernel(spec, p1, p2, u2)
    defects = structural_defects(kernel)
    merged = stream_paths(spec.grid, mc, kernel.sys.dim, follower_chunk(spec, kernel, v))
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
    return summary, kernel
