"""The leader's problem on the stacked 2n-dimensional system.

The leader anticipates the follower's feedback response, which turns the
outer problem into optimal control of a forward-backward pair (X, (Y, Z))
of doubled dimension, decoupled by Pi1, Pi2 and run through the stacked
path layer.  This module adds the equilibrium's deterministic layer with
its table checks, the follower's control along the equilibrium, both costs
and the leader's stationarity slope through the follower's response as
forms, the block-named CSV and the summary of the equilibrium command.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .follower import follower_kernel
from .model import AffineControl, LQGameSpec, TerminalCondition
from .odeint import check_forms_agree
from .riccati import RiccatiPath, StackedSystem, _tr, riccati_chain
from .sampling import MonteCarloConfig, PathBundle, stream_paths
from .stacked import (
    PathKernel,
    affine_table,
    check_feedback,
    column_labels,
    cost_figures,
    embed,
    form_samples,
    form_table,
    joint_step,
    path_kernel,
    paths_csv,
    reachable_max,
    residual_rms,
    residual_samples,
    simulate_tilde_varphi,
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


@dataclass
class StackelbergSolution:
    """An equilibrium's deterministic layer: each process along it is the leader's
    zeta times a table (the kernel's read-outs and read_u1), and J1, J2 are forms.
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
    forms: dict  # the forms of J1 and J2 on the leader's zeta (stacked.form_table)


def equilibrium_layer(spec: LQGameSpec) -> StackelbergSolution:
    """An equilibrium's deterministic layer, before any path is drawn: Riccati chain,
    checked leader kernel, follower control table, defects and forms of J1, J2."""
    p1, p2, sys, pi1, pi2 = riccati_chain(spec)
    kernel = path_kernel(sys, pi1, pi2)
    check_feedback(kernel)
    read_u1, follower_condition = follower_control_table(spec, p2, kernel)
    defects = structural_defects(kernel) | {"follower": follower_condition}
    ybar, zbar = kernel.read_Y[:, :, spec.dims.n :], kernel.read_Z[:, :, spec.dims.n :]
    forms = {
        "J1": form_table(spec.grid, spec.weights(1), (ybar, read_u1, zbar)),
        "J2": form_table(spec.grid, spec.weights(2), (ybar, kernel.read_u, zbar)),
    }
    return StackelbergSolution(spec, p1, p2, sys, pi1, pi2, kernel, read_u1, defects, forms)


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


def leader_slope_table(sol: StackelbergSolution, response: PathKernel) -> np.ndarray:
    """The form of the leader's stationarity cross term along the response kernel's
    direction v, on the joint state xi = (tilde-varphi of the response,
    tilde-varphi of the equilibrium, W, 1) (stacked.joint_step).  Through the
    affine response map J2(u2 + eps v) = J2(u2) + eps slope + eps^2 curvature
    exactly under common random numbers; the slope's mean is the derivative.
    """
    a, b, v = response.sys.dim, sol.system.dim, response.sys.forcing_control
    n, kernel = sol.spec.dims.n, sol.kernel
    base = (kernel.read_Y[:, :, n:], kernel.read_u, kernel.read_Z[:, :, n:])
    base = [embed(t, before=a) for t in base]
    du2 = affine_table(v.u_const.values, v.u_lin.values, a)
    step = [embed(t, after=b) for t in (response.read_Y, du2, response.read_Z)]
    return form_table(sol.spec.grid, sol.spec.weights(2), base, step)


def leader_paths_csv(sol: StackelbergSolution, zeta: np.ndarray, out: TextIO):
    """Write the per-path CSV of the leader's zeta to out with block-named columns,
    17 significant digits (paths_csv): X stacks (phibar, q), Y stacks (p, ybar)
    and Z stacks (k, zbar)."""
    n, k, kernel = sol.spec.dims.n, sol.spec.dims.k, sol.kernel
    header = [c for pre in ("phibar", "q", "p", "ybar", "k", "zbar") for c in column_labels(pre, n)]
    header += column_labels("u1", k) + column_labels("u2", k)
    table = np.concatenate(
        [kernel.read_X, kernel.read_Y, kernel.read_Z, sol.read_u1, kernel.read_u], axis=2
    )
    paths_csv(sol.spec.grid.nodes, header, zeta, table, out)


def equilibrium_chunk(
    sol: StackelbergSolution, response: PathKernel
) -> Callable[[PathBundle], dict]:
    """The per-path figures of equilibrium_summary on one chunk of paths: one Euler
    loop on the joint state of the equilibrium and the response kernel, then
    J1, J2, the leader's slope and the residual read off it."""
    step, slope = joint_step(response, sol.kernel), leader_slope_table(sol, response)
    a = response.sys.dim

    def chunk(bundle: PathBundle) -> dict:
        xi = simulate_tilde_varphi(step, bundle)
        zeta = xi[:, :, a:]  # the equilibrium's
        residual, residual_max = residual_samples(sol.kernel, zeta, bundle.dW)
        return {name: form_samples(form, zeta) for name, form in sol.forms.items()} | {
            "slope": form_samples(slope, xi),
            "residual": residual,
            "bsde_residual_max": residual_max,
        }

    return chunk


def equilibrium_summary(
    spec: LQGameSpec, mc: MonteCarloConfig, v: AffineControl
) -> tuple[dict, StackelbergSolution]:
    """The equilibrium's figures on mc's paths, keyed as the CLI's summary and
    streamed in path chunks (equilibrium_chunk), for the stationarity direction
    v, and the equilibrium's deterministic layer, which its CSV reads
    (leader_paths_csv)."""
    sol = equilibrium_layer(spec)
    response = response_kernel(spec, sol.p1, sol.p2, v)
    merged = stream_paths(spec.grid, mc, sol.system.dim, equilibrium_chunk(sol, response))
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
    return summary, sol
