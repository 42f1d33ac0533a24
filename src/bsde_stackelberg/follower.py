"""The follower's problem for a given terminal datum and leader control.

The linear BSDE for (phi, eta) is closed exactly by the affine ansatz
phi = alpha(t) + beta(t) W(t), eta = beta(t), valid because coefficients
are deterministic, the terminal datum is affine in W(T) and the leader
control is affine in W(t).  That reduces every BSDE here to a pair of
terminal-value ODEs; the only sampling error left is the Euler scheme
for the auxiliary SDE and the decoupled state reconstruction is exact
pathwise at the terminal and initial nodes.  The follower's problem is
the leader's stacked form at dimension n (riccati.follower_system), so
its offsets, reconstruction, feedback and residual are the leader's
kernels run on that system.

Path arrays are time-major, (N+1, paths, dim): node i of every path is
one contiguous (paths, dim) block, and every node-wise relation is one
stacked matmul against an (N+1, dim, dim) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import AffineControl, CoefficientPath, LQGameSpec, TerminalCondition, TimeGrid
from .odeint import MAX_NORM, DivergenceError, check_forms_agree
from .riccati import (
    RiccatiPath,
    StackedSystem,
    _sym,
    _tr,
    csv_block,
    follower_system,
    solve_p1,
    solve_p2,
)
from .sampling import MonteCarloConfig, PathBundle, mean_stderr, stream_paths

if TYPE_CHECKING:
    from .leader import LeaderEnsemble, PathKernel


@dataclass(frozen=True)
class AffineBSDESolution:
    """Solution phi(t) = alpha(t) + beta(t) W(t), eta(t) = beta(t)."""

    alpha: CoefficientPath  # m x 1
    beta: CoefficientPath  # m x 1

    def phi_pathwise(self, W: np.ndarray) -> np.ndarray:
        """(N+1, paths, m) values of phi along Brownian paths W (N+1, paths)."""
        return _affine_pathwise(self.alpha, self.beta, W)

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
    as (2N+1)-sample tables at the RK4 half steps.  The pair is linear:
    Y = (alpha, beta, 1) solves Y' = -G Y with G = [[M, N, g_c], [0, M, g_l],
    [0, 0, 0]], so stacked matmuls on G's tables give all N RK4 step
    matrices at once, and each step is one matvec.  A non-finite iterate,
    or one above MAX_NORM, raises DivergenceError at the first such node.
    """
    m, N, h = drift_lin.shape[1], grid.steps, grid.dt
    gen = np.zeros((2 * N + 1, 2 * m + 1, 2 * m + 1))
    gen[:, :m, :m] = gen[:, m:-1, m:-1] = drift_lin
    gen[:, :m, m:-1], gen[:, :m, -1:], gen[:, m:-1, -1:] = drift_eta, forcing_const, forcing_lin
    # backward in t is forward in s = T - t, with dY/ds = G(T - s) Y
    a0, a_half, a1 = gen[:0:-2], gen[-2::-2], gen[-3::-2]
    eye = np.eye(2 * m + 1)
    k2 = a_half @ (eye + 0.5 * h * a0)
    k3 = a_half @ (eye + 0.5 * h * k2)
    steps = eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + a1 @ (eye + h * k3))
    y = np.empty((N + 1, 2 * m + 1))
    y[0, :m], y[0, m:-1], y[0, -1] = np.ravel(terminal_const), np.ravel(terminal_lin), 1.0
    with np.errstate(all="ignore"):  # the iterates past a divergence are discarded
        for i in range(N):
            y[i + 1] = steps[i] @ y[i]
        stepped = y[1:, :-1]
        bad = ~np.isfinite(stepped).all(axis=1) | (np.abs(stepped).max(axis=1) > MAX_NORM)
    if bad.any():
        raise DivergenceError(float(grid.nodes[N - 1 - bad.argmax()]))
    y = y[::-1, :, None]
    return AffineBSDESolution(CoefficientPath(grid, y[:, :m]), CoefficientPath(grid, y[:, m:-1]))


def _affine_pathwise(const: CoefficientPath, lin: CoefficientPath, W: np.ndarray) -> np.ndarray:
    """(N+1, paths, m) values of const(t) + lin(t) W(t) for m x 1 coefficients."""
    return const.values[:, None, :, 0] + W[:, :, None] * lin.values[:, None, :, 0]


def _u2_pathwise(u2: AffineControl, W: np.ndarray) -> np.ndarray:
    """(N+1, paths, k) leader control values along paths."""
    return _affine_pathwise(u2.u_const, u2.u_lin, W)


@dataclass
class FollowerEnsemble:
    """Pathwise follower solution on a Brownian ensemble.

    The follower's problem is the stacked system of follower_system, solved
    by the leader's kernels: x, y, z and varphi are that solution's X, Y, Z
    and forward offset.  Arrays are (N+1, paths, dim): x is the adjoint
    state, (y, z) the backward state pair, u1 the feedback control and
    u1_adjoint its algebraically equal adjoint representation.
    """

    stacked: LeaderEnsemble
    u1: np.ndarray = None
    u1_adjoint: np.ndarray = None

    @property
    def u2(self) -> np.ndarray:
        """The leader's control, the system's known control, along the paths."""
        return _u2_pathwise(self.system.forcing_control, self.bundle.W)

    @property
    def system(self) -> StackedSystem:
        return self.stacked.kernel.sys

    @property
    def grid(self) -> TimeGrid:
        return self.stacked.grid

    @property
    def bundle(self) -> PathBundle:
        return self.stacked.bundle

    @property
    def varphi(self) -> np.ndarray:
        return self.stacked.tilde_varphi

    @property
    def x(self) -> np.ndarray:
        return self.stacked.X

    @property
    def y(self) -> np.ndarray:
        return self.stacked.Y

    @property
    def z(self) -> np.ndarray:
        return self.stacked.Z


def terminal_defect(xi: TerminalCondition, y: np.ndarray, W: np.ndarray) -> float:
    """Max over paths of ||y(T) - xi(W(T))|| for a backward state y
    (N+1, paths, dim) on Brownian paths W (N+1, paths); exact up to roundoff."""
    return float(np.max(np.abs(y[-1] - xi.on_paths(W[-1])), initial=0.0))


def follower_feedback(p2: RiccatiPath, ens: FollowerEnsemble) -> np.ndarray:
    """Feedback control u1 = -R1^-1 B1^T (P2 y + varphi), stored on the ensemble.

    It is leader_feedback on the follower's system.  The adjoint
    representation -R1^-1 B1^T x is computed alongside; the two agree to
    roundoff through the identity x = P2 y + varphi.
    """
    from .leader import leader_feedback  # leader imports this module

    sys = ens.system
    u1 = leader_feedback(sys, p2, ens.stacked)
    u1_adj = ens.x @ -_tr(sys.R_inv[::2] @ _tr(sys.B2h.values))
    check_forms_agree(u1, u1_adj, "feedback/adjoint control forms")
    ens.u1, ens.u1_adjoint = u1, u1_adj
    return u1


def cost_samples(
    grid: TimeGrid,
    y: np.ndarray,
    u: np.ndarray,
    z: np.ndarray,
    Q: CoefficientPath,
    R: CoefficientPath,
    S: CoefficientPath,
    G: np.ndarray,
) -> np.ndarray:
    """Per path, 0.5 { int (y'Qy + u'Ru + z'Sz) dt + y(0)'G y(0) }, trapezoidal in time.

    y, u and z are (N+1, paths, dim); a term may broadcast over paths.
    """
    integrand = _bilinear_form(y, Q.values, y)
    integrand += _bilinear_form(u, R.values, u)
    integrand += _bilinear_form(z, S.values, z)
    time_integral = np.trapezoid(integrand, dx=grid.dt, axis=0)
    return 0.5 * (time_integral + _bilinear_form(y[0], G, y[0]))


def cost_figures(samples: np.ndarray) -> dict:
    """A cost's summary entry {"mean", "stderr"} from its per-path samples
    (sampling.mean_stderr)."""
    mean, stderr = mean_stderr(samples)
    return {"mean": float(mean), "stderr": float(stderr)}


def quadratic_expansion(
    grid: TimeGrid,
    base: tuple[np.ndarray, np.ndarray, np.ndarray],
    step: tuple[np.ndarray, np.ndarray, np.ndarray],
    Q: CoefficientPath,
    R: CoefficientPath,
    S: CoefficientPath,
    G: np.ndarray,
) -> np.ndarray:
    """Per path, the cross term of the cost along a step, with
    J(base + eps step) = J(base) + eps cross + eps^2 curvature exactly,
    where the curvature is the cost of the step (cost_samples).

    base and step are (y, u, z) triples of (N+1, paths, dim) arrays; a
    step may broadcast over paths.  cross is
    int (y'Q~dy + u'R~du + z'S~dz) dt + y(0)'G~dy(0) with the symmetric
    parts M~ = (M + M')/2, so it stays exact for weights that are
    symmetric only to roundoff.  Its mean over paths is the directional
    derivative of J.
    """
    y, u, z = base
    dy, du, dz = step
    integrand = _bilinear_form(y, _sym(Q.values), dy)
    integrand += _bilinear_form(u, _sym(R.values), du)
    integrand += _bilinear_form(z, _sym(S.values), dz)
    cross = np.trapezoid(integrand, dx=grid.dt, axis=0)
    cross += _bilinear_form(y[0], _sym(G), dy[0])
    return cross


def _bilinear_form(v: np.ndarray, M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v' M w over the last axis; M is one matrix or a stack matching v's first axis."""
    return np.einsum("...j,...j->...", v @ M, w)


def follower_cost(spec: LQGameSpec, ens: FollowerEnsemble) -> np.ndarray:
    """The follower's per-path cost J1 on the ensemble (cost_samples)."""
    return cost_samples(spec.grid, ens.y, ens.u1, ens.z, spec.Q1, spec.R1, spec.S1, spec.G1)


def follower_kernel(
    spec: LQGameSpec, p1: RiccatiPath, p2: RiccatiPath, u2: AffineControl
) -> PathKernel:
    """The leader's path kernel on follower_system(spec, u2), whose Pi1 and Pi2
    are P1 and P2."""
    from .leader import path_kernel  # leader imports this module

    return path_kernel(follower_system(spec, u2), p1, p2)


def follower_paths(kernel: PathKernel, bundle: PathBundle) -> FollowerEnsemble:
    """The follower's optimal state (x, y, z) on a bundle of paths, from its
    kernel (follower_kernel), without feedback or cost."""
    from .leader import stacked_paths  # leader imports this module

    return FollowerEnsemble(stacked_paths(kernel, bundle))


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
    spec: LQGameSpec, ens: FollowerEnsemble, v: AffineControl, delta: AffineBSDESolution
) -> dict:
    """First-order optimality of the follower's feedback control on the ensemble,
    for the step v and its state perturbation delta (response_step), as samples
    that stationarity_report reduces.

    Algebraic part: max ||B1^T x + R1 u1|| over nodes and paths (zero by
    construction).  Variational part: J1 is quadratic, so along the
    direction v, J1(u1 + eps v) = J1(u1) + eps slope + eps^2 curvature
    exactly under common random numbers; per path, the cross term, whose
    mean is the extrapolated, eps -> 0, directional derivative.
    """
    W = ens.bundle.W
    step = (delta.phi_pathwise(W), _u2_pathwise(v, W), delta.eta_values[:, None])
    cross = quadratic_expansion(
        spec.grid, (ens.y, ens.u1, ens.z), step, spec.Q1, spec.R1, spec.S1, spec.G1
    )
    return {
        "algebraic_residual": stationarity_residual(spec, ens.x, ens.u1),
        "extrapolated_slope": cross,
    }


def stationarity_report(samples: dict) -> dict:
    """A stationarity check's figures from its samples, merged over any number of
    path chunks: the algebraic residual's max and the mean slope."""
    return {
        "algebraic_residual": samples["algebraic_residual"],
        "extrapolated_slope": float(samples["extrapolated_slope"].mean()),
    }


def stationarity_residual(spec: LQGameSpec, x: np.ndarray, u1: np.ndarray) -> float:
    """Max |x B1 + u1 R1^T| over nodes and paths: the follower's algebraic
    first-order condition for adjoint states x and controls u1, both
    (N+1, paths, dim)."""
    r = x @ spec.B1.values
    r += u1 @ _tr(spec.R1.values)
    return float(np.max(np.abs(r), initial=0.0))


def follower_paths_csv(ens: FollowerEnsemble, max_paths: int | None = None) -> str:
    """Per-path CSV: path,t,y_*,z_*,u1_*,x_* with 17 significant digits (paths_csv)."""
    n, k = ens.y.shape[2], ens.u1.shape[2]
    header = column_labels("y", n) + column_labels("z", n, "1")
    header += column_labels("u1", k) + column_labels("x", n)
    blocks = [ens.y, ens.z, ens.u1, ens.x]
    return paths_csv(ens.grid.nodes, header, blocks, max_paths, ens.bundle.first)


def column_labels(prefix: str, count: int, suffix: str = "") -> list[str]:
    """CSV column names prefix_1suffix, ..., prefix_<count>suffix."""
    return [f"{prefix}_{j + 1}{suffix}" for j in range(count)]


def paths_csv(
    nodes: np.ndarray,
    header: list[str],
    blocks: list[np.ndarray],
    max_paths: int | None = None,
    first: int = 0,
) -> str:
    """Per-path CSV 'path,t,<header>' at the grid nodes, 17 significant digits.

    blocks are (N+1, paths) or (N+1, paths, cols) arrays whose columns,
    concatenated in order, match header.  Their paths are numbered from
    first, and those numbered below max_paths are listed.  The header line
    opens the file, so it comes only with first = 0: the CSVs of
    consecutive path chunks join into the CSV of all their paths.
    """
    width = blocks[0].shape[1]
    count = width if max_paths is None else max(0, min(max_paths - first, width))
    data = np.concatenate([np.atleast_3d(b[:, :count]) for b in blocks], axis=2)
    lines = ["path,t," + ",".join(header) + "\n"] if first == 0 else []
    lines += [
        csv_block(np.column_stack([nodes, data[:, p]]), f"{first + p},") for p in range(count)
    ]
    return "".join(lines)


def follower_summary(
    spec: LQGameSpec, u2: AffineControl, mc: MonteCarloConfig, v: AffineControl, csv_paths: int = 0
) -> tuple[dict, str]:
    """The follower's figures for the leader control u2 on mc's paths, keyed as
    the CLI's summary, and the CSV of the first csv_paths paths, streamed in
    path chunks (stream_paths).

    P1, P2, the path kernel and the response step of the stationarity
    direction v are formed once; each chunk runs the kernel, the feedback,
    the cost, the residual and the stationarity check.
    """
    from .leader import bsde_residual_samples, residual_rms  # leader imports this module

    p1 = solve_p1(spec)
    p2 = solve_p2(spec, p1)
    kernel = follower_kernel(spec, p1, p2, u2)
    delta = response_step(spec, v)

    def chunk(bundle: PathBundle) -> dict:
        ens = follower_paths(kernel, bundle)
        follower_feedback(p2, ens)
        residual, residual_max = bsde_residual_samples(ens.stacked)
        return {
            "J1": follower_cost(spec, ens),
            **follower_stationarity_samples(spec, ens, v, delta),
            "terminal_error_max": terminal_defect(spec.xi, ens.y, bundle.W),
            "residual": residual,
            "bsde_residual_max": residual_max,
            "csv": follower_paths_csv(ens, csv_paths),
        }

    merged = stream_paths(spec.grid, mc, kernel.sys.dim, chunk)
    stat = stationarity_report(merged)
    summary = {
        "J1": cost_figures(merged["J1"]),
        "stationarity": {
            "algebraic": stat["algebraic_residual"],
            "extrapolated_slope": stat["extrapolated_slope"],
        },
        "terminal_error_max": merged["terminal_error_max"],
        "bsde_residual_rms": residual_rms(merged["residual"]),
        "bsde_residual_max": merged["bsde_residual_max"],
    }
    return summary, merged["csv"]
