"""The path layer of a decoupled stacked system, shared by both levels.

A StackedSystem is a forward-backward pair (X, (Y, Z)) that two Riccati
solutions Pi1, Pi2 decouple: the leader's system has dimension 2n
(riccati.build_stacked_system), the follower's problem is the same form at
dimension n (riccati.follower_system) with P1 and P2 as its Pi1 and Pi2.
The optimal trajectories are reconstructed pathwise from one auxiliary
BSDE and one auxiliary SDE (Euler-Maruyama), so the terminal condition
Y(T) = xi-hat and the initial coupling X(0) = G2-hat Y(0) hold exactly by
construction.  Every path process is a fixed table times the augmented
state zeta = (tilde-varphi, W, 1) (PathKernel), so these identities, the
decoupling X = Pi2 Y + tilde-varphi and the maximum-principle condition are
fixed tables too: structural_defects checks them once per kernel, for
every zeta the process can reach, and no path is drawn for it.

Every linear BSDE here is closed exactly by the affine ansatz
phi = alpha(t) + beta(t) W(t), eta = beta(t), valid because coefficients
are deterministic, the terminal datum is affine in W(T) and the known
control is affine in W(t).  That reduces it to a pair of terminal-value
ODEs; the only sampling error left is the Euler scheme for the auxiliary
SDE.  The figures both levels read off their paths are fixed forms on
zeta too: each cost and stationarity cross term is a quadratic form
sum_i zeta_i H_i zeta_i^T (form_table), and the BSDE residual is linear in
(zeta_{i+1}, zeta_i, dW_i zeta_i) (PathKernel.residual_table).  So a path
chunk runs one Euler loop, on zeta or on the joint state of two kernels
(joint_step), and reads every figure off it; the values of X, Y, Z and the
controls are formed only for the per-path CSV's paths, as zeta times one
table (paths_csv).

Path arrays are time-major, (N+1, paths, dim): node i of every path is
one contiguous (paths, dim) block, and every node-wise relation is one
stacked matmul against an (N+1, dim, cols) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import CoefficientPath, TimeGrid
from .odeint import MAX_NORM, DivergenceError, check_forms_agree, guarded_inv
from .riccati import RiccatiPath, StackedSystem, _sym, _tr, csv_block
from .sampling import PathBundle, mean_stderr


@dataclass(frozen=True)
class AffineBSDESolution:
    """Solution phi(t) = alpha(t) + beta(t) W(t), eta(t) = beta(t)."""

    alpha: CoefficientPath  # m x 1
    beta: CoefficientPath  # m x 1


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
    """(I + Pi1 S1h)^-1, (I + Pi1 Pi2)^-1 and (I + Pi2 Pi1)^-1, (N+1, dim, dim) node tables;
    the first is the node rows of pi1's half-step table (RiccatiPath.s1_inverse)."""
    eye = np.eye(sys.dim)
    Pi1, Pi2, nodes = pi1.values, pi2.values, sys.grid.nodes
    return (
        pi1.s1_inverse[::2],
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
    (N+1, dim+2, dim) each, and read_u to the feedback control,
    (N+1, dim+2, k).  None of them depends on the paths, so one
    kernel serves any number of path chunks (simulate_tilde_varphi).
    """

    sys: StackedSystem
    pi2: RiccatiPath
    step: np.ndarray  # (N+1, dim+2, 2 dim): zeta -> (drift, diffusion) of tilde-varphi
    read_X: np.ndarray  # (N+1, dim+2, dim): zeta -> X
    read_Y: np.ndarray  # (N+1, dim+2, dim): zeta -> Y
    read_Z: np.ndarray  # (N+1, dim+2, dim): zeta -> Z
    read_u: np.ndarray  # (N+1, dim+2, k): zeta -> the feedback control

    @cached_property
    def closed_loop(self) -> tuple[np.ndarray, np.ndarray]:
        """(N+1)-node tables (M, F) of the closed-loop backward equation of (Y, Z),
        -dY = (M Y + C1h^T Z + F varphi-tilde + forcing_load u) dt - Z dW with
        M = A1h + F2h Pi2 - B2h R^-1 (B1h + Pi2 B2h)^T and F = F2h - B2h R^-1 B2h^T,
        whose product is the node rows of the system's B2_Rinv_B2T.  The residual
        table and the dual reserve read them."""
        sys, Pi2 = self.sys, self.pi2.values
        B2, F2 = sys.B2h.values, sys.F2h.values
        B2_Rinv = B2 @ sys.R_inv[::2]
        M = sys.A1h.values + F2 @ Pi2 - B2_Rinv @ _tr(sys.B1h.values + Pi2 @ B2)
        return M, F2 - sys.B2_Rinv_B2T[::2]

    @cached_property
    def residual_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, dim+2, dim) tables (-read_Y + dt drift, -read_Z) on zeta_i of the
        residual r_i = Y_{i+1} - Y_i + drift_i dt - Z_i dW_i (residual_samples);
        the known control's load is the drift's W and 1 rows."""
        sys, d = self.sys, self.sys.dim
        M, F = self.closed_loop
        u = sys.forcing_control
        drift = self.read_Y @ _tr(M)
        drift += self.read_Z @ sys.C1h.values
        drift[:, :d] += _tr(F)
        drift[:, d:] += _affine_rows(sys.forcing_load.values, u.u_const.values, u.u_lin.values)
        return sys.grid.dt * drift[:-1] - self.read_Y[:-1], -self.read_Z[:-1]


def _affine_rows(K: np.ndarray, const: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """The W and 1 rows, (N+1, 2, rows), of v -> K (const + lin W) as a map of zeta,
    for (N+1, rows, j) tables K and (N+1, j, 1) coefficients."""
    return _tr(np.concatenate([K @ lin, K @ const], axis=2))


def path_kernel(sys: StackedSystem, pi1: RiccatiPath, pi2: RiccatiPath) -> PathKernel:
    """A stacked system's path kernel: the auxiliary BSDE and the five tables on zeta.

    The forward offset's drift follows the decoupled system's display plus
    Pi2 forcing_load u for the known control u, and its diffusion the exact
    pathwise Z-relation (see _offset_diffusion).  X and Y are the two
    decoupling relations X = (I + Pi2 Pi1)^-1 (varphi-tilde - Pi2 phi-tilde)
    and Y = -(I + Pi1 Pi2)^-1 (Pi1 varphi-tilde + phi-tilde); Z's table
    -(I + Pi1 S1h)^-1 (Pi1 C1h X + Pi1 D1h^T Y + eta-tilde) is composed from
    theirs, and the feedback u = -R^-1 (B1h + Pi2 B2h)^T Y - R^-1 B2h^T
    varphi-tilde from Y's.  tilde-phi and u are folded into the W and 1
    rows here, once; the decoupling inverses are formed once, by
    _decoupling_inverses.
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
    B = B1 + Pi2 @ B2  # the feedback's Y loading, R u = -B^T Y - B2h^T varphi-tilde
    drift_mat = _tr(A1) + Pi2 @ F2 - B @ sys.R_inv[::2] @ _tr(B2) - coupler @ Pi1 @ C1
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
    Rinv_t = _tr(sys.R_inv[::2])
    read_u = -(read_Y @ B @ Rinv_t)
    read_u[:, :d] -= B2 @ Rinv_t
    return PathKernel(sys, pi2, step, read_X, read_Y, read_Z, read_u)


def reachable_max(table: np.ndarray, first_node: int = 0) -> float:
    """Max |entry| of a (nodes, dim+2, cols) table on zeta, the nodes counted
    from first_node, over the rows zeta can reach: at node 0, where
    zeta = (0, 0, 1), only the 1 row, and every row after that.  A table that
    reads 0 here reads 0 on every path."""
    entries = np.abs(table)
    if first_node == 0:
        entries[0, :-1] = 0.0
    return float(np.max(entries, initial=0.0))


def structural_defects(kernel: PathKernel) -> dict:
    """The structural identities of a stacked system as tables on zeta, each
    read by reachable_max once per kernel, for every path at once:

    decoupling X - Pi2 Y - varphi-tilde; initial coupling X(0) - G2h Y(0);
    terminal Y(T) - xi-hat(W(T)); and the maximum-principle condition
    B1h^T Y + B2h^T X + R u of the feedback u.  On the follower's system
    (B1h = 0, B2h = B1) the last is the follower's algebraic condition
    B1^T x + R1 u1.
    """
    sys, d = kernel.sys, kernel.sys.dim
    read_X, read_Y = kernel.read_X, kernel.read_Y
    decoupling = read_X - read_Y @ _tr(kernel.pi2.values)
    decoupling[:, :d] -= np.eye(d)
    terminal = read_Y[-1:].copy()  # xi-hat = a + b W(T) has rows (0, b^T, a^T)
    terminal[0, d] -= sys.xih.b[:, 0]
    terminal[0, -1] -= sys.xih.a
    stationarity = read_Y @ sys.B1h.values
    stationarity += read_X @ sys.B2h.values
    stationarity += kernel.read_u @ _tr(sys.R.values)
    return {
        "decoupling": reachable_max(decoupling),
        "initial_coupling": reachable_max(read_X[:1] - read_Y[:1] @ sys.G2h.T),
        "terminal": reachable_max(terminal, sys.grid.steps),
        "stationarity": reachable_max(stationarity),
    }


def check_feedback(kernel: PathKernel):
    """Compare the feedback table read_u with the maximum-principle form
    u = -R^-1 (B1h^T Y + B2h^T X) (check_forms_agree), equal through
    X = Pi2 Y + varphi-tilde; on the follower's system, the adjoint form."""
    sys = kernel.sys
    form = kernel.read_Y @ sys.B1h.values
    form += kernel.read_X @ sys.B2h.values
    form = -(form @ _tr(sys.R_inv[::2]))
    check_forms_agree(kernel.read_u, form, "feedback/maximum-principle control forms")


def embed(table: np.ndarray, before: int = 0, after: int = 0) -> np.ndarray:
    """A table on zeta = (tilde-varphi, W, 1) as the same map of a joint state
    (a, tilde-varphi, b, W, 1): zero rows for the before entries a and the after entries b."""
    d = table.shape[1] - 2
    out = np.zeros((table.shape[0], before + d + after + 2, table.shape[2]))
    out[:, before : before + d] = table[:, :d]
    out[:, -2:] = table[:, d:]
    return out


def affine_table(const: np.ndarray, lin: np.ndarray, dim: int) -> np.ndarray:
    """(N+1, dim+2, m) table on zeta of const(t) + lin(t) W(t), (N+1, m, 1) each."""
    return embed(_tr(np.concatenate([lin, const], axis=2)), before=dim)


def joint_step(first: PathKernel, second: PathKernel) -> np.ndarray:
    """The step table of the joint state xi = (tilde-varphi of first, tilde-varphi
    of second, W, 1) of two kernels: one Euler loop runs both on the same
    paths, and xi[..., first.sys.dim:] is second's zeta, a view."""
    a, b = first.sys.dim, second.sys.dim
    f, s = embed(first.step, after=b), embed(second.step, before=a)
    return np.concatenate([f[..., :a], s[..., :b], f[..., a:], s[..., b:]], axis=2)


def simulate_tilde_varphi(step: np.ndarray, bundle: PathBundle) -> np.ndarray:
    """Euler-Maruyama for forward offsets tilde-varphi(0) = 0 on the augmented
    state zeta = (tilde-varphi, W, 1), for a (N+1, D+2, 2D) step table of drift
    and diffusion columns (PathKernel.step, joint_step): tilde-varphi_{i+1} =
    zeta_i (I + dt drift_i) + dW_i zeta_i diffusion_i.  Returns (N+1, paths, D+2)."""
    d, grid = step.shape[2] // 2, bundle.grid
    drift = grid.dt * step[:, :, :d]
    drift[:, :d] += np.eye(d)
    diffusion = np.ascontiguousarray(step[:, :, d:])
    zeta = np.empty((grid.steps + 1, bundle.n_paths, d + 2))
    zeta[0, :, :d] = 0.0
    zeta[:, :, d] = bundle.W
    zeta[:, :, d + 1] = 1.0
    for i in range(grid.steps):
        noise = zeta[i] @ diffusion[i]
        noise *= bundle.dW[i, :, None]
        noise += zeta[i] @ drift[i]
        zeta[i + 1, :, :d] = noise
    return zeta


def residual_samples(
    kernel: PathKernel, zeta: np.ndarray, dW: np.ndarray
) -> tuple[np.ndarray, float]:
    """Discrete residual of the closed-loop BSDE for (Y, Z) on the paths of zeta,
    r_i = zeta_{i+1} read_Y_{i+1} + zeta_i T_i + dW_i zeta_i T'_i with the
    kernel's residual_table (T, T'): each path's accumulated squared residual
    sum_i ||r_i||^2, and the max single-step |r_i|."""
    left, noise_table = kernel.residual_table
    resid = zeta[:-1] @ noise_table
    resid *= dW[:, :, None]
    resid += zeta[:-1] @ left
    resid += zeta[1:] @ kernel.read_Y[1:]
    accumulated = np.einsum("ipj,ipj->p", resid, resid)
    return accumulated, float(np.max(np.abs(resid, out=resid)))


def residual_rms(accumulated: np.ndarray) -> float:
    """RMS over paths of the accumulated squared residuals of residual_samples,
    which scales like O(dt) for a consistent first-order scheme."""
    return float(np.sqrt(np.mean(accumulated)))


def form_table(
    grid: TimeGrid,
    weights: tuple[CoefficientPath, CoefficientPath, CoefficientPath, np.ndarray],
    reads: tuple[np.ndarray, np.ndarray, np.ndarray],
    step: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The (N+1, m, m) table H of a per-path form sum_i zeta_i H_i zeta_i^T on an
    augmented state zeta (form_samples), from the (y, u, z) read-out tables of
    a cost and its weights (Q, R, S, G): the cost 0.5 {int (y'Qy + u'Ru + z'Sz)
    dt + y(0)'G y(0)}, trapezoidal in time, or with the (dy, du, dz) tables of
    a step the cross term int (y'Q~dy + u'R~du + z'S~dz) dt + y(0)'G~dy(0) with
    the symmetric parts M~ = (M + M')/2, so J(base + eps step) = J(base)
    + eps cross + eps^2 J(step) exactly.  zeta(0) = (0, 0, 1) on every path,
    so the G term is the last diagonal entry of H_0.
    """
    mats, scale = (*(W.values for W in weights[:3]), weights[3]), 0.5
    if step is None:
        step = reads
    else:
        mats, scale = tuple(_sym(M) for M in mats), 1.0
    H = sum(L @ M @ _tr(K) for L, M, K in zip(reads, mats, step))
    H *= scale * grid.trapezoid_weights[:, None, None]
    H[0, -1, -1] += scale * (reads[0][0, -1] @ mats[3] @ step[0][0, -1])
    return H


def form_samples(H: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Per path, sum_i zeta_i H_i zeta_i^T of a form_table H on an augmented
    state zeta, (N+1, paths, m)."""
    return np.einsum("ipj,ipj->p", zeta @ H, zeta)


def cost_figures(samples: np.ndarray) -> dict:
    """A cost's summary entry {"mean", "stderr"} from its per-path samples
    (sampling.mean_stderr)."""
    mean, stderr = mean_stderr(samples)
    return {"mean": float(mean), "stderr": float(stderr)}


def column_labels(prefix: str, count: int, suffix: str = "") -> list[str]:
    """CSV column names prefix_1suffix, ..., prefix_<count>suffix."""
    return [f"{prefix}_{j + 1}{suffix}" for j in range(count)]


def paths_csv(
    nodes: np.ndarray,
    header: list[str],
    zeta: np.ndarray,
    table: np.ndarray,
    max_paths: int | None = None,
    first: int = 0,
) -> str:
    """Per-path CSV 'path,t,<header>' at the grid nodes, 17 significant digits.

    The columns of a path are its augmented state zeta, (N+1, paths, m),
    times the (N+1, m, cols) table, whose columns match header.  The paths
    are numbered from first, and those numbered below max_paths are listed.
    The header line opens the file, so it comes only with first = 0: the
    CSVs of consecutive path chunks join into the CSV of all their paths.
    """
    width = zeta.shape[1]
    count = width if max_paths is None else max(0, min(max_paths - first, width))
    # one block of rows per path; "%.17g" prints the float path number as the integer
    shape = (count, len(nodes), 1)
    rows = np.concatenate([
        np.broadcast_to(np.arange(first, first + count)[:, None, None], shape),
        np.broadcast_to(nodes[:, None], shape),
        np.swapaxes(zeta[:, :count] @ table, 0, 1),
    ], axis=2)
    header = ["path", "t", *header] if first == 0 else None
    return csv_block(rows.reshape(-1, rows.shape[2]), header)
