"""Shared fixtures: benchmark scenarios and solved pipelines.

Session-scoped where the underlying computation is deterministic and
reused across modules, so the suite stays fast.
"""

import io
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

import bsde_stackelberg as bs
from bsde_stackelberg.odeint import (
    COND_LIMIT,
    MAX_NORM,
    DivergenceError,
    OdeDirection,
    SingularityError,
    guarded_inv,
)
from bsde_stackelberg.oracle import PSD_TOL, OracleResult, _quadratic_pieces
from bsde_stackelberg.riccati import PI1_S1
from bsde_stackelberg.stacked import _affine_rows


@pytest.fixture(scope="session")
def hand_spec():
    """Scalar benchmark with a fully hand-integrable solution."""
    return bs.hand_solvable_scenario(steps=1000)


@pytest.fixture(scope="session")
def hand_spec_coarse():
    return bs.hand_solvable_scenario(steps=256)


@pytest.fixture(scope="session")
def stochastic_spec():
    return bs.stochastic_scenario(steps=512)


@pytest.fixture(scope="session")
def hand_riccati(hand_spec):
    p1 = bs.solve_p1(hand_spec)
    p2 = bs.solve_p2(hand_spec, p1)
    return p1, p2


@dataclass
class PathArrays:
    """Reference path arrays of a path kernel on a bundle of paths (path_arrays).

    On the leader's kernel X stacks (phibar, q), Y stacks (p, ybar) and Z
    stacks (k, zbar), u2 is the leader's control and u1 the follower's; on
    the follower's kernel X is the adjoint state, (Y, Z) the backward pair
    and u1 the feedback control.
    """

    kernel: object  # stacked.PathKernel
    bundle: object  # sampling.PathBundle
    zeta: np.ndarray  # (N+1, paths, dim+2): (tilde-varphi, W, 1)
    X: np.ndarray  # (N+1, paths, dim)
    Y: np.ndarray
    Z: np.ndarray
    u1: np.ndarray  # (N+1, paths, k)
    u2: np.ndarray = None

    @property
    def grid(self):
        return self.kernel.sys.grid

    @property
    def n(self) -> int:
        return self.kernel.sys.n

    @property
    def phibar(self) -> np.ndarray:
        return self.X[:, :, : self.n]

    @property
    def ybar(self) -> np.ndarray:
        return self.Y[:, :, self.n :]

    @property
    def zbar(self) -> np.ndarray:
        return self.Z[:, :, self.n :]


def path_arrays(kernel, bundle, read_u1=None):
    """A kernel's processes on a bundle's paths, each the Euler augmented state
    zeta times one of the kernel's tables.  Without read_u1 (the follower's
    kernel) u1 is zeta read_u; with it (the leader's) u1 is zeta read_u1 and
    u2 is zeta read_u."""
    zeta = bs.simulate_tilde_varphi(kernel.step, bundle)
    X, Y, Z, u = (zeta @ t for t in (kernel.read_X, kernel.read_Y, kernel.read_Z, kernel.read_u))
    if read_u1 is None:
        return PathArrays(kernel, bundle, zeta, X, Y, Z, u)
    return PathArrays(kernel, bundle, zeta, X, Y, Z, zeta @ read_u1, u)


def equilibrium_arrays(sol, bundle):
    """The leader's path arrays of an equilibrium layer on a bundle of paths."""
    return path_arrays(sol.kernel, bundle, sol.read_u1)


def csv_text(writer, *args) -> str:
    """The text that a CSV writer, writer(*args, out), writes to out."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


def assert_csv_blocks(text, blocks, paths, rel=1e-14):
    """Check a per-path CSV against reference path arrays, block by block in header
    order.  blocks lists (column name prefix, (N+1, paths, width) array); the CSV
    must list paths 0, ..., paths - 1, and on each a block's columns must agree
    with its array within rel of the array's largest entry on that path."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert header[:2] == ["path", "t"]
    assert np.array_equal(np.unique(rows[:, 0]), np.arange(paths))
    col = 2
    for prefix, want in blocks:
        width = want.shape[2]
        assert [h.rsplit("_", 1)[0] for h in header[col : col + width]] == [prefix] * width
        for p in range(paths):
            got, ref = rows[rows[:, 0] == p, col : col + width], want[:, p]
            assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref)), (prefix, p)
        col += width
    assert col == len(header)


def follower_cost_samples(spec, ens):
    """The follower's per-path J1 on its path arrays, a form on their zeta."""
    return bs.form_samples(bs.follower_cost_table(spec, ens.kernel), ens.zeta)


def leader_cost_samples(sol, ens):
    """The leader's per-path J2 on an equilibrium's path arrays, a form on their zeta."""
    return bs.form_samples(sol.forms["J2"], ens.zeta)


@pytest.fixture(scope="session")
def hand_follower(hand_spec, hand_riccati):
    """The follower's state and feedback for u2 = 0 on 4 paths."""
    p1, p2 = hand_riccati
    u2 = bs.AffineControl.zero(hand_spec.grid, hand_spec.dims.k)
    kernel = bs.follower_kernel(hand_spec, p1, p2, u2)
    return path_arrays(kernel, bs.sample_brownian(hand_spec.grid, 4, 0))


def solved(spec, paths, seed):
    """An equilibrium layer of spec and its path arrays on a bundle of paths drawn with seed."""
    sol = bs.equilibrium_layer(spec)
    return sol, equilibrium_arrays(sol, bs.sample_brownian(spec.grid, paths, seed))


@pytest.fixture(scope="session")
def hand_solution(hand_spec):
    return solved(hand_spec, 4, 0)


@pytest.fixture(scope="session")
def stochastic_solution(stochastic_spec):
    return solved(stochastic_spec, 256, 3)


@pytest.fixture(scope="session")
def market():
    return bs.MarketParams.constant(
        1.0, 100, r=0.03, mu=0.08, sigma=0.25, R1=1.0, R2=1.5, G1=1.0, G2=0.8, a=1.0, b=0.3
    )


@pytest.fixture(scope="session")
def consumption(market):
    """The consumption market's equilibrium on 2000 paths."""
    return solved(bs.build_finance_spec(market), 2000, 5)


def scenario_document(spec, mode="strict", u2=None, market=None):
    """JSON-ready dict for an LQGameSpec (constant coefficients assumed)."""
    doc = {
        "dims": {"n": spec.dims.n, "d": 1, "k": spec.dims.k},
        "horizon": spec.grid.horizon,
        "steps": spec.grid.steps,
        "coefficients": {
            name: {"constant": getattr(spec, name).values[0].ravel().tolist()}
            for name in ("A", "B1", "B2", "C", "Q1", "R1", "S1", "Q2", "R2", "S2")
        },
        "weights": {"G1": spec.G1.tolist(), "G2": spec.G2.tolist()},
        "terminal": {"a": spec.xi.a.tolist(), "b": spec.xi.b.tolist()},
        "mode": mode,
    }
    if u2 is not None:
        doc["u2"] = u2
    if market is not None:
        doc["market"] = market
    return doc


def singular_stage_document():
    """Permissive n = 2 game with A = Q1 = C = 0, B1 = R1 = I and S1 = diag(-2, 1):
    P1 = (1 - t) I, so I + P1 S1 = diag(2t - 1, 2 - t) is singular at t = 0.5."""
    eye, zero = [1.0, 0.0, 0.0, 1.0], [0.0] * 4
    coefficients = {name: {"constant": zero} for name in ("A", "C", "Q1", "Q2", "S2")}
    coefficients.update({name: {"constant": eye} for name in ("B1", "B2", "R1", "R2")})
    coefficients["S1"] = {"constant": [-2.0, 0.0, 0.0, 1.0]}
    return {
        "dims": {"n": 2, "k": 2},
        "horizon": 1.0,
        "steps": 100,
        "coefficients": coefficients,
        "weights": {"G1": eye, "G2": eye},
        "terminal": {"a": [1.0, 0.0], "b": [[0.0], [0.0]]},
        "mode": "permissive",
    }


def random_deterministic_scenario(rng, steps=256):
    """Scalar scenario with coefficients in [-1, 1] and weights in [0.5, 2],
    deterministic terminal datum (for the brute-force oracles)."""

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    return bs.make_constant_spec(
        1.0, steps,
        A=u(-1, 1), B1=u(-1, 1), B2=u(-1, 1), C=0.0,
        Q1=u(0.5, 2), R1=u(0.5, 2), S1=u(0.5, 2), G1=u(0.5, 2),
        Q2=u(0.5, 2), R2=u(0.5, 2), S2=u(0.5, 2), G2=u(0.5, 2),
        a=u(-1, 1), b=0.0,
    )


def solvability_scan(blockmatrix, grid):
    """Scan det of the lower-right block of e^(M t) over the grid nodes.

    Returns the determinant det{(0, I) e^(M t) (0; I)} at each node t;
    the representation of the associated Riccati solution exists iff all
    of them are strictly positive.
    """
    m = np.atleast_2d(np.asarray(blockmatrix, dtype=float))
    if m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise ValueError(f"block matrix must be square with even size, got {m.shape}")
    step = bs.matrix_exponential(m * grid.dt)
    acc = np.empty((grid.steps + 1, *m.shape))
    acc[0] = np.eye(m.shape[0])
    for i in range(grid.steps):
        acc[i + 1] = step @ acc[i]
    half = m.shape[0] // 2
    return np.linalg.det(acc[:, half:, half:])


def xi_on_paths(xi, W_T):
    """(paths, n) values of a terminal datum xi = a + b W(T) at terminal Brownian
    values W_T of shape (paths,)."""
    return xi.a[None] + W_T[:, None] * xi.b[:, 0][None]


def p1_closed_form(m):
    """P1 of a constant consumption market, a scalar linear ODE's solution:
    P1(t) = (e^(lam (T - t)) - 1) / (R1 lam) with lam = theta^2 - 2r,
    degenerating to (T - t)/R1 when lam = 0."""
    if any(np.ptp(getattr(m, name).values) != 0.0 for name in ("r", "mu", "sigma", "R1")):
        raise ValueError("closed form requires constant r, mu, sigma, R1")
    r = float(m.r.values[0, 0, 0])
    theta = float(m.theta().values[0, 0, 0])
    R1 = float(m.R1.values[0, 0, 0])
    lam = theta**2 - 2.0 * r
    tau = m.grid.horizon - m.grid.nodes
    if abs(lam) < 1e-14:
        return tau / R1
    return np.expm1(lam * tau) / (R1 * lam)


def specialized_stacked_matrices(m, p1, p2):
    """The consumption game's 2x2 stacked matrices, written out as scalar formulas
    independently of the generic block assembly (C = -theta, S1 = Q1 = 0):
    C1-hat = diag(-theta, -theta), D1-hat's off-diagonal entries are P2 C and
    F1-hat's are P2 C P1 C P2."""
    nn = m.grid.steps + 1
    theta = m.theta().values[:, 0, 0]
    r = m.r.values[:, 0, 0]
    R1 = m.R1.values[:, 0, 0]
    P1 = p1.values[:, 0, 0]
    P2 = p2.values[:, 0, 0]

    A1h = np.zeros((nn, 2, 2))
    A1h[:, 0, 0] = A1h[:, 1, 1] = -r - P2 / R1
    B1h = np.zeros((nn, 2, 1))
    B1h[:, 0, 0] = P2
    B2h = np.zeros((nn, 2, 1))
    B2h[:, 1, 0] = 1.0
    C1h = np.zeros((nn, 2, 2))
    C1h[:, 0, 0] = C1h[:, 1, 1] = -theta
    D1h = np.zeros((nn, 2, 2))
    D1h[:, 0, 1] = D1h[:, 1, 0] = -P2 * theta
    F1h = np.zeros((nn, 2, 2))
    F1h[:, 0, 1] = F1h[:, 1, 0] = theta**2 * P2**2 * P1
    F2h = np.zeros((nn, 2, 2))
    F2h[:, 0, 1] = F2h[:, 1, 0] = -1.0 / R1
    S1h = np.zeros((nn, 2, 2))
    S1h[:, 0, 1] = S1h[:, 1, 0] = -P2
    return {
        "A1h": A1h, "B1h": B1h, "B2h": B2h, "C1h": C1h,
        "D1h": D1h, "F1h": F1h, "F2h": F2h, "S1h": S1h,
    }


def dense_game(steps=40):
    """n = 3, k = 2 game with non-symmetric A, C != 0 and a random terminal datum."""
    return bs.make_constant_spec(
        1.0, steps,
        A=[[0.1, 0.8, 0.0], [-0.6, 0.2, 0.3], [0.1, -0.4, -0.1]],
        B1=[[1.0, 0.0], [0.3, 0.5], [0.0, 0.8]],
        B2=[[0.2, 0.1], [1.0, 0.0], [0.0, 0.6]],
        C=[[0.3, 0.1, 0.0], [-0.1, 0.2, 0.1], [0.0, 0.05, 0.25]],
        Q1=[[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]],
        R1=[[1.0, 0.2], [0.2, 0.8]],
        S1=[[0.2, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.15]],
        G1=[[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]],
        Q2=[[0.3, 0.0, 0.1], [0.0, 0.2, 0.0], [0.1, 0.0, 0.4]],
        R2=[[1.2, -0.1], [-0.1, 0.9]],
        S2=0.1 * np.eye(3),
        G2=[[1.0, 0.2, 0.0], [0.2, 0.7, 0.1], [0.0, 0.1, 0.5]],
        a=[0.5, -0.3, 0.2], b=[1.0, 0.5, -0.4],
    )


# a rank-one PSD state weight that strict validation accepts, but whose scaled
# copies eigvalsh reads slightly negative, so the QP oracles' cheap certificate
# fails and their KKT inertia decides convexity
RANK_ONE_Q1 = [[0.3, 0.1], [0.1, 1 / 30]]


def c_zero_game(steps=64, c=0.0, **weights):
    """n = k = 2 game with every C entry equal to c (0 by default, the QP oracle's
    regime), S1 != 0, non-symmetric A and a deterministic terminal datum; weights
    replace its coefficients by name."""
    return bs.make_constant_spec(1.0, steps, **{
        "A": [[0.2, 0.7], [-0.5, -0.1]],
        "B1": [[1.0, 0.2], [0.3, 0.8]],
        "B2": [[0.4, 0.0], [0.1, 0.9]],
        "C": np.full((2, 2), c),
        "Q1": [[0.5, 0.1], [0.1, 0.3]],
        "R1": [[1.0, 0.2], [0.2, 0.8]],
        "S1": [[0.2, 0.05], [0.05, 0.1]],
        "G1": [[0.5, 0.1], [0.1, 0.4]],
        "Q2": [[0.3, 0.1], [0.1, 0.4]],
        "R2": [[1.2, -0.1], [-0.1, 0.9]],
        "S2": 0.1 * np.eye(2),
        "G2": [[1.0, 0.2], [0.2, 0.7]],
        "a": [0.5, -0.3], "b": [0.0, 0.0],
    } | weights)


def _tr(M):
    return np.swapaxes(M, -1, -2)


def _sym(M):
    return 0.5 * (M + _tr(M))


def affine_pathwise(const, lin, W):
    """(N+1, paths, m) values of const(t) + lin(t) W(t) for (N+1, m, 1) node arrays,
    along Brownian paths W (N+1, paths): an affine BSDE solution's alpha + beta W,
    or an affine control's u_const + u_lin W."""
    return const[:, None, :, 0] + W[:, :, None] * lin[:, None, :, 0]


def u2_pathwise(u2, W):
    """(N+1, paths, k) values of an affine control along paths."""
    return affine_pathwise(u2.u_const.values, u2.u_lin.values, W)


def bilinear_form(v, M, w):
    """v' M w over the last axis; M is one matrix or a stack matching v's first axis."""
    return np.einsum("...j,...j->...", v @ M, w)


def cost_samples(grid, y, u, z, Q, R, S, G):
    """Reference formula of a cost on path arrays: per path,
    0.5 { int (y'Qy + u'Ru + z'Sz) dt + y(0)'G y(0) }, trapezoidal in time.
    y, u and z are (N+1, paths, dim); a term may broadcast over paths."""
    integrand = bilinear_form(y, Q.values, y)
    integrand += bilinear_form(u, R.values, u)
    integrand += bilinear_form(z, S.values, z)
    time_integral = np.trapezoid(integrand, dx=grid.dt, axis=0)
    return 0.5 * (time_integral + bilinear_form(y[0], G, y[0]))


def quadratic_expansion(grid, base, step, Q, R, S, G):
    """Reference formula of a cost's cross term along a step on path arrays: per
    path, int (y'Q~dy + u'R~du + z'S~dz) dt + y(0)'G~dy(0) with the symmetric
    parts M~ = (M + M')/2, so J(base + eps step) = J(base) + eps cross
    + eps^2 cost(step).  base and step are (y, u, z) triples of
    (N+1, paths, dim) arrays; a step may broadcast over paths."""
    y, u, z = base
    dy, du, dz = step
    integrand = bilinear_form(y, _sym(Q.values), dy)
    integrand += bilinear_form(u, _sym(R.values), du)
    integrand += bilinear_form(z, _sym(S.values), dz)
    cross = np.trapezoid(integrand, dx=grid.dt, axis=0)
    return cross + bilinear_form(y[0], _sym(G), dy[0])


def closed_loop_reference(sys, pi2):
    """The former PathKernel.closed_loop, as its reference: the (N+1)-node tables
    M = A1h + F2h Pi2 - B2h R^-1 (B1h + Pi2 B2h)^T and F = F2h - B2h R^-1 B2h^T,
    formed from their own products rather than from the kernel's feedback gain."""
    Pi2, B2, F2 = pi2.values, sys.B2h.values, sys.F2h.values
    B2_Rinv = B2 @ sys.R_inv[::2]
    M = sys.A1h.values + F2 @ Pi2 - B2_Rinv @ _tr(sys.B1h.values + Pi2 @ B2)
    return M, F2 - sys.B2_Rinv_B2T[::2]


def decoupling_inverses_reference(sys, pi1, pi2):
    """The former stacked._decoupling_inverses, as its reference: (I + Pi1 S1h)^-1,
    (I + Pi1 Pi2)^-1 and (I + Pi2 Pi1)^-1 as node tables, the last gated and
    inverted on its own rather than as the transpose of the second."""
    eye, nodes = np.eye(sys.dim), sys.grid.nodes
    Pi1, Pi2 = pi1.values, pi2.values
    return (
        pi1.s1_inverse[::2],
        guarded_inv(eye + Pi1 @ Pi2, nodes, "(I + Pi1 Pi2)"),
        guarded_inv(eye + Pi2 @ Pi1, nodes, "(I + Pi2 Pi1)"),
    )


def kernel_tables_reference(sys, pi1, pi2):
    """The path kernel's step, read_X and read_u as stacked.path_kernel formed them
    before its one closed loop and one decoupling inverse, as their reference: the
    forward offset's drift written out transposed, A1h^T + Pi2 F2h
    - (B1h + Pi2 B2h) R^-1 B2h^T - coupler Pi1 C1h, and X read through
    (I + Pi2 Pi1)^-1 (decoupling_inverses_reference)."""
    alpha, eta = bs.solve_tilde_phi(sys, pi1)
    u, d = sys.forcing_control, sys.dim
    A1, B1, B2 = sys.A1h.values, sys.B1h.values, sys.B2h.values
    C1, D1, F2 = sys.C1h.values, sys.D1h.values, sys.F2h.values
    Pi1, Pi2 = pi1.values, pi2.values
    inv_s, inv_12, inv_21 = decoupling_inverses_reference(sys, pi1, pi2)
    coupler = (D1 + Pi2 @ _tr(C1)) @ inv_s
    mix = (Pi2 - sys.S1h.values) @ inv_s
    B, Rinv_t = B1 + Pi2 @ B2, _tr(sys.R_inv[::2])
    drift_mat = _tr(A1) + Pi2 @ F2 - B @ sys.R_inv[::2] @ _tr(B2) - coupler @ Pi1 @ C1
    cfac, dfac = C1 + mix @ Pi1 @ C1, _tr(D1) + mix @ Pi1 @ _tr(D1)
    diff_varphi = cfac @ inv_21 - dfac @ inv_12 @ Pi1
    diff_phi = -cfac @ inv_21 @ Pi2 - dfac @ inv_12
    step = np.empty((sys.grid.steps + 1, d + 2, 2 * d))
    step[:, :d, :d], step[:, :d, d:] = _tr(drift_mat), _tr(diff_varphi)
    step[:, d:, :d] = _affine_rows(Pi2 @ sys.forcing_load.values, u.u_const.values, u.u_lin.values)
    step[:, d:, d:] = _affine_rows(diff_phi, alpha, eta)
    step[:, -1, :d] -= (coupler @ eta)[:, :, 0]
    step[:, -1, d:] += (mix @ eta)[:, :, 0]
    read_X = np.concatenate([_tr(inv_21), _affine_rows(-inv_21 @ Pi2, alpha, eta)], axis=1)
    read_Y = np.concatenate([-_tr(inv_12 @ Pi1), _affine_rows(-inv_12, alpha, eta)], axis=1)
    read_u = -(read_Y @ B @ Rinv_t)
    read_u[:, :d] -= B2 @ Rinv_t
    return step, read_X, read_u


def oracle_steps_reference(spec):
    """The former RK4 stages of oracle.build_discrete_problem, as their reference:
    one step of y' = -(A y + B1 u1 + B2 u2) from t_{i+1} back to t_i on the
    n x (n + 2k) iterate [state basis | unit u1 | unit u2], k1-k4 written out.
    Returns its [E | F1 | F2], (N, n, n + 2k)."""
    n, k, grid = spec.dims.n, spec.dims.k, spec.grid
    N, h = grid.steps, -grid.dt

    def rate(t):
        A = spec.A(t)
        G = np.concatenate([np.zeros((N, n, n)), spec.B1(t), spec.B2(t)], axis=2)
        return lambda M: -(A @ M + G)

    t1 = grid.nodes[1:]
    f1, fm, f0 = rate(t1), rate(t1 + 0.5 * h), rate(t1 + h)
    M = np.tile(np.hstack([np.eye(n), np.zeros((n, 2 * k))]), (N, 1, 1))
    k1 = f1(M)
    k2 = fm(M + 0.5 * h * k1)
    k3 = fm(M + 0.5 * h * k2)
    k4 = f0(M + h * k3)
    return M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bsde_residual_samples(ens):
    """Reference formula of the closed-loop BSDE residual on path arrays:
    r_i = Y_{i+1} - Y_i + drift_i dt - Z_i dW_i with the drift
    M Y + C1h^T Z + F varphi-tilde + forcing_load u at the left node.  Returns
    each path's sum_i ||r_i||^2 and the max single-step |r_i|."""
    sys = ens.kernel.sys
    M, F = closed_loop_reference(sys, ens.kernel.pi2)
    u = u2_pathwise(sys.forcing_control, ens.bundle.W)
    drift = ens.Y[:-1] @ _tr(M[:-1])
    drift += ens.Z[:-1] @ sys.C1h.values[:-1]
    drift += ens.zeta[:-1, :, : sys.dim] @ _tr(F[:-1])
    drift += u[:-1] @ _tr(sys.forcing_load.values[:-1])
    resid = ens.Y[1:] - ens.Y[:-1] + sys.grid.dt * drift - ens.Z[:-1] * ens.bundle.dW[:, :, None]
    return np.einsum("ipj,ipj->p", resid, resid), float(np.max(np.abs(resid)))


def dual_coefficients(sol):
    """Node tables (a, c, F) of the dual propagator d(Gamma) = a Gamma dt
    + c Gamma dW, a = M^T and c = C1h, and of its forcing f = F varphi-tilde,
    from the closed loop of sol's system (closed_loop_reference)."""
    M, F = closed_loop_reference(sol.system, sol.pi2)
    return _tr(M), sol.system.C1h.values, F


def gamma_step(gamma, a_i, a_ip1, c_i, dt, dW):
    """One forward propagator step on a (paths, 2n, 2n) stack: trapezoidal
    drift, Milstein diffusion.  Exact to O(dt^2) when the diffusion vanishes."""
    drift0 = np.einsum("ij,pjk->pik", a_i, gamma)
    diff = np.einsum("ij,pjk->pik", c_i, gamma)
    pred = gamma + dt * drift0 + dW[:, None, None] * diff
    drift1 = np.einsum("ij,pjk->pik", a_ip1, pred)
    milstein = np.einsum("ij,pjk->pik", c_i, diff)
    return (
        gamma
        + 0.5 * dt * (drift0 + drift1)
        + dW[:, None, None] * diff
        + 0.5 * (dW**2 - dt)[:, None, None] * milstein
    )


def reserve_reference(sol, zeta, bundle):
    """Reference formula of the dual reserve samples, forward on the propagator
    stack: per path, Gamma(T)^T xi-hat + trapezoid(Gamma(t)^T f(t)) with
    f = F varphi-tilde read off the augmented state zeta, (paths, 2n)."""
    a, c, F = dual_coefficients(sol)
    grid, m = sol.system.grid, sol.system.dim
    gamma = np.broadcast_to(np.eye(m), (bundle.n_paths, m, m)).copy()
    integrand = [np.einsum("pji,pj->pi", gamma, zeta[0, :, :m] @ F[0].T)]
    for i in range(grid.steps):
        gamma = gamma_step(gamma, a[i], a[i + 1], c[i], grid.dt, bundle.dW[i])
        integrand.append(np.einsum("pji,pj->pi", gamma, zeta[i + 1, :, :m] @ F[i + 1].T))
    xi_hat = xi_on_paths(sol.system.xih, bundle.W[-1])
    return np.einsum("pji,pj->pi", gamma, xi_hat) + np.trapezoid(integrand, dx=grid.dt, axis=0)


def follower_pathwise_defects(spec, ens):
    """The follower's structural identities along its path arrays, as reference
    formulas on the path arrays: max |defect| over nodes and paths of each."""
    varphi = ens.zeta[..., : spec.dims.n]
    gaps = {
        "terminal": ens.Y[-1] - xi_on_paths(spec.xi, ens.bundle.W[-1]),
        "initial_coupling": ens.X[0] - ens.Y[0] @ spec.G1.T,
        "decoupling": ens.X - ens.Y @ _tr(ens.kernel.pi2.values) - varphi,
        "stationarity": ens.X @ spec.B1.values + ens.u1 @ _tr(spec.R1.values),
        "adjoint_form": ens.u1 + ens.X @ spec.B1.values @ _tr(spec.R1_inv[::2]),
    }
    return {key: float(np.max(np.abs(gap))) for key, gap in gaps.items()}


def leader_pathwise_defects(sol, ens):
    """The equilibrium's structural identities along its path arrays ens, as
    reference formulas on them: max |defect| over nodes and paths of each.
    "follower" is the follower's condition at x = P2 ybar + phibar, and
    "u1_forms" compares u1 with its stacked form -R1^-1 B1^T (P2 ybar + (Pi2 Y +
    varphi-tilde)_1)."""
    spec, sys = sol.spec, sol.system
    n, Pi2, P2 = spec.dims.n, sol.pi2.values, sol.p2.values
    gains_t = spec.B1.values @ _tr(spec.R1_inv[::2])
    x = ens.ybar @ _tr(P2) + ens.phibar
    varphi = ens.zeta[..., : sys.dim]
    x_stacked = ens.ybar @ _tr(P2) + (ens.Y @ _tr(Pi2) + varphi)[:, :, :n]
    gaps = {
        "terminal": ens.Y[-1] - xi_on_paths(sys.xih, ens.bundle.W[-1]),
        "initial_coupling": ens.X[0] - ens.Y[0] @ sys.G2h.T,
        "decoupling": ens.X - ens.Y @ _tr(Pi2) - varphi,
        "stationarity": (
            ens.Y @ sys.B1h.values + ens.X @ sys.B2h.values + ens.u2 @ _tr(spec.R2.values)
        ),
        "follower": x @ spec.B1.values + ens.u1 @ _tr(spec.R1.values),
        "u1_forms": ens.u1 + x_stacked @ gains_t,
    }
    return {key: float(np.max(np.abs(gap))) for key, gap in gaps.items()}


def state_maps(prob):
    """The former DiscreteLQProblem.state_maps, the dense oracles' affine map
    (u1, u2) -> node states y_i = c_i + S_i u1 + T_i u2 of step-major controls:
    c (N+1, n), S and T (N+1, n, N*k)."""
    n, k = prob.spec.dims.n, prob.spec.dims.k
    N = prob.spec.grid.steps
    c = np.zeros((N + 1, n))
    S = np.zeros((N + 1, n, N * k))
    T = np.zeros((N + 1, n, N * k))
    c[N] = prob.spec.xi.a
    for i in range(N - 1, -1, -1):
        c[i] = prob.E[i] @ c[i + 1]
        S[i] = prob.E[i] @ S[i + 1]
        T[i] = prob.E[i] @ T[i + 1]
        S[i, :, i * k : (i + 1) * k] += prob.F1[i]
        T[i, :, i * k : (i + 1) * k] += prob.F2[i]
    return c, S, T


def gram(S, W, T):
    """sum_i S_i' W_i T_i over the nodes: one GEMM over the flattened (N+1) n state rows."""
    return S.reshape(-1, S.shape[-1]).T @ (W @ T).reshape(-1, T.shape[-1])


def hessian(S, W, R_bar):
    """Hessian S'WS + block_diag(R_bar) of a cost over the controls whose node
    states are c + S u; R_bar adds to its N diagonal k x k blocks."""
    N, k = R_bar.shape[:2]
    H = gram(S, W, S)
    H.reshape(N, k, N, k)[np.arange(N), :, np.arange(N), :] += R_bar
    return H


class DenseNonConvexError(ValueError):
    """The dense gate's rejection: the condensed Hessian is not PSD."""

    def __init__(self, min_eig):
        self.min_eig = min_eig
        super().__init__(f"discrete cost Hessian not PSD (min eigenvalue {min_eig:.3e})")


def convex(H):
    """The oracles' former dense gate: the symmetrized Hessian, or DenseNonConvexError
    unless it is positive semidefinite.  A Cholesky factorization certifies it;
    only when it fails is the minimum eigenvalue computed and held to
    -PSD_TOL max(1, max|H|)."""
    H = 0.5 * (H + H.T)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(H).min())
        if min_eig < -PSD_TOL * max(1.0, float(np.abs(H).max())):
            raise DenseNonConvexError(min_eig) from None
    return H


def dense_hessians(prob):
    """The follower's condensed Hessian H1 in u1, and the leader's H2 in u2 through
    the follower's response (the oracles' former dense convexity route): u2 moves
    the states along the reduced map T + S u1_lin, u1_lin = -H1^-1 sum_i S_i' W1_i T_i.
    H2 is None when H1 is singular."""
    spec, nodes = prob.spec, prob.spec.grid.nodes
    _, S, T = state_maps(prob)
    W1 = _quadratic_pieces(prob, spec.Q1(nodes), spec.G1)
    W2 = _quadratic_pieces(prob, spec.Q2(nodes), spec.G2)
    H1 = hessian(S, W1, prob.R1_bar)
    try:
        u1_lin = np.linalg.solve(H1, -gram(S, W1, T))
    except np.linalg.LinAlgError:
        return H1, None
    T_red = T + (S.reshape(-1, S.shape[-1]) @ u1_lin).reshape(T.shape)
    return H1, hessian(T_red, W2, prob.R2_bar)


def cost_terms_reference(S, W, c, R_bar):
    """The QP oracle's former Hessian and gradient by einsum over the nodes:
    H = sum_i S_i' W_i S_i + block_diag(R_bar) and g = sum_i S_i' W_i c_i."""
    H = np.einsum("inm,inp,ipq->mq", S, W, S, optimize=True)
    g = np.einsum("inm,inp,ip->m", S, W, c, optimize=True)
    return H + scipy.linalg.block_diag(*R_bar), g


def cross_term_reference(S, W, T):
    """The leader oracle's former g1_lin = sum_i S_i' W_i T_i, by einsum."""
    return np.einsum("inm,inp,ipq->mq", S, W, T, optimize=True)


def reduced_map_reference(T, S, u_lin):
    """The leader oracle's former reduced state map T + S u_lin, by einsum."""
    return T + np.einsum("inm,mq->inq", S, u_lin)


def affine_map(c0, S, u):
    """Node states c0 + S u of a flattened control u; c0 is (N+1, n) or (N+1, n, q)."""
    return c0 + (S.reshape(-1, S.shape[-1]) @ u).reshape(c0.shape)


def cost_terms(W, c, S, R_bar):
    """H, g, const of 0.5 u'Hu + g'u + const for one player's cost over the
    controls whose node states are c + S u, with state weights W."""
    g = gram(S, W, c[..., None])[:, 0]
    const = 0.5 * float(np.einsum("in,inp,ip->", c, W, c, optimize=True))
    return hessian(S, W, R_bar), g, const


def solve_qp(H, g):
    """Minimizer of 0.5 u'Hu + g'u after the convexity gate, and |Hu + g|."""
    H = convex(H)
    u = np.linalg.solve(H, -g)
    return u, float(np.linalg.norm(H @ u + g))


def dense_follower_oracle(prob, u2):
    """The follower oracle's former condensed form, as the banded one's reference:
    the states eliminated through the state maps, one dense solve in u1."""
    spec = prob.spec
    grid = spec.grid
    c0, S, T = state_maps(prob)
    u2 = np.asarray(u2, dtype=float).reshape(grid.steps * spec.dims.k)
    W1 = _quadratic_pieces(prob, spec.Q1(grid.nodes), spec.G1)
    H, g, const = cost_terms(W1, affine_map(c0, T, u2), S, prob.R1_bar)
    u, grad = solve_qp(H, g)
    cost = 0.5 * float(u @ H @ u) + float(g @ u) + const
    return OracleResult(u.reshape(grid.steps, spec.dims.k), cost, grad)


def dense_leader_oracle(prob):
    """The leader oracle's former condensed form: the follower's argmin
    u1*(u2) = -H1^-1 (g1 + B12 u2) substituted, one dense solve in u2."""
    spec = prob.spec
    grid = spec.grid
    N, k = grid.steps, spec.dims.k
    c0, S, T = state_maps(prob)
    W1 = _quadratic_pieces(prob, spec.Q1(grid.nodes), spec.G1)
    H1, g1_const, _ = cost_terms(W1, c0, S, prob.R1_bar)
    H1 = convex(H1)
    u1_affine = np.linalg.solve(H1, -np.column_stack([g1_const, gram(S, W1, T)]))
    u1_const, u1_lin = u1_affine[:, 0], u1_affine[:, 1:]
    W2 = _quadratic_pieces(prob, spec.Q2(grid.nodes), spec.G2)
    H2, g2, const2 = cost_terms(
        W2, affine_map(c0, S, u1_const), affine_map(T, S, u1_lin), prob.R2_bar
    )
    u2, grad = solve_qp(H2, g2)
    cost = 0.5 * float(u2 @ H2 @ u2) + float(g2 @ u2) + const2
    u1 = u1_const + u1_lin @ u2
    return OracleResult(u2.reshape(N, k), cost, grad, inner_control=u1.reshape(N, k))


def rk4_reversed_time(field, boundary_value, grid, direction, postprocess=None):
    """The former RK4 loop of odeint.integrate_matrix_ode, as its reference: a
    backward problem is integrated forward in s = T - t with the negated field
    at half-step index 2N - j, and the nodes are reversed at the end."""
    m = np.atleast_2d(np.asarray(boundary_value, dtype=float))
    N, dt = grid.steps, grid.dt
    backward = direction is OdeDirection.BACKWARD

    def f(j, m):
        if backward:
            return -np.asarray(field(2 * N - j, m), dtype=float)
        return np.asarray(field(j, m), dtype=float)

    out = np.empty((N + 1, *m.shape))
    out[0] = m
    for i in range(N):
        j = 2 * i
        k1 = f(j, m)
        k2 = f(j + 1, m + 0.5 * dt * k1)
        k3 = f(j + 1, m + 0.5 * dt * k2)
        k4 = f(j + 2, m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if postprocess is not None:
            m = postprocess(m)
        if not np.all(np.isfinite(m)) or np.max(np.abs(m)) > MAX_NORM:
            raise DivergenceError(float(grid.nodes[N - i - 1 if backward else i + 1]))
        out[i + 1] = m
    return out[::-1] if backward else out


def svd_gate(stack, t, label):
    """The former odeint.check_invertible, as the certified gate's reference: one
    batched SVD cond of the whole (K, m, m) stack; SingularityError at the time of
    the first non-finite matrix, or the first with cond above COND_LIMIT."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    cond = np.linalg.cond(np.where(finite[:, None, None], stack, 0.0))
    bad = ~finite | ~(cond <= COND_LIMIT)
    if bad.any():
        raise SingularityError(float(np.broadcast_to(t, bad.shape)[bad.argmax()]), label)


def svd_guarded_inv(m, t, label):
    """The former odeint.guarded_inv: the SVD gate, then one batched inv."""
    m = np.atleast_2d(m)
    svd_gate(m.reshape(-1, *m.shape[-2:]), t, label)
    return np.linalg.inv(m)


def rk4_allocating(field, boundary_value, grid, direction, postprocess=None):
    """The former RK4 loop of odeint.integrate_matrix_ode, as its reference: the
    same steps with h = -dt backward, each stage and sum a new array."""
    m = np.atleast_2d(np.asarray(boundary_value, dtype=float))
    N = grid.steps
    backward = direction is OdeDirection.BACKWARD
    h, sign, j = (-grid.dt, -1, 2 * N) if backward else (grid.dt, 1, 0)
    out = np.empty((N + 1, *m.shape))
    out[N if backward else 0] = m
    for _ in range(N):
        k1 = field(j, m)
        k2 = field(j + sign, m + 0.5 * h * k1)
        k3 = field(j + sign, m + 0.5 * h * k2)
        j += 2 * sign
        k4 = field(j, m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if postprocess is not None:
            m = postprocess(m)
        if not np.abs(m).max() <= MAX_NORM:
            raise DivergenceError(float(grid.nodes[j // 2]))
        out[j // 2] = m
    return out


def matmul_pi1_field(sys):
    """The former riccati.pi1_field, as its reference: every product by @, each
    stage's I + Pi1 S1-hat recorded, and one SVD gate of all of them after the
    flow (field.gate()); a stage inverts it only where C1-hat or D1-hat is nonzero."""
    A1, B1, B2, C1, D1, F1, F2, S1 = sys.halves()
    times = sys.grid.half_times
    B1_Rinv, B2_Rinv = B1 @ sys.R_inv, B2 @ sys.R_inv
    tables = (
        A1 - B2_Rinv @ _tr(B1), _tr(A1) - B1_Rinv @ _tr(B2),
        F1 - B1_Rinv @ _tr(B1), sys.B2_Rinv_B2T - F2, _tr(C1), C1, D1, _tr(D1),
    )
    rows = list(zip(S1, zip(*tables)))
    eye, stage_j, count = np.eye(sys.dim), np.empty(4 * sys.grid.steps, dtype=int), 0
    stages = np.empty((4 * sys.grid.steps, sys.dim, sys.dim))

    if D1.any():
        def drift(Pi1, inv_s, left, right, quad, const, C1t, C1, D1, D1t):
            return -(
                left @ Pi1 + Pi1 @ right - Pi1 @ quad @ Pi1 + const
                + (C1t - Pi1 @ D1) @ inv_s @ Pi1 @ (C1 - D1t @ Pi1)
            )
    elif C1.any():
        def drift(Pi1, inv_s, left, right, quad, const, C1t, C1, *_):
            return -(left @ Pi1 + Pi1 @ right - Pi1 @ quad @ Pi1 + const + C1t @ inv_s @ Pi1 @ C1)
    else:
        def drift(Pi1, inv_s, left, right, quad, const, *_):
            return -(left @ Pi1 + Pi1 @ right - Pi1 @ quad @ Pi1 + const)

    def stage_inverse(m, j):
        if not (C1.any() or D1.any()):
            return None
        if not np.isfinite(m).all():
            raise SingularityError(float(times[j]), PI1_S1)
        return np.linalg.inv(m)

    def field(j, Pi1):
        if isinstance(j, np.ndarray):
            inv_s = svd_guarded_inv(np.eye(Pi1.shape[-1]) + Pi1 @ S1[j], times[j], PI1_S1)
            return drift(Pi1, inv_s, *(a[j] for a in tables))
        nonlocal count
        S1_j, row = rows[j]
        m = stages[count] = eye + Pi1 @ S1_j
        stage_j[count], count = j, count + 1
        return drift(Pi1, stage_inverse(m, j), *row)

    field.gate = lambda: svd_gate(stages[:count], times[stage_j[:count]], PI1_S1)
    return field


def matmul_pi2_field(sys, pi1):
    """The former riccati.pi2_field, as its reference: every product by @, and
    (I + Pi1 S1-hat)^-1 formed behind the SVD gate."""
    A1, B1, B2, C1, D1, F1, F2, _ = sys.halves()
    Rinv = sys.R_inv
    s1_inverse = svd_guarded_inv(
        np.eye(sys.dim) + pi1.path.half @ pi1.S1h.half, sys.grid.half_times, PI1_S1
    )
    w = s1_inverse @ pi1.path.half
    B2_Rinv, C1t_w, D1_w = B2 @ Rinv, _tr(C1) @ w, D1 @ w
    left = A1 - B2_Rinv @ _tr(B1) - C1t_w @ _tr(D1)
    quad = F2 - C1t_w @ C1
    quad_t = sys.B2_Rinv_B2T
    right = _tr(A1) - D1_w @ C1
    right_t = B1 @ Rinv @ _tr(B2)
    const = F1 - B1 @ Rinv @ _tr(B1) - D1_w @ _tr(D1)

    def field(j, Pi2):
        Pi2t = _tr(Pi2)
        return (
            Pi2 @ (left[j] + quad[j] @ Pi2 - quad_t[j] @ Pi2t)
            + right[j] @ Pi2 - right_t[j] @ Pi2t + const[j]
        )

    return field


def field_residual(ric, field):
    """The former riccati.riccati_residual, as its reference: max norm of
    (central-difference derivative - field) at the interior nodes, field taking
    half-step indices (node i is index 2 i) and the stack of interior iterates
    in one call.  Returns (max residual, time of the first max)."""
    grid = ric.path.grid
    if grid.steps < 4:
        raise ValueError("residual check needs N >= 4")
    vals = ric.values
    deriv = (vals[2:] - vals[:-2]) / (2.0 * grid.dt)
    inner = np.arange(1, grid.steps)
    r = np.max(np.abs(deriv - field(2 * inner, vals[1:-1])), axis=(1, 2))
    worst = int(np.argmax(r))
    return float(r[worst]), float(grid.nodes[inner[worst]])


def reference_pi1(sys):
    """Pi1 of a stacked system by the reference loop, field and gate: the former
    riccati.solve_pi1, gated after the flow also when the flow stopped."""
    field = matmul_pi1_field(sys)
    try:
        with np.errstate(all="ignore"):
            values = rk4_allocating(
                field, np.zeros((sys.dim, sys.dim)), sys.grid, OdeDirection.BACKWARD, _sym
            )
    finally:
        field.gate()
    return bs.RiccatiPath("Pi1", bs.CoefficientPath(sys.grid, values), sys.S1h)


def reference_chain(spec):
    """P1, P2, Pi1 and Pi2 of a game by the reference loop, fields and gate."""
    fsys = bs.follower_system(spec, bs.AffineControl.zero(spec.grid, spec.dims.k))
    forward = OdeDirection.FORWARD
    p1 = reference_pi1(fsys)
    p2 = rk4_allocating(matmul_pi2_field(fsys, p1), spec.G1, spec.grid, forward, _sym)
    p2 = bs.RiccatiPath("P2", bs.CoefficientPath(spec.grid, p2))
    lsys = bs.build_stacked_system(spec, p1, p2)
    pi1 = reference_pi1(lsys)
    pi2 = rk4_allocating(matmul_pi2_field(lsys, pi1), lsys.G2h, spec.grid, forward, _sym)
    return p1.values, p2.values, pi1.values, pi2
