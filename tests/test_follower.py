"""Follower pipeline: affine reduction, reconstruction, cost, optimality."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.follower import follower_chunk, follower_paths_csv, response_step
from bsde_stackelberg.leader import _zero_terminal, equilibrium_chunk, response_kernel
from bsde_stackelberg.odeint import OdeDirection, integrate_matrix_ode
from bsde_stackelberg.sampling import coarsen, mean_stderr, sample_brownian
from bsde_stackelberg.scenario import load_scenario
from bsde_stackelberg.stacked import (
    residual_rms,
    residual_samples,
    solve_affine_bsde,
    structural_defects,
)
from conftest import (
    affine_pathwise,
    assert_csv_blocks,
    csv_text,
    cost_samples,
    dense_game,
    equilibrium_arrays,
    follower_cost_samples,
    follower_pathwise_defects,
    leader_cost_samples,
    path_arrays,
    quadratic_expansion,
    u2_pathwise,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def half_table(grid, value):
    """A constant 1 x 1 coefficient as the (2N+1)-sample half-step table."""
    return bs.CoefficientPath.constant(grid, value).half


class TestAffineBSDE:
    def test_scalar_linear_bsde_closed_form(self):
        # -d(phi) = phi dt - eta dW, phi(T) = 1: phi(t) = e^(T - t), eta = 0
        g = bs.TimeGrid(1.0, 128)
        alpha, beta = solve_affine_bsde(
            half_table(g, 1.0),
            half_table(g, 0.0),
            half_table(g, 0.0),
            half_table(g, 0.0),
            np.ones(1),
            np.zeros((1, 1)),
            g,
        )
        np.testing.assert_allclose(
            alpha[:, 0, 0], np.exp(1.0 - g.nodes), atol=1e-10
        )
        assert np.max(np.abs(beta)) == 0.0

    def test_martingale_terminal_loading(self):
        # -d(phi) = -eta dW, phi(T) = W(T): phi(t) = W(t), so alpha = 0, beta = 1
        g = bs.TimeGrid(1.0, 64)
        alpha, beta = solve_affine_bsde(
            half_table(g, 0.0),
            half_table(g, 0.0),
            half_table(g, 0.0),
            half_table(g, 0.0),
            np.zeros(1),
            np.ones((1, 1)),
            g,
        )
        assert np.max(np.abs(alpha)) < 1e-14
        np.testing.assert_allclose(beta[:, 0, 0], 1.0, atol=1e-14)

    def test_pathwise_evaluation(self):
        g = bs.TimeGrid(1.0, 8)
        alpha, beta = solve_affine_bsde(
            half_table(g, 0.0),
            half_table(g, 0.0),
            half_table(g, 0.0),
            half_table(g, 0.0),
            np.array([2.0]),
            np.array([[3.0]]),
            g,
        )
        W = np.array([[0.0] * 9, [1.0] * 9]).T
        vals = affine_pathwise(alpha, beta, W)
        np.testing.assert_allclose(vals[:, 0, 0], 2.0, atol=1e-14)
        np.testing.assert_allclose(vals[:, 1, 0], 5.0, atol=1e-14)


def reference_affine_bsde(M, N, g_c, g_l, term_c, term_l, grid):
    """The affine BSDE's ODE pair by the generic RK4 closure: the (N+1, m, 2)
    stack of [alpha, beta] that solve_affine_bsde's step maps must reproduce."""

    def field(j, Y):
        alpha, beta = Y[:, :1], Y[:, 1:]
        dalpha = -M[j] @ alpha - N[j] @ beta - g_c[j]
        dbeta = -M[j] @ beta - g_l[j]
        return np.hstack([dalpha, dbeta])

    terminal = np.hstack([np.reshape(term_c, (-1, 1)), np.reshape(term_l, (-1, 1))])
    values, _ = integrate_matrix_ode(field, terminal, grid, OdeDirection.BACKWARD)
    return values


def varying_tables(grid, n=3):
    """Half-step tables of a time-varying n = 3 system with N != 0 and g_l != 0."""
    rng = np.random.default_rng(7)
    t = grid.nodes[:, None, None]

    def table(cols, scale):
        a, b = rng.uniform(-scale, scale, (2, n, cols))
        return bs.CoefficientPath(grid, a + b * np.sin(3.0 * t)).half

    return table(n, 1.0), table(n, 0.8), table(1, 1.0), table(1, 0.5)


class TestAffineStepMaps:
    def test_step_maps_match_rk4_closure(self):
        g = bs.TimeGrid(1.3, 90)
        M, N, g_c, g_l = varying_tables(g)
        term_c, term_l = np.array([0.4, -1.0, 0.7]), np.array([[0.3], [0.0], [-0.6]])
        alpha, beta = solve_affine_bsde(M, N, g_c, g_l, term_c, term_l, g)
        ref = reference_affine_bsde(M, N, g_c, g_l, term_c, term_l, g)
        got = np.concatenate([alpha, beta], axis=2)
        assert np.max(np.abs(ref)) > 0.5 and np.max(np.abs(ref[:, :, 1])) > 0.5
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))

    def test_exploding_drift_diverges_where_the_closure_does(self):
        g = bs.TimeGrid(1.0, 100)
        M = half_table(g, 60.0 * np.eye(3))
        _, N, g_c, g_l = varying_tables(g)
        args = (M, N, g_c, g_l, np.ones(3), np.ones((3, 1)), g)
        with pytest.raises(bs.DivergenceError) as ref:
            reference_affine_bsde(*args)
        with pytest.raises(bs.DivergenceError) as err:
            solve_affine_bsde(*args)
        assert err.value.t == ref.value.t and 0.4 < err.value.t < 0.7


class TestHandSolution:
    def test_state_and_control_values(self, hand_spec, hand_follower):
        ens = hand_follower
        nodes = hand_spec.grid.nodes
        assert np.max(np.abs(ens.X - 0.5)) < 1e-10
        assert np.max(np.abs(ens.Y - (1.0 + nodes)[:, None, None] / 2.0)) < 1e-10
        assert np.max(np.abs(ens.Z)) < 1e-12
        assert np.max(np.abs(ens.u1 + 0.5)) < 1e-10

    def test_cost_quarter_with_zero_stderr(self, hand_spec, hand_follower):
        mean, stderr = mean_stderr(follower_cost_samples(hand_spec, hand_follower))
        assert mean == pytest.approx(0.25, abs=1e-10)
        assert stderr < 1e-14

    def test_terminal_identity_exact(self, hand_spec, hand_follower):
        assert np.max(np.abs(hand_follower.Y[-1] - 1.0)) < 1e-12

    def test_initial_coupling_exact(self, hand_spec, hand_follower):
        ens = hand_follower
        gap = ens.X[0] - ens.Y[0] @ hand_spec.G1.T
        assert np.max(np.abs(gap)) < 1e-12

    def test_deterministic_scenario_is_seed_independent(self, hand_spec, hand_riccati):
        p1, p2 = hand_riccati
        u2 = bs.AffineControl.zero(hand_spec.grid, 1)
        kernel = bs.follower_kernel(hand_spec, p1, p2, u2)
        a, b = (path_arrays(kernel, sample_brownian(hand_spec.grid, 2, s)) for s in (0, 99))
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.u1, b.u1)


@pytest.fixture(scope="module")
def pipeline(stochastic_spec):
    p1 = bs.solve_p1(stochastic_spec)
    p2 = bs.solve_p2(stochastic_spec, p1)
    u2 = bs.AffineControl.constant(stochastic_spec.grid, [0.2])
    kernel = bs.follower_kernel(stochastic_spec, p1, p2, u2)
    ens = path_arrays(kernel, sample_brownian(stochastic_spec.grid, 128, 1))
    return p1, p2, u2, ens


class TestStochasticScenario:
    def test_terminal_identity_pathwise(self, stochastic_spec, pipeline):
        _, _, _, ens = pipeline
        xi = stochastic_spec.xi.a[0] + stochastic_spec.xi.b[0, 0] * ens.bundle.W[-1]
        assert np.max(np.abs(ens.Y[-1, :, 0] - xi)) < 1e-12

    def test_initial_coupling_pathwise(self, stochastic_spec, pipeline):
        _, _, _, ens = pipeline
        gap = ens.X[0] - ens.Y[0] @ stochastic_spec.G1.T
        assert np.max(np.abs(gap)) < 1e-12

    def test_feedback_equals_adjoint_form(self, stochastic_spec, pipeline):
        _, _, _, ens = pipeline
        assert follower_pathwise_defects(stochastic_spec, ens)["adjoint_form"] < 1e-10

    def test_algebraic_stationarity(self, stochastic_spec, pipeline):
        _, _, _, ens = pipeline
        assert structural_defects(ens.kernel)["stationarity"] < 1e-10
        assert follower_pathwise_defects(stochastic_spec, ens)["stationarity"] < 1e-10

    def test_bsde_residual_halves_with_dt(self):
        # n = 1, and n = 3, k = 2 with a large C, where P1 and P2 - S1 do not
        # commute and only the exact pathwise diffusion keeps first order
        for scenario in (bs.stochastic_scenario, noisy_dense_game):
            fine_spec, coarse_spec = scenario(steps=512), scenario(steps=256)
            fine = sample_brownian(fine_spec.grid, 64, 2)
            rms = []
            for spec, bundle in ((fine_spec, fine), (coarse_spec, coarsen(fine, 2))):
                p1 = bs.solve_p1(spec)
                p2 = bs.solve_p2(spec, p1)
                u2 = bs.AffineControl.constant(spec.grid, 0.2 * np.ones(spec.dims.k))
                ens = path_arrays(bs.follower_kernel(spec, p1, p2, u2), bundle)
                rms.append(residual_rms(residual_samples(ens.kernel, ens.zeta, bundle.dW)[0]))
            assert rms[1] / rms[0] == pytest.approx(2.0, abs=0.25), scenario.__name__


class TestQuadraticCost:
    def test_pure_control_energy(self):
        g = bs.TimeGrid(1.0, 10)
        zero = bs.CoefficientPath.constant(g, 0.0)
        one = bs.CoefficientPath.constant(g, 1.0)
        y = np.zeros((11, 3, 1))
        z = np.zeros((11, 3, 1))
        u = np.full((11, 3, 1), 2.0)
        mean, stderr = mean_stderr(cost_samples(g, y, u, z, zero, one, zero, np.zeros((1, 1))))
        assert mean == pytest.approx(2.0)  # 0.5 * int 4 dt
        assert stderr == 0.0

    def test_initial_weight_term(self):
        g = bs.TimeGrid(1.0, 4)
        zero = bs.CoefficientPath.constant(g, 0.0)
        y = np.full((5, 2, 1), 3.0)
        samples = cost_samples(
            g, y, np.zeros_like(y), np.zeros_like(y), zero, zero, zero, np.array([[2.0]])
        )
        assert samples.mean() == pytest.approx(9.0)  # 0.5 * 2 * 3^2


def expanded_cost(base, slope, curvature, eps):
    """J(u + eps v) from the exact quadratic expansion of a stationarity check,
    whose curvature is the cost of the step."""
    return base + eps * slope + eps**2 * curvature


def follower_curvature(spec, v, delta, W):
    """The follower's curvature along v: the mean cost of the step (cost_samples)."""
    return cost_samples(spec.grid, *follower_step(delta, v, W), *spec.weights(1)).mean()


def follower_slope(spec, ens, v):
    """The mean of the follower's stationarity cross term along v on the ensemble's
    paths, as a path chunk reads it (follower_chunk)."""
    return follower_chunk(spec, ens.kernel, v)(ens.bundle)["slope"].mean()


def follower_step(delta, v, W):
    """The follower's step (dy, du, dz) along v as path arrays, from its state
    perturbation delta = (alpha, beta) (response_step)."""
    alpha, beta = delta
    return affine_pathwise(alpha, beta, W), u2_pathwise(v, W), beta[:, None, :, 0]


class TestPerturbations:
    def test_zero_direction_changes_nothing(self, hand_spec, hand_follower):
        v = bs.AffineControl.zero(hand_spec.grid, 1)
        delta = response_step(hand_spec, v)
        slope = follower_slope(hand_spec, hand_follower, v)
        J1 = follower_cost_samples(hand_spec, hand_follower).mean()
        curvature = follower_curvature(hand_spec, v, delta, hand_follower.bundle.W)
        assert expanded_cost(J1, slope, curvature, 1e-2) == pytest.approx(J1, abs=1e-15)

    def test_slope_zero_at_optimum_hand(self, hand_spec, hand_follower):
        v = bs.AffineControl.constant(hand_spec.grid, [1.0])
        slope = follower_slope(hand_spec, hand_follower, v)
        assert abs(slope) < 1e-10

    def test_quadratic_growth_away_from_optimum(self, hand_spec, hand_follower):
        # J1(u + eps v) - J1(u) must be positive (strict convexity in u)
        v = bs.AffineControl.constant(hand_spec.grid, [1.0])
        delta = response_step(hand_spec, v)
        slope = follower_slope(hand_spec, hand_follower, v)
        J1 = follower_cost_samples(hand_spec, hand_follower).mean()
        curvature = follower_curvature(hand_spec, v, delta, hand_follower.bundle.W)
        for eps in (0.1, -0.1):
            assert expanded_cost(J1, slope, curvature, eps) > J1


def noisy_dense_game(steps):
    """dense_game with its noise coefficient C tripled."""
    spec = dense_game(steps)
    return dataclasses.replace(spec, C=bs.CoefficientPath(spec.grid, 3.0 * spec.C.values))


def expansion_games():
    return {
        "stochastic": load_scenario(SCENARIOS / "stochastic.json", steps=64).spec,
        "dense": dense_game(),
    }


def affine_direction(grid, k):
    """v(t) = c + l W(t) with c, l != 0."""
    c = np.linspace(1.0, -0.5, k).reshape(k, 1)
    lin = np.linspace(0.4, 0.9, k).reshape(k, 1)
    path = bs.CoefficientPath.constant
    return bs.AffineControl(path(grid, c), path(grid, lin))


def follower_case(spec, v, bundle):
    """Base (y, u, z), step, weights, base cost and stationarity of the follower."""
    p1 = bs.solve_p1(spec)
    p2 = bs.solve_p2(spec, p1)
    u2 = bs.AffineControl.constant(spec.grid, 0.2 * np.ones(spec.dims.k))
    ens = path_arrays(bs.follower_kernel(spec, p1, p2, u2), bundle)
    # -d(dy) = [A dy + C dz + B1 v] dt - dz dW, dy(T) = 0
    delta = solve_affine_bsde(
        spec.A.half, spec.C.half,
        spec.B1.half @ v.u_const.half, spec.B1.half @ v.u_lin.half,
        np.zeros(spec.dims.n), np.zeros(spec.dims.n), spec.grid,
    )
    step = follower_step(delta, v, bundle.W)
    weights = spec.weights(1)
    slope = follower_slope(spec, ens, v)
    return (ens.Y, ens.u1, ens.Z), step, weights, follower_cost_samples(spec, ens).mean(), slope


def leader_case(spec, v, bundle):
    """Base (ybar, u2, zbar), step, weights, base cost and stationarity of the leader."""
    sol = bs.equilibrium_layer(spec)
    ens = equilibrium_arrays(sol, bundle)
    response = response_kernel(spec, sol.p1, sol.p2, v)
    delta = path_arrays(response, bundle)
    step = (delta.Y, u2_pathwise(v, bundle.W), delta.Z)
    weights = spec.weights(2)
    slope = equilibrium_chunk(sol, response)(bundle)["slope"].mean()
    return (ens.ybar, ens.u2, ens.zbar), step, weights, leader_cost_samples(sol, ens).mean(), slope


def skewed(weights, scale=0.3):
    """The weights plus an antisymmetric part, which leaves every quadratic form unchanged."""
    def skew(M):
        K = scale * np.triu(np.ones(M.shape[-2:]), 1)
        return M + K - K.T

    Q, R, S, G = weights
    return (*(bs.CoefficientPath(Q.grid, skew(W.values)) for W in (Q, R, S)), skew(G))


class TestQuadraticExpansion:
    """J(base + eps step) built as arrays against J + eps cross + eps^2 curvature."""

    @pytest.mark.parametrize("game", ["stochastic", "dense"])
    @pytest.mark.parametrize("level", [follower_case, leader_case], ids=["follower", "leader"])
    def test_matches_perturbed_cost(self, game, level):
        spec = expansion_games()[game]
        bundle = sample_brownian(spec.grid, 60, 7)
        v = affine_direction(spec.grid, spec.dims.k)
        base, step, weights, J, slope = level(spec, v, bundle)
        curvature = cost_samples(spec.grid, *step, *weights).mean()
        assert curvature > 0.0
        # the same weights up to an antisymmetric part
        tilted = skewed(weights)
        J_t = cost_samples(spec.grid, *base, *tilted).mean()
        cross_t = quadratic_expansion(spec.grid, base, step, *tilted).mean()
        curvature_t = cost_samples(spec.grid, *step, *tilted).mean()
        for eps in (1e-2, -0.1):
            perturbed = [b + eps * d for b, d in zip(base, step)]
            brute = cost_samples(spec.grid, *perturbed, *weights).mean()
            assert abs(brute - expanded_cost(J, slope, curvature, eps)) <= 1e-12 * abs(J)
            brute_t = cost_samples(spec.grid, *perturbed, *tilted).mean()
            expanded_t = J_t + eps * cross_t + eps**2 * curvature_t
            assert abs(brute_t - expanded_t) <= 1e-12 * abs(J_t)

    @pytest.mark.parametrize("game", ["stochastic", "dense"])
    def test_response_delta_is_the_full_pipeline_state(self, game):
        spec = expansion_games()[game]
        bundle = sample_brownian(spec.grid, 20, 5)
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        v = affine_direction(spec.grid, spec.dims.k)
        delta = path_arrays(response_kernel(spec, p1, p2, v), bundle)
        full = path_arrays(bs.follower_kernel(_zero_terminal(spec), p1, p2, v), bundle)
        assert np.array_equal(delta.Y, full.Y) and np.array_equal(delta.Z, full.Z)


class TestCsv:
    def test_header_and_path_cap(self, hand_follower):
        text = csv_text(follower_paths_csv, hand_follower.kernel, hand_follower.zeta[:, :2])
        lines = text.strip().split("\n")
        assert lines[0] == "path,t,y_1,z_11,u1_1,x_1"
        n_nodes = hand_follower.grid.steps + 1
        assert len(lines) == 1 + 2 * n_nodes

    def test_columns_are_the_processes_in_header_order(self):
        # n = 3, k = 2: the control block is narrower than the state blocks
        spec = dense_game()
        p1 = bs.solve_p1(spec)
        u2 = bs.AffineControl.constant(spec.grid, [0.2, -0.1])
        kernel = bs.follower_kernel(spec, p1, bs.solve_p2(spec, p1), u2)
        ens = path_arrays(kernel, sample_brownian(spec.grid, 5, 2))
        blocks = [("y", ens.Y), ("z", ens.Z), ("u1", ens.u1), ("x", ens.X)]
        assert_csv_blocks(csv_text(follower_paths_csv, kernel, ens.zeta[:, :4]), blocks, paths=4)
