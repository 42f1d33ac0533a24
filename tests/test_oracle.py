"""Brute-force QP oracles: exact discrete optima for deterministic games."""

import json

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.cli import main
from bsde_stackelberg.oracle import (
    NonConvexError,
    _convex,
    _gram,
    _quadratic_pieces,
    build_discrete_problem,
    control_rms_gap,
    deterministic_follower_oracle,
    deterministic_leader_oracle,
    oracle_report,
)
from bsde_stackelberg.scenario import hand_solvable_scenario, make_constant_spec
from bsde_stackelberg.stacked import structural_defects
from conftest import (
    affine_map,
    c_zero_game,
    cost_terms,
    cost_terms_reference,
    cross_term_reference,
    dense_follower_oracle,
    dense_leader_oracle,
    equilibrium_arrays,
    follower_cost_samples,
    follower_pathwise_defects,
    leader_cost_samples,
    leader_pathwise_defects,
    path_arrays,
    reduced_map_reference,
    scenario_document,
)


@pytest.fixture(scope="module")
def hand_prob():
    spec = hand_solvable_scenario(steps=256)
    return spec, build_discrete_problem(spec)


class TestDiscreteProblem:
    def test_rejects_stochastic_terminal(self, stochastic_spec):
        with pytest.raises(ValueError):
            build_discrete_problem(stochastic_spec)

    def test_zero_dynamics_state_map_is_identity(self):
        spec = make_constant_spec(
            1.0, 16,
            A=0.0, B1=0.0, B2=0.0, C=0.0,
            Q1=1.0, R1=1.0, S1=0.0, G1=1.0,
            Q2=1.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        prob = build_discrete_problem(spec)
        np.testing.assert_allclose(prob.E, np.ones((16, 1, 1)), atol=1e-14)
        assert np.max(np.abs(prob.F1)) == 0.0 and np.max(np.abs(prob.F2)) == 0.0

    def test_trapezoid_weights(self, hand_prob):
        spec, prob = hand_prob
        dt = spec.grid.dt
        assert prob.node_weights[0] == pytest.approx(0.5 * dt)
        assert prob.node_weights[-1] == pytest.approx(0.5 * dt)
        assert prob.node_weights.sum() == pytest.approx(spec.grid.horizon)


class TestFollowerOracle:
    def test_hand_scenario_optimum(self, hand_prob):
        spec, prob = hand_prob
        res = deterministic_follower_oracle(prob, np.zeros((spec.grid.steps, 1)))
        assert res.cost == pytest.approx(0.25, abs=1e-4)
        assert np.max(np.abs(res.control + 0.5)) < 1e-3
        assert res.gradient_norm < 1e-10

    def test_zero_cost_weights_give_zero_control(self):
        spec = make_constant_spec(
            1.0, 32,
            A=0.1, B1=1.0, B2=1.0, C=0.0,
            Q1=0.0, R1=1.0, S1=0.0, G1=0.0,
            Q2=1.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        prob = build_discrete_problem(spec)
        res = deterministic_follower_oracle(prob, np.zeros((32, 1)))
        assert np.max(np.abs(res.control)) == 0.0
        assert res.cost == 0.0

    def test_uncontrollable_follower_keeps_regularized_zero(self):
        # B1 = 0: the control cannot move the state; R1 forces u1 = 0
        spec = make_constant_spec(
            1.0, 32,
            A=0.0, B1=0.0, B2=1.0, C=0.0,
            Q1=1.0, R1=1.0, S1=0.0, G1=1.0,
            Q2=1.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        prob = build_discrete_problem(spec)
        res = deterministic_follower_oracle(prob, np.zeros((32, 1)))
        assert np.max(np.abs(res.control)) < 1e-14
        # state stays at xi = 1, cost = 0.5 int Q1 + 0.5 G1
        assert res.cost == pytest.approx(1.0, abs=1e-10)

    def test_nonconvex_rejected(self):
        spec = make_constant_spec(
            1.0, 16,
            A=0.0, B1=1.0, B2=1.0, C=0.0,
            Q1=0.0, R1=1e-8, S1=0.0, G1=-5.0,
            Q2=1.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        prob = build_discrete_problem(spec)
        with pytest.raises(NonConvexError) as e:
            deterministic_follower_oracle(prob, np.zeros((16, 1)))
        assert e.value.min_eig < 0.0

    def test_normal_equation_residual_relative(self, hand_prob):
        spec, prob = hand_prob
        res = deterministic_follower_oracle(prob, np.zeros((spec.grid.steps, 1)))
        rms = np.sqrt(np.mean(res.control**2))
        assert res.gradient_norm / max(rms, 1e-12) < 1e-10


class TestLeaderOracle:
    def test_zero_terminal_gives_zero_everything(self):
        spec = make_constant_spec(
            1.0, 32,
            A=0.1, B1=1.0, B2=1.0, C=0.0,
            Q1=0.5, R1=1.0, S1=0.0, G1=0.5,
            Q2=0.3, R2=1.0, S2=0.0, G2=1.0,
            a=0.0, b=0.0,
        )
        res = deterministic_leader_oracle(build_discrete_problem(spec))
        assert np.max(np.abs(res.control)) < 1e-14
        assert np.max(np.abs(res.inner_control)) < 1e-14
        assert res.cost == pytest.approx(0.0, abs=1e-20)

    def test_indifferent_leader_stays_idle(self):
        # Q2 = S2 = G2 = 0: leader pays only control energy, optimum u2 = 0
        spec = make_constant_spec(
            1.0, 32,
            A=0.1, B1=1.0, B2=1.0, C=0.0,
            Q1=0.5, R1=1.0, S1=0.0, G1=0.5,
            Q2=0.0, R2=1.0, S2=0.0, G2=0.0,
            a=1.0, b=0.0,
        )
        res = deterministic_leader_oracle(build_discrete_problem(spec))
        assert np.max(np.abs(res.control)) < 1e-14
        assert res.cost == 0.0

    def test_inner_control_is_follower_best_response(self, hand_spec_coarse):
        prob = build_discrete_problem(hand_spec_coarse)
        res = deterministic_leader_oracle(prob)
        follower = deterministic_follower_oracle(prob, res.control)
        np.testing.assert_allclose(res.inner_control, follower.control, atol=1e-10)

    def test_gradient_certified(self, hand_spec_coarse):
        res = deterministic_leader_oracle(build_discrete_problem(hand_spec_coarse))
        assert res.gradient_norm < 1e-10


def assert_rel_close(actual, reference, rel):
    assert np.max(np.abs(actual - reference)) <= rel * np.max(np.abs(reference))


class TestGemmForms:
    """The Hessians, the leader's cross term and its reduced state map as GEMMs,
    against the former einsum formulas (tests/conftest.py)."""

    @pytest.mark.parametrize("game", ["hand", "n2k2"])
    def test_forms_match_einsum_references(self, game):
        if game == "hand":
            spec = hand_solvable_scenario(steps=256)
        else:
            spec = random_multidim_game(np.random.default_rng(22), 2, 2, steps=64)
        prob = build_discrete_problem(spec)
        c0, S, T = prob.state_maps
        nodes = spec.grid.nodes
        W1 = _quadratic_pieces(prob, spec.Q1(nodes), spec.G1)
        W2 = _quadratic_pieces(prob, spec.Q2(nodes), spec.G2)
        H1, g1, _ = cost_terms(W1, c0, S, prob.R1_bar)
        H1_ref, g1_ref = cost_terms_reference(S, W1, c0, prob.R1_bar)
        assert_rel_close(H1, H1_ref, 1e-13)
        assert_rel_close(g1, g1_ref, 1e-13)
        g1_lin_ref = cross_term_reference(S, W1, T)
        assert_rel_close(_gram(S, W1, T), g1_lin_ref, 1e-13)
        u1_lin = np.linalg.solve(H1_ref, -g1_lin_ref)
        T_red_ref = reduced_map_reference(T, S, u1_lin)
        assert_rel_close(affine_map(T, S, u1_lin), T_red_ref, 1e-13)
        H2, _, _ = cost_terms(W2, c0, T_red_ref, prob.R2_bar)
        assert_rel_close(H2, cost_terms_reference(T_red_ref, W2, c0, prob.R2_bar)[0], 1e-13)


class TestBandedOracles:
    """The banded KKT solves against the condensed dense oracles (tests/conftest.py)."""

    @pytest.mark.parametrize("game", ["c_zero", "n4k3"])
    def test_agree_with_dense_reference(self, game):
        if game == "c_zero":
            spec = c_zero_game(steps=128)
        else:
            spec = random_multidim_game(np.random.default_rng(43), 4, 3, steps=96)
        prob = build_discrete_problem(spec)
        u2 = np.random.default_rng(1).uniform(-0.5, 0.5, (spec.grid.steps, spec.dims.k))
        pairs = (
            (deterministic_follower_oracle(prob, u2), dense_follower_oracle(prob, u2)),
            (deterministic_leader_oracle(prob), dense_leader_oracle(prob)),
        )
        for banded, dense in pairs:
            assert banded.cost == pytest.approx(dense.cost, rel=1e-12, abs=0.0)
            assert_rel_close(banded.control, dense.control, 1e-12)
        leader, dense_leader = pairs[1]
        assert_rel_close(leader.inner_control, dense_leader.inner_control, 1e-12)

    def test_certified_inputs_form_no_hessian(self):
        prob = build_discrete_problem(c_zero_game(steps=64))
        deterministic_follower_oracle(prob, np.zeros((64, 2)))
        deterministic_leader_oracle(prob)
        assert "state_maps" not in prob.__dict__  # the cached dense maps were never built

    def test_uncertified_convex_input_is_solved(self):
        # G1 < 0 fails the cheap certificate, but R1 keeps both Hessians positive
        # definite: the dense gate passes and the banded solve runs
        spec = make_constant_spec(
            1.0, 32,
            A=0.1, B1=1.0, B2=1.0, C=0.0,
            Q1=0.5, R1=1.0, S1=0.0, G1=-0.01,
            Q2=0.3, R2=1.0, S2=0.0, G2=-0.01,
            a=1.0, b=0.0,
        )
        prob = build_discrete_problem(spec)
        u2 = np.full((32, 1), 0.2)
        follower, leader = deterministic_follower_oracle(prob, u2), deterministic_leader_oracle(prob)
        assert "state_maps" in prob.__dict__
        assert follower.cost == pytest.approx(dense_follower_oracle(prob, u2).cost, rel=1e-12)
        assert leader.cost == pytest.approx(dense_leader_oracle(prob).cost, rel=1e-12)


def verify_gaps(tmp_path, steps):
    """(follower, leader) rel_gap of the verify command on c_zero_game at N steps."""
    path = tmp_path / "c_zero.json"
    path.write_text(json.dumps(scenario_document(c_zero_game(steps))))
    out = tmp_path / f"verify_{steps}"
    assert main(["verify", "--scenario", str(path), "--out", str(out), "--seed", "0"]) == 0
    report = json.loads((out / "oracle.json").read_text())
    return np.array([report[level]["rel_gap"] for level in ("follower", "leader")])


def test_verify_gap_is_second_order(tmp_path):
    """At N = 1024 and 4096 verify passes, and both players' gaps fall 16-fold:
    the pipeline's cost differs from the discrete optimum by O(dt^2) on this game."""
    ratio = verify_gaps(tmp_path, 1024) / verify_gaps(tmp_path, 4096)
    assert np.all((14.5 <= ratio) & (ratio <= 17.5)), ratio


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the calls of np.linalg.eigvalsh while a test runs."""
    calls, original = [], np.linalg.eigvalsh

    def counted(H):
        calls.append(H.shape)
        return original(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestConvexityCertificate:
    """_convex certifies by Cholesky and falls back to the eigenvalue rule."""

    def test_positive_definite_needs_no_eigenvalues(self, eigvalsh_calls):
        rng = np.random.default_rng(5)
        L = rng.uniform(-1.0, 1.0, (40, 40))
        H = L @ L.T + 0.1 * np.eye(40)
        H[0, 1] += 1e-14  # symmetrized on the way in
        np.testing.assert_array_equal(_convex(H), 0.5 * (H + H.T))
        assert eigvalsh_calls == []

    def test_semidefinite_within_tolerance_passes_the_fallback(self, eigvalsh_calls):
        H = np.diag([1.0, -1e-12])
        np.testing.assert_array_equal(_convex(H), H)
        assert eigvalsh_calls == [(2, 2)]

    def test_negative_beyond_tolerance_raises(self, eigvalsh_calls):
        with pytest.raises(NonConvexError) as e:
            _convex(np.diag([1.0, -1e-8]))
        assert e.value.min_eig == -1e-8 and eigvalsh_calls == [(2, 2)]


class TestDiagnostics:
    def test_control_rms_gap_zero_for_matching_constants(self):
        oracle = np.full((8, 1), -0.5)
        pipeline = np.full((9, 1), -0.5)
        assert control_rms_gap(oracle, pipeline) == 0.0

    def test_control_rms_gap_uses_midpoints(self):
        pipeline = np.arange(5.0)[:, None]  # midpoints 0.5, 1.5, 2.5, 3.5
        oracle = np.array([[0.5], [1.5], [2.5], [4.5]])
        assert control_rms_gap(oracle, pipeline) == pytest.approx(0.5)

    def test_oracle_report_fields(self):
        rep = oracle_report(0.25, 0.2505, 1e-3, 256)
        assert rep["rel_gap"] == pytest.approx(0.002)
        assert rep["N"] == 256 and rep["control_rms_gap"] == 1e-3


class TestOracleVsPipeline:
    def test_follower_rel_gap_small(self, hand_spec_coarse, hand_riccati):
        p1 = bs.solve_p1(hand_spec_coarse)
        p2 = bs.solve_p2(hand_spec_coarse, p1)
        u2 = bs.AffineControl.zero(hand_spec_coarse.grid, 1)
        kernel = bs.follower_kernel(hand_spec_coarse, p1, p2, u2)
        ens = path_arrays(kernel, bs.sample_brownian(hand_spec_coarse.grid, 2, 0))
        prob = build_discrete_problem(hand_spec_coarse)
        res = deterministic_follower_oracle(prob, np.zeros((hand_spec_coarse.grid.steps, 1)))
        J1 = follower_cost_samples(hand_spec_coarse, ens).mean()
        rep = oracle_report(res.cost, J1, control_rms_gap(res.control, ens.u1[:, 0]), 256)
        assert rep["rel_gap"] < 1e-3

    def test_leader_rel_gap_small(self, hand_spec_coarse):
        res = deterministic_leader_oracle(build_discrete_problem(hand_spec_coarse))
        bundle = bs.sample_brownian(hand_spec_coarse.grid, 2, 0)
        sol = bs.equilibrium_layer(hand_spec_coarse)
        J2 = leader_cost_samples(sol, equilibrium_arrays(sol, bundle)).mean()
        rel = abs(J2 - res.cost) / max(abs(res.cost), 1e-12)
        assert rel < 1e-2


def _spd(rng, m, floor):
    L = rng.uniform(-0.6, 0.6, (m, m))
    return floor * np.eye(m) + L @ L.T


def random_multidim_game(rng, n, k, steps=256):
    """n x n state, k controls, C = 0 and a deterministic xi, so the QP oracles apply."""
    return make_constant_spec(
        1.0, steps,
        A=rng.uniform(-0.5, 0.5, (n, n)),
        B1=rng.uniform(-1.0, 1.0, (n, k)), B2=rng.uniform(-1.0, 1.0, (n, k)), C=np.zeros((n, n)),
        Q1=_spd(rng, n, 0.2), R1=_spd(rng, k, 0.8), S1=_spd(rng, n, 0.1), G1=_spd(rng, n, 0.2),
        Q2=_spd(rng, n, 0.2), R2=_spd(rng, k, 0.8), S2=_spd(rng, n, 0.1), G2=_spd(rng, n, 0.2),
        a=rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n), b=np.zeros(n),
    )


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
class TestMultiDimensionalPipelines:
    """Games with n >= 2 and k != n, where a transposed block would show."""

    def test_follower_matches_oracle(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        spec = random_multidim_game(rng, n, k)
        u2_value = rng.uniform(-0.5, 0.5, k)
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        kernel = bs.follower_kernel(spec, p1, p2, bs.AffineControl.constant(spec.grid, u2_value))
        ens = path_arrays(kernel, bs.sample_brownian(spec.grid, 2, 0))
        res = deterministic_follower_oracle(
            build_discrete_problem(spec), np.tile(u2_value, (spec.grid.steps, 1))
        )
        assert abs(follower_cost_samples(spec, ens).mean() - res.cost) / abs(res.cost) <= 1e-3
        pathwise = follower_pathwise_defects(spec, ens)
        for key in ("terminal", "initial_coupling", "adjoint_form"):
            assert pathwise[key] <= 1e-8
        assert max(structural_defects(kernel).values()) <= 1e-8

    def test_leader_matches_oracle(self, n, k):
        spec = random_multidim_game(np.random.default_rng(10 * n + k + 1), n, k)
        sol = bs.equilibrium_layer(spec)
        ens = equilibrium_arrays(sol, bs.sample_brownian(spec.grid, 2, 0))
        res = deterministic_leader_oracle(build_discrete_problem(spec))
        assert abs(leader_cost_samples(sol, ens).mean() - res.cost) / abs(res.cost) <= 1e-2
        assert max(leader_pathwise_defects(sol, ens).values()) <= 1e-8
        assert max(sol.defects.values()) <= 1e-8
