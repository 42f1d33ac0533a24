"""Brute-force QP oracles: exact discrete optima for deterministic games."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsde_stackelberg as bs
from bsde_stackelberg.cli import main
from bsde_stackelberg.oracle import (
    PSD_TOL,
    NonConvexError,
    _assemble,
    _inertia,
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
    RANK_ONE_Q1,
    DenseNonConvexError,
    affine_map,
    c_zero_game,
    convex,
    cost_terms,
    cost_terms_reference,
    cross_term_reference,
    dense_follower_oracle,
    dense_hessians,
    dense_leader_oracle,
    equilibrium_arrays,
    follower_cost_samples,
    follower_pathwise_defects,
    leader_cost_samples,
    leader_pathwise_defects,
    path_arrays,
    gram,
    reduced_map_reference,
    scenario_document,
    state_maps,
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
        # more negative eigenvalues than constraints: a direction of negative curvature
        assert e.value.inertia[1] > e.value.required[1] == 16

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
        c0, S, T = state_maps(prob)
        nodes = spec.grid.nodes
        W1 = _quadratic_pieces(prob, spec.Q1(nodes), spec.G1)
        W2 = _quadratic_pieces(prob, spec.Q2(nodes), spec.G2)
        H1, g1, _ = cost_terms(W1, c0, S, prob.R1_bar)
        H1_ref, g1_ref = cost_terms_reference(S, W1, c0, prob.R1_bar)
        assert_rel_close(H1, H1_ref, 1e-13)
        assert_rel_close(g1, g1_ref, 1e-13)
        g1_lin_ref = cross_term_reference(S, W1, T)
        assert_rel_close(gram(S, W1, T), g1_lin_ref, 1e-13)
        u1_lin = np.linalg.solve(H1_ref, -g1_lin_ref)
        T_red_ref = reduced_map_reference(T, S, u1_lin)
        assert_rel_close(affine_map(T, S, u1_lin), T_red_ref, 1e-13)
        H2, _, _ = cost_terms(W2, c0, T_red_ref, prob.R2_bar)
        assert_rel_close(H2, cost_terms_reference(T_red_ref, W2, c0, prob.R2_bar)[0], 1e-13)


class TestBandedOracles:
    """The banded KKT solves against the condensed dense oracles (tests/conftest.py)."""

    @pytest.mark.parametrize("game", ["c_zero", "n4k3", "rank_one"])
    def test_agree_with_dense_reference(self, game):
        if game == "c_zero":
            spec = c_zero_game(steps=128)
        elif game == "rank_one":  # uncertified: the KKT inertia decides
            spec = c_zero_game(steps=256, Q1=RANK_ONE_Q1)
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

    def test_certified_inputs_form_no_hessian(self, inertia_calls):
        prob = build_discrete_problem(c_zero_game(steps=64))
        deterministic_follower_oracle(prob, np.zeros((64, 2)))
        deterministic_leader_oracle(prob)
        assert inertia_calls == []  # the certificate decided: no Schur recursion ran

    def test_uncertified_convex_input_is_solved(self, inertia_calls):
        # G1 < 0 fails the cheap certificate, but R1 keeps both Hessians positive
        # definite: both KKT matrices have the required inertia and the banded solve runs
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
        deterministic_follower_oracle(prob, -u2)
        # the follower's check runs once per problem, for both oracles (m = 3),
        # and the leader's once (m = 7)
        assert inertia_calls == [3, 7]
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
def inertia_calls(monkeypatch):
    """The unknowns per step of each KKT matrix whose inertia is counted while a test runs."""
    calls, original = [], bs.oracle._inertia

    def counted(m, K):
        calls.append(m)
        return original(m, K)

    monkeypatch.setattr(bs.oracle, "_inertia", counted)
    return calls


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
    """The dense reference gate (tests/conftest.py::convex) certifies by Cholesky
    and falls back to the eigenvalue rule."""

    def test_positive_definite_needs_no_eigenvalues(self, eigvalsh_calls):
        rng = np.random.default_rng(5)
        L = rng.uniform(-1.0, 1.0, (40, 40))
        H = L @ L.T + 0.1 * np.eye(40)
        H[0, 1] += 1e-14  # symmetrized on the way in
        np.testing.assert_array_equal(convex(H), 0.5 * (H + H.T))
        assert eigvalsh_calls == []

    def test_semidefinite_within_tolerance_passes_the_fallback(self, eigvalsh_calls):
        H = np.diag([1.0, -1e-12])
        np.testing.assert_array_equal(convex(H), H)
        assert eigvalsh_calls == [(2, 2)]

    def test_negative_beyond_tolerance_raises(self, eigvalsh_calls):
        with pytest.raises(DenseNonConvexError) as e:
            convex(np.diag([1.0, -1e-8]))
        assert e.value.min_eig == -1e-8 and eigvalsh_calls == [(2, 2)]


def dense_inertia(K, size):
    """Inertia of K = (rows, cols, values) from the eigenvalues of its dense form."""
    rows, cols, vals = K
    dense = np.zeros((size, size))
    np.add.at(dense, (rows, cols), vals)
    eig = np.linalg.eigvalsh(dense)
    tol = PSD_TOL * max(1.0, float(np.abs(dense).max()))
    return int((eig > tol).sum()), int((eig < -tol).sum()), int((np.abs(eig) <= tol).sum())


class TestKKTInertia:
    """The oracles' convexity decision: the inertia of each KKT matrix, counted
    by the block-tridiagonal Schur recursion over its step blocks."""

    @pytest.mark.parametrize("seed", range(4))
    def test_schur_pivots_count_the_dense_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        N, m = 12, 3
        D = rng.standard_normal((N, m, m))
        D = D + np.swapaxes(D, 1, 2) + rng.uniform(-2.0, 2.0) * np.eye(m)
        K = _assemble(m, [(0, 0, D, 0, 0)], [(0, 0, rng.standard_normal((N - 1, m, m)), 1, 0)])
        found = _inertia(m, K)
        assert found == dense_inertia(K, N * m) and sum(found) == N * m

    def test_singular_pivot_ends_the_count(self):
        # D_1 = 0 with no coupling to D_0: the pivot S_1 = 0 is singular, so
        # S_2 is not formed and the count stops one step short
        m, N = 2, 4
        D = np.broadcast_to(np.eye(m), (N, m, m)).copy()
        D[1] = 0.0
        K = _assemble(m, [(0, 0, D, 0, 0)], [])
        assert _inertia(m, K) == (2, 0, 2)

    def test_singular_kkt_raises_nonconvex(self):
        # B1 = 0 and R1 = 0: the follower's control is free and costless, its
        # KKT matrix singular, so the game sits on the PSD boundary
        spec = make_constant_spec(
            1.0, 8,
            A=0.1, B1=0.0, B2=1.0, C=0.0,
            Q1=1.0, R1=0.0, S1=0.0, G1=1.0,
            Q2=1.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        prob = build_discrete_problem(spec)
        for oracle in (lambda: deterministic_follower_oracle(prob, np.zeros((8, 1))),
                       lambda: deterministic_leader_oracle(prob)):
            with pytest.raises(NonConvexError) as e:
                oracle()
            assert e.value.inertia[2] > 0 and e.value.required == (16, 8, 0)

    def test_nonconvex_follower_rejects_both_oracles(self):
        # the leader's one-level KKT matrix has the required inertia here, since it
        # accepts any stationary point of the follower: the follower's check rejects
        prob = build_discrete_problem(c_zero_game(64, Q1=-3.0 * np.eye(2), G1=-3.0 * np.eye(2)))
        message = (
            "discrete cost Hessian not PSD "
            "(KKT inertia (+254, -130, 0), required (+256, -128, 0))"
        )
        for oracle in (lambda: deterministic_follower_oracle(prob, np.zeros((64, 2))),
                       lambda: deterministic_leader_oracle(prob)):
            with pytest.raises(NonConvexError, match=r"^" + re.escape(message) + "$"):
                oracle()

    @pytest.mark.parametrize(
        "weights, decided", [(("Q1",), [6]), (("Q1", "Q2"), [6, 14])], ids=["Q1", "Q1-Q2"]
    )
    def test_rank_one_game_stays_linear_in_memory(self, inertia_calls, weights, decided):
        # the uncertified rank-one game at N = 2000: the condensed (N k)^2 Hessian
        # alone would be 128 MB; the KKT matrices and their pivots are O(N).  With
        # Q2 PD the leader's certificate holds and only the follower's inertia is
        # counted; with Q2 rank-one too, the leader's is as well
        tracemalloc.start()
        try:
            prob = build_discrete_problem(c_zero_game(2000, **dict.fromkeys(weights, RANK_ONE_Q1)))
            deterministic_follower_oracle(prob, np.zeros((2000, 2)))
            deterministic_leader_oracle(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inertia_calls == decided  # m = 6 for the follower, 14 for the leader
        assert peak < 60e6, peak


# weight families for the sweep: (state weight Q, initial weight G) of one player
def _swept_weights(rng, n, kind):
    if kind == "pd":
        return _spd(rng, n, 0.2), _spd(rng, n, 0.2)
    if kind == "rank_one":
        v = rng.uniform(-1.0, 1.0, n)
        return np.outer(v, v), _spd(rng, n, 0.2)
    shift = rng.uniform(0.0, 1.0)
    if kind == "indefinite":  # mostly convex still: R dominates
        return _spd(rng, n, 0.1) - 0.8 * shift * np.eye(n), -0.05 * shift * np.eye(n)
    return _spd(rng, n, 0.1) - 3.0 * shift * np.eye(n), _spd(rng, n, 0.1) - 10.0 * shift * np.eye(n)


KINDS = ("pd", "rank_one", "indefinite", "nonconvex")
# the decisions are compared outside this band of the dense smallest eigenvalue,
# relative to max(1, max|H|); on the PSD boundary the two rules may differ
MARGIN = 1e-6


def _accepts(oracle):
    try:
        oracle()
    except NonConvexError:
        return False
    return True


def _dense_decision(H):
    """True/False when H's smallest eigenvalue is above/below the band, else None."""
    if H is None:
        return None
    lowest = float(np.linalg.eigvalsh(0.5 * (H + H.T)).min()) / max(1.0, float(np.abs(H).max()))
    return None if abs(lowest) <= MARGIN else lowest > 0.0


@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(1, 3),
    steps=st.integers(2, 64), kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
)
@settings(max_examples=120, deadline=None)
def test_convexity_decisions_match_the_dense_hessians(seed, n, k, steps, kinds):
    """Both oracles accept exactly when the dense reference's condensed Hessians
    are positive definite, outside the MARGIN band: the follower's H1, and for
    the leader H1 and its H2 through the follower's response."""
    rng = np.random.default_rng(seed)
    (Q1, G1), (Q2, G2) = (_swept_weights(rng, n, kind) for kind in kinds)
    spec = make_constant_spec(
        1.0, steps,
        A=rng.uniform(-0.5, 0.5, (n, n)),
        B1=rng.uniform(-1.0, 1.0, (n, k)), B2=rng.uniform(-1.0, 1.0, (n, k)), C=np.zeros((n, n)),
        Q1=Q1, R1=_spd(rng, k, 0.3), S1=_spd(rng, n, 0.1), G1=G1,
        Q2=Q2, R2=_spd(rng, k, 0.3), S2=_spd(rng, n, 0.1), G2=G2,
        a=rng.uniform(-1.0, 1.0, n), b=np.zeros(n),
    )
    prob = build_discrete_problem(spec)
    H1, H2 = dense_hessians(prob)
    follower = _dense_decision(H1)
    if follower is not None:
        assert _accepts(lambda: deterministic_follower_oracle(prob, np.zeros((steps, k)))) == follower
    leader = _dense_decision(H2) if follower else follower  # a rejected follower rejects it
    if leader is not None:
        assert _accepts(lambda: deterministic_leader_oracle(prob)) == leader


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
