"""The four Riccati solves, the stacked system, and the closed forms."""

import dataclasses
import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsde_stackelberg as bs
from bsde_stackelberg.riccati import (
    CSV_SLAB_ROWS,
    _sym,
    csv_block,
    follower_system,
    pi1_field,
    pi2_field,
    riccati_csv,
    riccati_residual,
)
from bsde_stackelberg.scenario import load_scenario, make_constant_spec, scenario_from_dict
from bsde_stackelberg.stacked import paths_csv

from conftest import (
    c_zero_game,
    csv_text,
    dense_game,
    field_residual,
    matmul_pi1_field,
    matmul_pi2_field,
    reference_chain,
    rk4_reversed_time,
    singular_stage_document,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def tanh_spec(steps=256):
    """A = C = 0, B1 = R1 = Q1 = 1: P1(t) = tanh(T - t) exactly."""
    return make_constant_spec(
        1.0, steps,
        A=0.0, B1=1.0, B2=1.0, C=0.0,
        Q1=1.0, R1=1.0, S1=0.0, G1=1.0,
        Q2=0.0, R2=1.0, S2=0.0, G2=1.0,
        a=1.0, b=0.0,
    )


def time_varying_c0_spec(seed=0, steps=250):
    """n = 3, k = 2, C = 0, deterministic xi; A, Q1 and R2 piecewise linear in time."""
    rng = np.random.default_rng(seed)
    n, k = 3, 2

    def spd(m, floor, scale):
        L = rng.uniform(-scale, scale, (m, m))
        M = L @ L.T + floor * np.eye(m)
        return (0.5 * (M + M.T)).ravel().tolist()

    def nodes(times, draw):
        return {"nodes": [[t, draw()] for t in times]}

    def constant(flat):
        return {"constant": flat}

    doc = {
        "dims": {"n": n, "k": k},
        "horizon": 1.0,
        "steps": steps,
        "coefficients": {
            "A": nodes([0.0, 0.5, 1.0], lambda: rng.uniform(-0.5, 0.5, n * n).tolist()),
            "B1": constant(rng.uniform(-1.0, 1.0, n * k).tolist()),
            "B2": constant(rng.uniform(-1.0, 1.0, n * k).tolist()),
            "C": constant([0.0] * (n * n)),
            "Q1": nodes([0.0, 0.5, 1.0], lambda: spd(n, 0.2, 0.6)),
            "R1": constant(spd(k, 0.8, 0.4)),
            "S1": constant(spd(n, 0.1, 0.4)),
            "Q2": constant(spd(n, 0.2, 0.6)),
            "R2": nodes([0.0, 1.0], lambda: spd(k, 0.8, 0.4)),
            "S2": constant(spd(n, 0.1, 0.4)),
        },
        "weights": {"G1": spd(n, 0.2, 0.5), "G2": spd(n, 0.2, 0.5)},
        "terminal": {"a": rng.uniform(-1.0, 1.0, n).tolist(), "b": [[0.0]] * n},
    }
    return scenario_from_dict(doc).spec


def gate_spec(S1, C, Q1):
    """n = k = 2, N = 8, B1 = B2 = R1 = R2 = I and A = 0, for the stage gate of P1."""
    zero, eye = np.zeros((2, 2)), np.eye(2)
    return make_constant_spec(
        1.0, 8,
        A=zero, B1=eye, B2=eye, C=C, Q1=Q1, R1=eye, S1=S1, G1=eye,
        Q2=zero, R2=eye, S2=zero, G2=eye, a=[1.0, 0.0], b=[0.0, 0.0],
    )


def random_noisy_game(seed, n, k, steps=64):
    """n-state game with symmetric weights, C != 0 and S1 != 0, so that P1, P2 - S1
    and (I + P1 S1)^-1 do not commute; entries drawn from seed."""
    rng = np.random.default_rng(seed)

    def psd(m, floor):
        L = rng.uniform(-0.5, 0.5, (m, m))
        return L @ L.T + floor * np.eye(m)

    def entries(rows, cols):
        return rng.uniform(-0.6, 0.6, (rows, cols))

    return make_constant_spec(
        1.0, steps,
        A=entries(n, n), B1=entries(n, k), B2=entries(n, k), C=entries(n, n),
        Q1=psd(n, 0.1), R1=psd(k, 0.5), S1=psd(n, 0.1), G1=psd(n, 0.2),
        Q2=psd(n, 0.1), R2=psd(k, 0.5), S2=psd(n, 0.1), G2=psd(n, 0.2),
        a=rng.uniform(-1.0, 1.0, n), b=rng.uniform(-1.0, 1.0, n),
    )


def paper_p_fields(spec):
    """The paper's P1 and P2 equations, written out from the game's coefficients,
    as stacked fields for field_residual: field(j, P) at half-step indices j.

    P1' = -(A P1 + P1 A' - P1 Q1 P1 + B1 R1^-1 B1' + C (P1 S1 + I)^-1 P1 C'),
    P2' = P2 A + A' P2 + Q1 - P2 B1 R1^-1 B1' P2 - P2 C (P1 S1 + I)^-1 P1 C' P2.
    """
    A, B1, C, Q1, S1 = (getattr(spec, name).half for name in ("A", "B1", "C", "Q1", "S1"))
    At, Ct = np.swapaxes(A, 1, 2), np.swapaxes(C, 1, 2)
    gain = B1 @ np.linalg.inv(spec.R1.half) @ np.swapaxes(B1, 1, 2)
    eye = np.eye(spec.dims.n)

    def p1_field(j, P1):
        noise = C[j] @ np.linalg.inv(P1 @ S1[j] + eye) @ P1 @ Ct[j]
        return -(A[j] @ P1 + P1 @ At[j] - P1 @ Q1[j] @ P1 + gain[j] + noise)

    def p2_field(p1):
        P1 = p1.path.half

        def field(j, P2):
            noise = C[j] @ np.linalg.inv(P1[j] @ S1[j] + eye) @ P1[j] @ Ct[j]
            return P2 @ A[j] + At[j] @ P2 + Q1[j] - P2 @ gain[j] @ P2 - P2 @ noise @ P2

        return field

    return p1_field, p2_field


class TestFollowerRiccati:
    def test_p1_hand_solution(self, hand_spec, hand_riccati):
        p1, _ = hand_riccati
        np.testing.assert_allclose(
            p1.values[:, 0, 0], 1.0 - hand_spec.grid.nodes, atol=1e-10
        )

    def test_p2_hand_solution(self, hand_spec, hand_riccati):
        _, p2 = hand_riccati
        np.testing.assert_allclose(
            p2.values[:, 0, 0], 1.0 / (1.0 + hand_spec.grid.nodes), atol=1e-10
        )

    def test_p1_tanh_solution(self):
        spec = tanh_spec()
        p1 = bs.solve_p1(spec)
        np.testing.assert_allclose(
            p1.values[:, 0, 0], np.tanh(1.0 - spec.grid.nodes), atol=1e-10
        )

    def test_p1_rk4_order(self):
        errs = []
        for N in (8, 16, 32):
            spec = tanh_spec(N)
            p1 = bs.solve_p1(spec)
            errs.append(np.max(np.abs(p1.values[:, 0, 0] - np.tanh(1.0 - spec.grid.nodes))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.5)

    def test_p1_p2_solve_the_papers_equations(self):
        # n = 3, k = 2, non-symmetric C != 0, time-varying A and Q1: P1 and P2,
        # solved as Pi1 and Pi2 of the follower's system, against the paper's
        # equations written out above.  The residual peaks at the coefficients'
        # kink at t = 0.5 (6e-4 and 9e-4 here); reading C for C' in the
        # follower's system gives 8e-2 and 2e-2
        base = time_varying_c0_spec(seed=3, steps=480)
        C = np.random.default_rng(3).uniform(-0.3, 0.3, (3, 3))
        spec = dataclasses.replace(base, C=bs.CoefficientPath.constant(base.grid, C))
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        assert (p1.tag, p2.tag) == ("P1", "P2")
        assert np.max(np.abs(p1.values[-1])) == 0.0
        np.testing.assert_array_equal(p2.values[0], spec.G1)
        paper_p1, paper_p2 = paper_p_fields(spec)
        r1, _ = field_residual(p1, paper_p1)
        r2, _ = field_residual(p2, paper_p2(p1))
        assert r1 < 2e-3 and r2 < 2e-3

    def test_residuals_small(self, hand_riccati):
        p1, p2 = hand_riccati
        r1, _ = riccati_residual(p1)
        r2, _ = riccati_residual(p2)
        assert r1 < 1e-6 and r2 < 1e-6

    def test_singular_stage_raises_with_time_and_label(self):
        # the per-stage gate of the Riccati flow stops P1 where I + P1 S1 is singular
        spec = scenario_from_dict(singular_stage_document()).spec
        with pytest.raises(bs.SingularityError) as err:
            bs.solve_p1(spec)
        assert err.value.t == 0.5
        assert err.value.label == "(I + Pi1 S1-hat)"

    def test_exactly_singular_stage_raises_at_its_time(self):
        # n = 2, N = 8, B1 = R1 = I: the second stage of the first backward step reads
        # Pi1 = dt/2 I = I/16 exactly (at Pi1 = 0 the inverse term is zero, whatever C),
        # so I + Pi1 S1 = diag(0, 17/16); C != 0 makes the stage invert it and inv
        # raise, and the gate after the flow names that stage
        swap = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = gate_spec(np.diag([-16.0, 1.0]), swap, np.zeros((2, 2)))
        with pytest.raises(bs.SingularityError) as err:
            bs.solve_p1(spec)
        assert (err.value.t, err.value.label) == (0.9375, "(I + Pi1 S1-hat)")
        assert isinstance(err.value.__context__, np.linalg.LinAlgError)

    def test_exactly_singular_stage_at_c_zero_named_by_the_gate(self):
        # the same stage with C = 0: the flow forms no inverse, runs to its end, and
        # the gate after the flow names the stage it recorded
        spec = gate_spec(np.diag([-16.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(bs.SingularityError) as err:
            bs.solve_p1(spec)
        assert (err.value.t, err.value.label) == (0.9375, "(I + Pi1 S1-hat)")
        assert err.value.__context__ is None

    def test_ill_conditioned_stage_wins_over_later_divergence(self):
        # the same stage is diag(2^-45, 17/16), cond 3.7e13, but invertible; its huge
        # inverse, through C != 0 and Q1 = I, makes the flow diverge at t = 0.875
        eps = 2.0**-45
        swap = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = gate_spec(np.diag([-16.0 * (1.0 - eps), 1.0]), swap, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning escapes the flow
            with pytest.raises(bs.SingularityError) as err:
                bs.solve_p1(spec)
        assert (err.value.t, err.value.label) == (0.9375, "(I + Pi1 S1-hat)")
        assert isinstance(err.value.__context__, bs.DivergenceError)
        assert err.value.__context__.t == 0.875

    def test_symmetry(self, hand_riccati):
        for ric in hand_riccati:
            v = ric.values
            assert np.abs(v - v.swapaxes(1, 2)).max() == 0.0


class TestStackedSystem:
    def test_c_zero_kills_diffusion_blocks(self, hand_spec, hand_riccati):
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        assert np.max(np.abs(sys.C1h.values)) == 0.0
        assert np.max(np.abs(sys.D1h.values)) == 0.0
        # F1-hat keeps only the Q2 block
        f1 = sys.F1h.values
        assert np.max(np.abs(f1[:, 0, :])) == 0.0
        np.testing.assert_allclose(f1[:, 1, 1], hand_spec.Q2.values[:, 0, 0], atol=0)

    def test_terminal_stacking(self, hand_spec, hand_riccati):
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        np.testing.assert_allclose(sys.xih.a, [0.0, 1.0], atol=0)
        np.testing.assert_allclose(sys.xih.b, [[0.0], [0.0]], atol=0)
        assert sys.G2h[1, 1] == 1.0 and np.sum(np.abs(sys.G2h)) == 1.0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), k=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_blocks_follow_the_followers_closed_loop(self, seed, n, k):
        # phibar = x - P2 ybar for the follower's adjoint x: C1-hat = diag(C', C'), both
        # off-diagonal blocks of D1-hat are P2 C and both of F1-hat are
        # K = P2 C (I + P1 S1)^-1 P1 C' P2, which is symmetric
        spec = random_noisy_game(seed, n, k)
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        sys = bs.build_stacked_system(spec, p1, p2)
        C, S1, P1, P2 = spec.C.values, spec.S1.values, p1.values, p2.values
        Ct = np.swapaxes(C, 1, 2)
        K = P2 @ C @ np.linalg.solve(np.eye(n) + P1 @ S1, P1) @ Ct @ P2
        zero = np.zeros_like(P1)

        def blocks(h):
            v = h.values
            return v[:, :n, :n], v[:, :n, n:], v[:, n:, :n], v[:, n:, n:]

        for got, want in (
            (blocks(sys.C1h), (Ct, zero, zero, Ct)),
            (blocks(sys.D1h), (zero, P2 @ C, P2 @ C, zero)),
            (blocks(sys.F1h)[:3], (zero, K, K)),
        ):
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14)
        f1 = sys.F1h.values
        assert np.max(np.abs(f1 - np.swapaxes(f1, 1, 2))) <= 1e-14 * max(1.0, np.max(np.abs(f1)))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), k=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_unsymmetrized_flows_stay_symmetric(self, seed, n, k):
        # with a symmetric F1-hat the Pi1 and Pi2 fields map symmetric iterates to
        # symmetric ones, so the per-step symmetrization removes roundoff only
        spec = random_noisy_game(seed, n, k)
        p1 = bs.solve_p1(spec)
        sys = bs.build_stacked_system(spec, p1, bs.solve_p2(spec, p1))
        zero = np.zeros((2 * n, 2 * n))
        pi1 = bs.RiccatiPath("Pi1", bs.CoefficientPath(sys.grid, bs.integrate_matrix_ode(
            pi1_field(sys), zero, sys.grid, bs.OdeDirection.BACKWARD
        )[0]), sys.S1h)
        pi2 = bs.RiccatiPath("Pi2", bs.CoefficientPath(sys.grid, bs.integrate_matrix_ode(
            pi2_field(sys, pi1), sys.G2h, sys.grid, bs.OdeDirection.FORWARD
        )[0]))
        for pi in (pi1, pi2):
            v = pi.values
            assert np.abs(v - v.swapaxes(1, 2)).max() <= 1e-13 * max(1.0, np.abs(v).max()), pi.tag

    def test_d1h_lower_block_hand_value(self):
        # S1 = 0 scalar: lower-left D1-hat = P2 C (P1 P2 + 1) - P2 C P1 P2
        spec = make_constant_spec(
            1.0, 64,
            A=0.0, B1=1.0, B2=1.0, C=-1.0,
            Q1=1.0, R1=1.0, S1=0.0, G1=1.0,
            Q2=0.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        sys = bs.build_stacked_system(spec, p1, p2)
        P1 = p1.values[:, 0, 0]
        P2 = p2.values[:, 0, 0]
        want = P2 * (-1.0) * (P1 * P2 + 1.0) - P2 * (-1.0) * P1 * P2
        np.testing.assert_allclose(sys.D1h.values[:, 1, 0], want, atol=1e-12)


class TestLeaderRiccati:
    def test_pi_solves_and_residuals(self, hand_spec, hand_riccati):
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        pi1 = bs.solve_pi1(sys)
        pi2 = bs.solve_pi2(sys, pi1)
        assert np.max(np.abs(pi1.values[-1])) == 0.0  # terminal condition
        np.testing.assert_allclose(pi2.values[0], sys.G2h, atol=0)
        r1, _ = riccati_residual(pi1)
        r2, _ = riccati_residual(pi2)
        assert r1 < 1e-4 and r2 < 1e-4

    def test_closed_forms_match_rk4(self, hand_spec, hand_riccati):
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        pi1 = bs.solve_pi1(sys)
        pi2 = bs.solve_pi2(sys, pi1)
        cf1, det1 = bs.pi1_closed_form(sys)
        cf2, det2 = bs.pi2_closed_form(sys)
        assert det1 > 0.0 and det2 > 0.0
        assert np.max(np.abs(cf1.values - pi1.values)) < 1e-8
        assert np.max(np.abs(cf2.values - pi2.values)) < 1e-8

    def test_closed_forms_match_rk4_time_varying(self):
        # A, Q1 and R2 vary in time, so the closed forms sample the hat
        # matrices and R2 between the nodes, at the Gauss points
        spec = time_varying_c0_spec()
        assert np.ptp(spec.A.values, axis=0).max() > 0.1
        assert np.ptp(spec.R2.values, axis=0).max() > 0.1
        p1 = bs.solve_p1(spec)
        sys = bs.build_stacked_system(spec, p1, bs.solve_p2(spec, p1))
        pi1 = bs.solve_pi1(sys)
        pi2 = bs.solve_pi2(sys, pi1)
        cf1, det1 = bs.pi1_closed_form(sys)
        cf2, det2 = bs.pi2_closed_form(sys)
        assert det1 > 0.0 and det2 > 0.0
        assert np.max(np.abs(cf1.values - pi1.values)) <= 1e-9
        assert np.max(np.abs(cf2.values - pi2.values)) <= 1e-9

    def test_closed_form_requires_c_zero(self, stochastic_spec):
        p1 = bs.solve_p1(stochastic_spec)
        p2 = bs.solve_p2(stochastic_spec, p1)
        sys = bs.build_stacked_system(stochastic_spec, p1, p2)
        with pytest.raises(ValueError):
            bs.pi1_closed_form(sys)

    def test_closed_form_boundaries(self, hand_spec, hand_riccati):
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        cf1, _ = bs.pi1_closed_form(sys)
        cf2, _ = bs.pi2_closed_form(sys)
        assert np.max(np.abs(cf1.values[-1])) < 1e-12  # Pi1(T) = 0
        np.testing.assert_allclose(cf2.values[0], sys.G2h, atol=1e-12)  # Pi2(0) = G2-hat

    @pytest.mark.parametrize("closed_form", [bs.pi1_closed_form, bs.pi2_closed_form])
    def test_closed_form_names_the_follower_weight(self, hand_spec_coarse, closed_form):
        # on the follower's system the control weight is R1: a singular one is named so
        u2 = bs.AffineControl.zero(hand_spec_coarse.grid, 1)
        sys = follower_system(hand_spec_coarse, u2)
        singular = bs.CoefficientPath.constant(hand_spec_coarse.grid, np.zeros((1, 1)))
        with pytest.raises(bs.SingularityError) as e:
            closed_form(dataclasses.replace(sys, R=singular))
        assert e.value.label == "R1"


@pytest.fixture(scope="module")
def dense_chain():
    """The n = 3, k = 2, C != 0 game at N = 64, its follower's system and its chain."""
    spec = dense_game(64)
    fsys = bs.follower_system(spec, bs.AffineControl.zero(spec.grid, spec.dims.k))
    return spec, fsys, bs.riccati_chain(spec)


class TestRK4Loop:
    """The RK4 loop steps backward with h = -dt and calls the field directly; every
    flow is bit for bit that of the former reversed-time loop with a negated field."""

    @pytest.mark.parametrize("tag", ["P1", "P2", "Pi1", "Pi2"])
    def test_flows_bit_identical_to_reversed_time_reference(self, dense_chain, tag):
        spec, fsys, (p1, p2, lsys, pi1, pi2) = dense_chain
        backward, forward = bs.OdeDirection.BACKWARD, bs.OdeDirection.FORWARD
        field, boundary, direction, solved = {
            "P1": (pi1_field(fsys), np.zeros((3, 3)), backward, p1),
            "P2": (pi2_field(fsys, p1), spec.G1, forward, p2),
            "Pi1": (pi1_field(lsys), np.zeros((6, 6)), backward, pi1),
            "Pi2": (pi2_field(lsys, pi1), lsys.G2h, forward, pi2),
        }[tag]
        reference = rk4_reversed_time(field, boundary, spec.grid, direction, _sym)
        assert reference.tobytes() == solved.values.tobytes()

    def test_zero_d1_fold_drops_only_zeros(self, dense_chain):
        # a D1-hat of 1e-300 takes the general stage body, whose D1-hat products
        # then vanish in every sum: P1 is the same to the bit
        spec, fsys, (p1, *_) = dense_chain
        assert not fsys.D1h.values.any()
        tiny = bs.CoefficientPath.constant(spec.grid, np.full((3, 3), 1e-300))
        general = bs.solve_pi1(dataclasses.replace(fsys, D1h=tiny))
        assert general.values.tobytes() == p1.values.tobytes()

    def test_zero_c_fold_drops_only_zeros(self):
        # at C = 0 both Pi1 fields take the body without the inverse term; a C of
        # 1e-300 takes the bodies with it, whose products underflow to 0: every
        # flow, and each Pi1 flow's residual from its node slopes, is the same to the bit
        folded, general = c_zero_game(64), c_zero_game(64, c=1e-300)
        assert not folded.C.values.any() and general.C.values.all()
        chains = [bs.riccati_chain(spec) for spec in (folded, general)]
        for got, want in zip(*chains):
            if isinstance(got, bs.RiccatiPath):
                assert got.values.tobytes() == want.values.tobytes(), got.tag
        assert chains[1][2].D1h.values.any()  # the general game's leader keeps the full body
        residuals = [(riccati_residual(p1), riccati_residual(pi1)) for p1, _, _, pi1, _ in chains]
        assert residuals[0] == residuals[1]


class TestReferenceFlows:
    """The flows by ndarray.dot stages, one buffer per RK4 flow and the certified
    gate are bit for bit those of the former @-based loop, fields and SVD gate
    (tests/conftest.py::reference_chain), and name every bad stage as they did."""

    GAMES = {
        "stochastic": lambda: load_scenario(SCENARIOS / "stochastic.json").spec,
        "finance": lambda: bs.build_finance_spec(load_scenario(SCENARIOS / "finance.json").market),
        "dense": lambda: dense_game(64),  # n = 3, k = 2, C != 0
        "c_zero": lambda: c_zero_game(64),  # n = k = 2, C = 0
    }

    @pytest.mark.parametrize("game", list(GAMES))
    def test_chain_bit_identical_to_reference(self, game):
        spec = self.GAMES[game]()
        p1, p2, _, pi1, pi2 = bs.riccati_chain(spec)
        for got, want in zip((p1, p2, pi1, pi2), reference_chain(spec)):
            assert np.array_equal(got.values, want), got.tag
            assert got.values.tobytes() == want.tobytes(), got.tag  # signed zeros too

    SINGULAR = {
        "document": lambda: scenario_from_dict(singular_stage_document()).spec,
        "exact_c": lambda: gate_spec(
            np.diag([-16.0, 1.0]), 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))
        ),
        "exact_c_zero": lambda: gate_spec(
            np.diag([-16.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2))
        ),
        "ill_conditioned": lambda: gate_spec(
            np.diag([-16.0 * (1.0 - 2.0**-45), 1.0]),
            0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.eye(2),
        ),
    }

    @pytest.mark.parametrize("game", list(GAMES))
    def test_residuals_from_node_slopes_equal_reference_fields(self, game):
        # each flow's residual, read off its own RK4 node slopes, is exactly the
        # one the former @-based fields give on the stack of interior nodes
        spec = self.GAMES[game]()
        p1, p2, lsys, pi1, pi2 = bs.riccati_chain(spec)
        fsys = follower_system(spec, bs.AffineControl.zero(spec.grid, spec.dims.k))
        fields = (
            (p1, matmul_pi1_field(fsys)),
            (p2, matmul_pi2_field(fsys, p1)),
            (pi1, matmul_pi1_field(lsys)),
            (pi2, matmul_pi2_field(lsys, pi1)),
        )
        for ric, field in fields:
            assert riccati_residual(ric) == field_residual(ric, field), ric.tag

    @pytest.mark.parametrize("case", list(SINGULAR))
    def test_singular_stage_named_as_by_reference(self, case):
        spec = self.SINGULAR[case]()
        named = []
        for solve in (bs.riccati_chain, reference_chain):
            with pytest.raises(bs.SingularityError) as err:
                solve(spec)
            named.append((err.value.t, err.value.label))
        assert named[0] == named[1]


class TestCsvExport:
    def test_round_trip_precision(self, hand_riccati):
        p1, _ = hand_riccati
        text = csv_text(riccati_csv, p1)
        lines = text.strip().split("\n")
        assert lines[0] == "t,m_11"
        t, v = map(float, lines[6].split(","))  # header + node index 5
        assert v == p1.values[5, 0, 0]  # 17 significant digits round-trips

    def test_rows_match_fstring_form_bytewise(self):
        # one "%.17g" format string per slab writes the bytes of one f-string per
        # number; 7.0 stands for a path number, printed as the integer
        special = [np.nan, np.inf, -np.inf, -0.0, 1e-320, 0.1, 1e300, 7.0]
        table = np.array([np.roll(special, s) for s in range(len(special))])
        header = [f"c{j}" for j in range(len(special))]
        lines = [",".join(header)] + [",".join(f"{x:.17g}" for x in row) for row in table.tolist()]
        assert csv_text(csv_block, table, header) == "\n".join(lines) + "\n"

        finite = [-0.0, 1e-320, 0.1, 1e300]
        grid = bs.TimeGrid(1.0, 3)
        ric = bs.RiccatiPath("P1", bs.CoefficientPath(grid, np.reshape(finite * 4, (4, 2, 2))))
        lines = ["t,m_11,m_12,m_21,m_22"]
        for t, m in zip(grid.nodes, ric.values):
            lines.append(",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in m.ravel()]))
        assert csv_text(riccati_csv, ric) == "\n".join(lines) + "\n"

    def test_slabs_are_written_as_whole_rows(self):
        # 2 paths x 300 nodes span three CSV_SLAB_ROWS slabs: the header, then one
        # write per slab of whole rows, which join into the rows of every path
        rng = np.random.default_rng(5)
        nodes = np.linspace(0.0, 1.0, 300)
        data = rng.normal(size=(300, 2, 3))
        lines = ["path,t,a,b,c"] + [
            f"{p},{t:.17g}," + ",".join(f"{x:.17g}" for x in data[i, p])
            for p in range(2)
            for i, t in enumerate(nodes)
        ]

        class Writes(io.StringIO):
            """A StringIO that keeps the text of each write."""

            def __init__(self):
                super().__init__()
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return super().write(text)

        out = Writes()
        paths_csv(nodes, ["a", "b", "c"], data, np.broadcast_to(np.eye(3), (300, 3, 3)), out)
        assert out.getvalue() == "\n".join(lines) + "\n"
        rows = [part.count("\n") for part in out.parts]
        assert rows == [1, CSV_SLAB_ROWS, CSV_SLAB_ROWS, 600 - 2 * CSV_SLAB_ROWS]
        assert all(part.endswith("\n") for part in out.parts)

    def test_header_names_are_distinct_above_dimension_nine(self):
        # m_112 would be both (1, 12) and (11, 2); up to dimension 9 the names keep no "_"
        grid = bs.TimeGrid(1.0, 2)

        def header(n):
            ric = bs.RiccatiPath("Pi1", bs.CoefficientPath(grid, np.zeros((3, n, n))))
            return csv_text(riccati_csv, ric).split("\n", 1)[0].split(",")

        assert header(3) == [
            "t", "m_11", "m_12", "m_13", "m_21", "m_22", "m_23", "m_31", "m_32", "m_33"
        ]
        names = header(12)
        assert len(set(names[1:])) == len(names[1:]) == 144
        assert names[1:3] == ["m_1_1", "m_1_2"] and names[-1] == "m_12_12"
