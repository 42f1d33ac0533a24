"""Matrix ODE integration, transition matrices, solvability scans."""

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.odeint import (
    OdeDirection,
    guarded_inv,
    integrate_matrix_ode,
    transition_steps,
)

from conftest import solvability_scan


class TestRK4:
    def test_forward_exponential_exact_to_rk4_order(self):
        g = bs.TimeGrid(1.0, 64)
        sol = integrate_matrix_ode(lambda t, m: m, np.eye(1), g, OdeDirection.FORWARD)
        err = abs(float(sol[-1, 0, 0]) - np.e)
        assert err < 1e-8

    def test_backward_matches_forward_in_reversed_time(self):
        # M' = M with M(T) = I has M(t) = e^(t - T)
        g = bs.TimeGrid(1.0, 64)
        sol = integrate_matrix_ode(lambda t, m: m, np.eye(1), g, OdeDirection.BACKWARD)
        np.testing.assert_allclose(
            sol[:, 0, 0], np.exp(g.nodes - 1.0), rtol=0, atol=1e-8
        )

    def test_fourth_order_convergence(self):
        # nonlinear scalar Riccati m' = 1 - m^2, m(0) = 0, exact tanh(t)
        errs = []
        for N in (8, 16, 32, 64):
            g = bs.TimeGrid(1.0, N)
            sol = integrate_matrix_ode(
                lambda t, m: np.eye(1) - m @ m, np.zeros((1, 1)), g, OdeDirection.FORWARD
            )
            errs.append(np.max(np.abs(sol[:, 0, 0] - np.tanh(g.nodes))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.5)

    def test_postprocess_applied_each_step(self):
        g = bs.TimeGrid(1.0, 10)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        sol = integrate_matrix_ode(
            lambda t, m: skew,
            np.zeros((2, 2)),
            g,
            OdeDirection.FORWARD,
            postprocess=lambda m: 0.5 * (m + m.T),
        )
        assert np.allclose(sol, np.transpose(sol, (0, 2, 1)))

    def test_divergence_detected_with_time(self):
        # m' = m^2, m(0) = 2 blows up at t = 0.5; the 1e12 bound trips at t = 0.501
        g = bs.TimeGrid(1.0, 1000)
        with pytest.raises(bs.DivergenceError) as e:
            integrate_matrix_ode(lambda t, m: m @ m, 2.0 * np.eye(1), g, OdeDirection.FORWARD)
        assert 0.4 < e.value.t < 0.7

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "direction, poisoned, node",
        # forward, step 4 reads half steps 6, 7, 7, 8 and ends at node 4;
        # backward, step 4 reads 14, 13, 13, 12 and ends at node 6
        [(OdeDirection.FORWARD, 7, 4), (OdeDirection.BACKWARD, 13, 6)],
    )
    def test_nonfinite_stage_diverges_at_its_step(self, direction, poisoned, node, value):
        g = bs.TimeGrid(1.0, 10)

        def field(j, m):
            return np.full((1, 1), value if j == poisoned else 0.0)

        with pytest.raises(bs.DivergenceError) as e:
            integrate_matrix_ode(field, np.eye(1), g, direction)
        assert e.value.t == g.nodes[node]


class TestGuardedInverse:
    def test_regular_matrix(self):
        m = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(guarded_inv(m, 0.0, "m") @ m, np.eye(2), atol=1e-14)

    def test_singular_matrix_raises_with_time_and_label(self):
        with pytest.raises(bs.SingularityError) as e:
            guarded_inv(np.zeros((2, 2)), 0.25, "(test)")
        assert e.value.t == 0.25 and "(test)" in str(e.value)

    def test_nonfinite_raises(self):
        with pytest.raises(bs.SingularityError):
            guarded_inv(np.array([[np.nan]]), 0.0, "m")
        stack = np.stack([np.eye(2), np.full((2, 2), np.inf), np.eye(2)])
        with pytest.raises(bs.SingularityError) as e:
            guarded_inv(stack, np.array([0.0, 0.5, 1.0]), "m")
        assert e.value.t == 0.5

    def test_stack_inverted_entrywise(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(5, 3, 3)) + 3.0 * np.eye(3)
        inv = guarded_inv(stack, np.linspace(0.0, 1.0, 5), "m")
        for m, m_inv in zip(stack, inv):
            np.testing.assert_allclose(m_inv @ m, np.eye(3), rtol=0, atol=1e-13)

    def test_stack_singular_entry_named_by_time_and_label(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2), np.ones((2, 2)), np.zeros((2, 2))])
        with pytest.raises(bs.SingularityError) as e:
            guarded_inv(stack, np.array([0.0, 0.25, 0.5, 0.75]), "(stack)")
        assert e.value.t == 0.5 and e.value.label == "(stack)"


class TestMatrixExponential:
    def test_against_series(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) * 0.3
        series = np.eye(4)
        term = np.eye(4)
        for j in range(1, 30):
            term = term @ m / j
            series = series + term
        np.testing.assert_allclose(bs.matrix_exponential(m), series, atol=1e-12)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            bs.matrix_exponential(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            bs.matrix_exponential(np.array([[np.inf]]))


class TestTransitionSteps:
    def test_constant_matrix_reduces_to_expm(self):
        g = bs.TimeGrid(1.0, 5)
        m = np.array([[0.1, 1.0], [-0.3, 0.2]])
        steps = transition_steps(lambda t: np.broadcast_to(m, (t.size, 2, 2)), g)
        expected = bs.matrix_exponential(m * g.dt)
        np.testing.assert_allclose(steps, np.broadcast_to(expected, steps.shape), atol=1e-13)

    def test_time_varying_fourth_order(self):
        # dU/dt = a(t) U scalar: exact transition exp(int a)
        def afun(t):
            return np.sin(3.0 * t)[:, None, None]

        errs = []
        for N in (8, 16, 32):
            g = bs.TimeGrid(1.0, N)
            steps = transition_steps(afun, g)
            u = 1.0
            for s in steps:
                u = float(s[0, 0]) * u
            exact = np.exp((1.0 - np.cos(3.0)) / 3.0)
            errs.append(abs(u - exact))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.5)


class TestSolvabilityScan:
    def test_identity_at_time_zero(self):
        g = bs.TimeGrid(1.0, 16)
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) * 0.2
        report = solvability_scan(m, g)
        assert report.determinants[0] == pytest.approx(1.0)

    def test_oscillator_rejected(self):
        # lower-right block of exp(Mt) vanishes at t = pi/10 < 1
        m = np.array([[0.0, 1.0], [-25.0, 0.0]])
        report = solvability_scan(m, bs.TimeGrid(1.0, 200))
        assert not report.satisfied
        assert report.min_determinant < 0.0

    def test_stable_system_accepted(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        report = solvability_scan(m, bs.TimeGrid(1.0, 100))
        assert report.satisfied
        assert report.min_determinant > 0.0

    def test_rejects_odd_or_nonsquare(self):
        g = bs.TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            solvability_scan(np.zeros((3, 3)), g)
        with pytest.raises(ValueError):
            solvability_scan(np.zeros((2, 4)), g)
