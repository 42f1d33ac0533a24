"""Matrix ODE integration, transition matrices, solvability scans."""

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.odeint import (
    COND_LIMIT,
    OdeDirection,
    check_invertible,
    guarded_inv,
    integrate_matrix_ode,
    transition_steps,
)

from conftest import solvability_scan, svd_gate, svd_guarded_inv


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


def conditioned(rng, m, kappa):
    """A random m x m matrix with singular values 1, kappa^-1/2 (m - 2 times) and
    1/kappa: cond kappa, and kappa_F = |M|_F |M^-1|_F = kappa + m - 2 + O(1/kappa)."""
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    V, _ = np.linalg.qr(rng.normal(size=(m, m)))
    s = np.full(m, kappa**-0.5)
    s[0], s[-1] = 1.0, 1.0 / kappa
    return (U * s) @ V.T


def named(gate, *args):
    """(t, label) of the SingularityError a gate raises, or None if it passes."""
    try:
        gate(*args)
    except bs.SingularityError as err:
        return err.t, err.label
    return None


class TestCertifiedGate:
    """check_invertible passes a matrix on kappa_F <= COND_LIMIT / 2 and leaves the
    rest to the batched SVD: every decision, time and label is the SVD gate's
    alone (conftest.svd_gate), right at the 1e12 boundary."""

    TIMES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    def stack(self, m, bad=None, at=2):
        rng = np.random.default_rng(m)
        stack = np.stack([conditioned(rng, m, 10.0) for _ in self.TIMES])
        if bad is not None:
            stack[at] = bad(rng, m)
        return stack

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("kappa", [1e3, 0.4e12, 0.99e12, 1.01e12, 3e12])
    def test_boundary_decided_as_by_the_svd(self, m, kappa):
        stack = self.stack(m, lambda rng, m: conditioned(rng, m, kappa))
        want = None if kappa < COND_LIMIT else (0.5, "(b)")
        assert named(svd_gate, stack, self.TIMES, "(b)") == want
        assert named(check_invertible, stack, self.TIMES, "(b)") == want
        inverse = np.linalg.inv(stack)
        assert named(check_invertible, stack, self.TIMES, "(b)", inverse) == want
        assert named(guarded_inv, stack, self.TIMES, "(b)") == want
        if want is None:
            assert guarded_inv(stack, self.TIMES, "(b)").tobytes() == inverse.tobytes()

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_svd_runs_only_on_uncertified_matrices(self, m, monkeypatch):
        seen, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda x: seen.append(len(x)) or cond(x))
        check_invertible(self.stack(m), self.TIMES, "(b)")
        # kappa_F is about 0.99e12 + m - 2 > COND_LIMIT / 2: only that matrix goes to the SVD
        near = self.stack(m, lambda rng, m: conditioned(rng, m, 0.99e12))
        check_invertible(near, self.TIMES, "(b)")
        assert seen == [1]

    BAD = {
        "singular": lambda rng, m: np.ones((m, m)),  # the batched inv raises
        "zero": lambda rng, m: np.zeros((m, m)),
        "nan": lambda rng, m: np.where(np.eye(m) > 0, np.nan, conditioned(rng, m, 2.0)),
        "inf": lambda rng, m: np.full((m, m), np.inf),
    }

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("bad", list(BAD))
    def test_singular_and_nonfinite_named_as_by_the_svd(self, m, bad):
        stack = self.stack(m, self.BAD[bad], at=3)
        assert named(svd_gate, stack, self.TIMES, "(s)") == (0.75, "(s)")
        assert named(check_invertible, stack, self.TIMES, "(s)") == (0.75, "(s)")
        assert named(guarded_inv, stack, self.TIMES, "(s)") == (0.75, "(s)")
        assert named(svd_guarded_inv, stack, self.TIMES, "(s)") == (0.75, "(s)")
        # an earlier matrix above the boundary is named first
        stack[1] = conditioned(np.random.default_rng(0), m, 1.01e12)
        assert named(check_invertible, stack, self.TIMES, "(s)") == (0.25, "(s)")

    @pytest.mark.parametrize("kappa, want", [(10.0, None), (1.01e12, (0.5, "(u)"))])
    def test_unwritten_inverse_slot_goes_to_the_svd(self, kappa, want):
        # a stage whose inv never ran keeps the NaN its slot was filled with: that
        # slot certifies nothing, and the SVD decides the matrix
        stack = self.stack(4, lambda rng, m: conditioned(rng, m, kappa))
        inverse = np.linalg.inv(stack)
        inverse[2] = np.nan
        assert named(check_invertible, stack, self.TIMES, "(u)", inverse) == want


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
