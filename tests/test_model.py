"""Specification types: grids, coefficient paths, terminal data, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsde_stackelberg as bs
from bsde_stackelberg.model import SYMMETRY_TOL, eval_coefficient


class TestDimensions:
    def test_defaults(self):
        d = bs.Dimensions(3)
        assert (d.n, d.k) == (3, 1)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_rejects_nonpositive_or_nonint(self, bad):
        with pytest.raises(bs.SpecError):
            bs.Dimensions(bad)


class TestTimeGrid:
    def test_nodes_and_dt(self):
        g = bs.TimeGrid(2.0, 4)
        assert g.dt == 0.5
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.nodes[-1] == 2.0  # exact, not accumulated

    def test_last_node_exact_for_awkward_dt(self):
        g = bs.TimeGrid(1.0, 3)
        assert g.nodes[-1] == 1.0

    @pytest.mark.parametrize("horizon,steps", [(0.0, 10), (-1.0, 10), (np.inf, 10), (1.0, 0)])
    def test_rejects_bad_grid(self, horizon, steps):
        with pytest.raises(bs.SpecError):
            bs.TimeGrid(horizon, steps)

    @given(steps=st.integers(1, 500), horizon=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_grid_invariants(self, steps, horizon):
        g = bs.TimeGrid(horizon, steps)
        assert len(g.nodes) == steps + 1
        assert g.nodes[0] == 0.0 and g.nodes[-1] == horizon
        assert np.all(np.diff(g.nodes) > 0)


class TestCoefficientPath:
    def test_node_evaluation_is_bit_exact(self):
        g = bs.TimeGrid(1.0, 7)
        vals = np.random.default_rng(0).normal(size=(8, 2, 2))
        p = bs.CoefficientPath(g, vals)
        for i, t in enumerate(g.nodes):
            assert np.array_equal(p(t), vals[i])

    def test_linear_interpolation_between_nodes(self):
        g = bs.TimeGrid(1.0, 2)
        vals = np.array([[[0.0]], [[2.0]], [[4.0]]])
        p = bs.CoefficientPath(g, vals)
        assert eval_coefficient(p, 0.25) == pytest.approx(1.0)
        assert eval_coefficient(p, 0.75) == pytest.approx(3.0)

    def test_constant_path(self):
        g = bs.TimeGrid(1.0, 5)
        p = bs.CoefficientPath.constant(g, [[1.0, 2.0]])
        assert p.shape == (1, 2)
        assert np.array_equal(p(0.37), [[1.0, 2.0]])

    def test_out_of_range_raises(self):
        g = bs.TimeGrid(1.0, 2)
        p = bs.CoefficientPath.constant(g, 1.0)
        with pytest.raises(ValueError):
            p(1.5)
        with pytest.raises(ValueError):
            p(-0.1)

    def test_rejects_wrong_node_count_and_nonfinite(self):
        g = bs.TimeGrid(1.0, 2)
        with pytest.raises(bs.SpecError):
            bs.CoefficientPath(g, np.zeros((2, 1, 1)))
        with pytest.raises(bs.SpecError):
            bs.CoefficientPath(g, np.full((3, 1, 1), np.nan))

    def test_values_are_immutable(self):
        g = bs.TimeGrid(1.0, 2)
        p = bs.CoefficientPath.constant(g, 1.0)
        with pytest.raises(ValueError):
            p.values[0, 0, 0] = 2.0

    def test_one_table_holds_nodes_and_midpoints(self):
        # values is the read-only even-row view of the one half-step table, and
        # the odd rows are the node midpoints, by the expression they always had
        g = bs.TimeGrid(1.0, 7)
        v = np.random.default_rng(2).normal(size=(8, 2, 3))
        p = bs.CoefficientPath(g, v)
        assert p.half.shape == (15, 2, 3)
        assert np.shares_memory(p.values, p.half) and p.values.base is p.half
        assert not p.values.flags.writeable and not p.half.flags.writeable
        assert p.values.tobytes() == v.tobytes()
        assert p.half[1::2].tobytes() == (0.5 * (v[:-1] + v[1:])).tobytes()
        assert not np.shares_memory(p.half, v)  # the table is the path's own

    @given(t=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_interpolation_stays_within_node_bounds(self, t):
        g = bs.TimeGrid(1.0, 8)
        vals = np.random.default_rng(1).normal(size=(9, 1, 1))
        p = bs.CoefficientPath(g, vals)
        v = float(eval_coefficient(p, t)[0, 0])
        assert vals.min() - 1e-12 <= v <= vals.max() + 1e-12


def _one_time_rule(path, t):
    """The per-time rule, written out on Python floats: clamp the 1e-12 band,
    stored matrix at nodes and at t >= T, (1 - w) v_i + w v_(i+1) in between."""
    grid = path.grid
    t = min(max(t, 0.0), grid.horizon)
    i = int(np.floor(t / grid.dt))
    if i < grid.steps and t == grid.nodes[i + 1]:
        i += 1  # t / dt rounded to just below the node's index
    if i >= grid.steps:
        return path.values[grid.steps]
    if t == grid.nodes[i]:
        return path.values[i]
    w = (t - grid.nodes[i]) / grid.dt
    return (1.0 - w) * path.values[i] + w * path.values[i + 1]


class TestStackedEvaluation:
    @given(
        steps=st.integers(1, 60),
        # besides random horizons, ones whose t / dt falls just below some node's index
        horizon=st.floats(1e-2, 1e2) | st.sampled_from([1.03125, 0.1, 0.7, 3.3]),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_one_time_calls(self, steps, horizon, fractions, seed):
        g = bs.TimeGrid(horizon, steps)
        p = bs.CoefficientPath(g, np.random.default_rng(seed).normal(size=(steps + 1, 2, 3)))
        band = 1e-12 * max(1.0, horizon)
        mids = g.nodes[:-1] + 0.5 * g.dt
        t = np.concatenate([
            g.nodes, mids, np.array(fractions) * horizon,
            [-band, -0.5 * band, horizon + 0.5 * band, horizon + band],
        ])
        stack = eval_coefficient(p, t)
        assert stack.shape == (t.size, 2, 3)
        assert np.array_equal(stack[: steps + 1], p.values)  # every node returns its matrix
        ones = np.stack([eval_coefficient(p, float(s)) for s in t])
        assert np.array_equal(stack, ones)
        assert np.array_equal(stack, np.stack([_one_time_rule(p, float(s)) for s in t]))
        assert np.array_equal(p(t), stack) and p(float(t[-1])).shape == (2, 3)

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, np.nan])
    def test_out_of_range_element_raises(self, bad):
        g = bs.TimeGrid(1.0, 4)
        p = bs.CoefficientPath.constant(g, np.eye(2))
        with pytest.raises(ValueError, match="outside"):
            eval_coefficient(p, np.array([0.0, 0.5, bad, 1.0]))


class TestTerminalCondition:
    def test_deterministic_flag(self):
        assert bs.TerminalCondition([1.0], [[0.0]]).deterministic
        assert not bs.TerminalCondition([1.0], [[0.5]]).deterministic

    def test_shape_mismatch(self):
        with pytest.raises(bs.SpecError):
            bs.TerminalCondition([1.0, 2.0], [[0.0]])


class TestAffineControl:
    def test_zero_and_constant(self):
        g = bs.TimeGrid(1.0, 3)
        z = bs.AffineControl.zero(g, 2)
        assert np.array_equal(z.u_const(0.5), np.zeros((2, 1)))
        c = bs.AffineControl.constant(g, [3.0, -1.0])
        assert np.array_equal(c.u_const(0.0), [[3.0], [-1.0]])
        assert np.array_equal(c.u_lin(0.0), np.zeros((2, 1)))


class TestSpecValidation:
    def test_hand_scenario_validates_clean(self, hand_spec):
        report = bs.validate_spec(hand_spec)
        assert report.violations == () and report.passed

    def test_non_pd_r1_is_error(self, hand_spec_coarse):
        import dataclasses

        spec = dataclasses.replace(
            hand_spec_coarse, R1=bs.CoefficientPath.constant(hand_spec_coarse.grid, 0.0)
        )
        report = bs.validate_spec(spec)
        assert not report.passed
        assert any(v.assumption == "(L2)" and "R1" in v.location for v in report.errors)

    def test_negative_g1_strict_vs_permissive(self, hand_spec_coarse):
        import dataclasses

        spec = dataclasses.replace(hand_spec_coarse, G1=np.array([[-2.0]]))
        strict = bs.validate_spec(spec, strict=True)
        assert not strict.passed
        permissive = bs.validate_spec(spec, strict=False)
        assert permissive.passed and permissive.violations
        assert permissive.violations[0].severity == "warning"

    def test_asymmetric_weight_always_error(self):
        # asymmetry needs n >= 2: build a 2x2 spec directly
        from bsde_stackelberg.scenario import make_constant_spec

        spec = make_constant_spec(
            1.0, 8,
            A=np.zeros((2, 2)), B1=np.ones((2, 1)), B2=np.ones((2, 1)), C=np.zeros((2, 2)),
            Q1=[[0.0, 1.0], [0.0, 0.0]], R1=1.0, S1=np.zeros((2, 2)), G1=np.eye(2),
            Q2=np.zeros((2, 2)), R2=1.0, S2=np.zeros((2, 2)), G2=np.eye(2),
            a=[1.0, 0.0], b=[0.0, 0.0],
        )
        for strict in (True, False):
            report = bs.validate_spec(spec, strict=strict)
            assert any(v.severity == "error" and "symmetric" in v.message for v in report.violations)

    def test_violation_messages_pinned(self):
        # one bad node each: Q1 not PSD at t = 0.5, R2 not PD at t = 0.25; S1 asymmetric
        import dataclasses

        from bsde_stackelberg.scenario import make_constant_spec

        z, eye = np.zeros((2, 2)), np.eye(2)
        base = make_constant_spec(
            1.0, 4,
            A=z, B1=eye, B2=eye, C=z, Q1=eye, R1=eye, S1=z, G1=eye,
            Q2=z, R2=eye, S2=z, G2=eye, a=[1.0, 0.0], b=[0.0, 0.0],
        )
        q1, r2 = np.tile(eye, (5, 1, 1)), np.tile(eye, (5, 1, 1))
        q1[2] = np.diag([1.0, -0.25])
        r2[1] = np.diag([2.0, -0.5])
        spec = dataclasses.replace(
            base,
            Q1=bs.CoefficientPath(base.grid, q1),
            S1=bs.CoefficientPath.constant(base.grid, [[0.0, 1e-3], [0.0, 0.0]]),
            R2=bs.CoefficientPath(base.grid, r2),
        )
        for strict, q1_severity in ((True, "error"), (False, "warning")):
            report = bs.validate_spec(spec, strict=strict)
            assert [str(v) for v in report.violations] == [
                f"(L2): Q1 not PSD (min eig -2.500e-01) [Q1, {q1_severity}]",
                "(L2): S1 not symmetric (asymmetry 1.000e-03) [S1, error]",
                "(L3): R2 not positive definite (min eig -5.000e-01) [R2, error]",
            ]

    def test_shape_mismatch_is_structural(self, hand_spec_coarse):
        import dataclasses

        bad = bs.CoefficientPath.constant(hand_spec_coarse.grid, np.zeros((2, 2)))
        with pytest.raises(bs.SpecError):
            dataclasses.replace(hand_spec_coarse, A=bad)

    @pytest.mark.parametrize("name", ["G1", "G2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_rejected(self, hand_spec_coarse, name, value):
        import dataclasses

        with pytest.raises(bs.SpecError, match=f"^weight {name} must be finite$"):
            dataclasses.replace(hand_spec_coarse, **{name: [[value]]})

    def test_symmetry_tolerance_boundary(self, hand_spec_coarse):
        # an asymmetry below SYMMETRY_TOL must pass
        from bsde_stackelberg.scenario import make_constant_spec

        eps = 0.5 * SYMMETRY_TOL
        spec = make_constant_spec(
            1.0, 8,
            A=np.zeros((2, 2)), B1=np.ones((2, 1)), B2=np.ones((2, 1)), C=np.zeros((2, 2)),
            Q1=[[1.0, eps], [0.0, 1.0]], R1=1.0, S1=np.zeros((2, 2)), G1=np.eye(2),
            Q2=np.zeros((2, 2)), R2=1.0, S2=np.zeros((2, 2)), G2=np.eye(2),
            a=[1.0, 0.0], b=[0.0, 0.0],
        )
        assert bs.validate_spec(spec).passed
