"""Consumption-rate application: closed forms, specialization, dual reserve."""

import tracemalloc

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg import sampling
from bsde_stackelberg.finance import (
    MarketParams,
    build_finance_spec,
    consumption_paths_csv,
    dual_tables,
    reserve_samples,
)
from bsde_stackelberg.scenario import load_scenario

from conftest import (
    assert_csv_blocks,
    csv_text,
    dense_game,
    dual_coefficients,
    gamma_step,
    p1_closed_form,
    reserve_reference,
    running_values,
    specialized_stacked_matrices,
)
from test_streaming import SCENARIOS, WORKING_SET_CHUNKS


def benchmark_market(steps=100):
    """r = 0, mu = sigma (theta = 1): P1(0) = e - 1 exactly."""
    return MarketParams.constant(
        1.0, steps, r=0.0, mu=0.25, sigma=0.25, R1=1.0, R2=1.5,
        G1=1.0, G2=0.8, a=1.0, b=0.0,
    )


def riccati_pair(m):
    spec = build_finance_spec(m)
    p1 = bs.solve_p1(spec)
    return p1, bs.solve_p2(spec, p1)


def gamma_propagator(solved, t, s, path):
    """Pathwise propagator Gamma_t(s) (2n x 2n) of reserve_reference, identity at s = t.

    t and s must be grid nodes with t <= s; the path index selects the
    Brownian trajectory of the solved pair (sol, path arrays).
    """
    sol, ens = solved
    grid = sol.system.grid
    i0 = int(round(t / grid.dt))
    i1 = int(round(s / grid.dt))
    if not (0 <= i0 <= i1 <= grid.steps):
        raise ValueError(f"need grid nodes 0 <= t <= s <= T, got t={t}, s={s}")
    for i, u in ((i0, t), (i1, s)):
        if abs(grid.nodes[i] - u) > 1e-12 * max(1.0, grid.horizon):
            raise ValueError(f"time {u} is not a grid node")
    a, c, _ = dual_coefficients(sol)
    gamma = np.eye(2 * sol.system.n)[None]
    dW = ens.bundle.dW
    for i in range(i0, i1):
        gamma = gamma_step(gamma, a[i], a[i + 1], c[i], grid.dt, dW[i, path : path + 1])
    return gamma[0]


class TestMarketParams:
    def test_theta(self, market):
        assert market.theta().values[0, 0, 0] == pytest.approx((0.08 - 0.03) / 0.25)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            MarketParams.constant(
                1.0, 10, r=0.0, mu=0.1, sigma=0.0, R1=1.0, R2=1.0,
                G1=1.0, G2=1.0, a=1.0,
            )

    def test_rejects_mu_below_r(self):
        with pytest.raises(ValueError):
            MarketParams.constant(
                1.0, 10, r=0.05, mu=0.01, sigma=0.2, R1=1.0, R2=1.0,
                G1=1.0, G2=1.0, a=1.0,
            )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MarketParams.constant(
                1.0, 10, r=0.0, mu=0.1, sigma=0.2, R1=0.0, R2=1.0,
                G1=1.0, G2=1.0, a=1.0,
            )

    @pytest.mark.parametrize("name", ["G1", "G2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_terminal_weights(self, name, value):
        weights = {"G1": 1.0, "G2": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^market weight {name} must be finite$"):
            MarketParams.constant(1.0, 10, r=0.0, mu=0.1, sigma=0.2, R1=1.0, R2=1.0, a=1.0, **weights)


class TestSpecMapping:
    def test_coefficients(self, market):
        spec = build_finance_spec(market)
        t = 0.5
        assert spec.A(t)[0, 0] == -0.03
        assert spec.B1(t)[0, 0] == 1.0 and spec.B2(t)[0, 0] == 1.0
        assert spec.C(t)[0, 0] == pytest.approx(-(0.08 - 0.03) / 0.25)
        assert np.max(np.abs(spec.Q1.values)) == 0.0
        assert np.max(np.abs(spec.Q2.values)) == 0.0
        assert spec.G1[0, 0] == 1.0 and spec.G2[0, 0] == 0.8

    def test_passes_permissive_validation(self, market):
        build_finance_spec(market)  # does not raise


class TestScalarRiccati:
    def test_p1_initial_value_benchmark(self):
        p1 = p1_closed_form(benchmark_market())
        assert abs(p1[0] - (np.e - 1.0)) < 1e-14

    def test_scalar_p1_matches_closed_form(self):
        m = benchmark_market(400)
        p1, _ = riccati_pair(m)
        np.testing.assert_allclose(
            p1.values[:, 0, 0], p1_closed_form(m), atol=1e-9
        )

    def test_degenerate_rate_limit(self):
        # theta^2 = 2r: P1 = (T - t)/R1
        m = MarketParams.constant(
            1.0, 50, r=0.02, mu=0.05, sigma=0.15, R1=2.0, R2=1.0,
            G1=1.0, G2=1.0, a=1.0,
        )
        assert m.theta().values[0, 0, 0] ** 2 == pytest.approx(0.04)
        np.testing.assert_allclose(
            p1_closed_form(m), (1.0 - m.grid.nodes) / 2.0, atol=1e-12
        )

    def test_p2_positive_and_bounded_by_g1(self, market):
        _, p2 = riccati_pair(market)
        assert np.all(p2.values[:, 0, 0] > 0.0)
        assert p2.values[0, 0, 0] == market.G1


class TestSpecializedMatrices:
    def test_matches_generic_assembly(self, market):
        p1, p2 = riccati_pair(market)
        sys = bs.build_stacked_system(build_finance_spec(market), p1, p2)
        mats = specialized_stacked_matrices(market, p1, p2)
        for name, vals in mats.items():
            gap = np.max(np.abs(getattr(sys, name).values - vals))
            assert gap < 1e-12, name


class TestEquilibrium:
    def test_wealth_terminal_identity(self, market, consumption):
        _, ens = consumption
        xi = market.xi.a[0] + market.xi.b[0, 0] * running_values(ens.bundle.dW)[-1]
        assert np.max(np.abs(ens.ybar[-1, :, 0] - xi)) < 1e-10

    def test_portfolio_is_scaled_martingale_loading(self, market, consumption):
        # the writer reads every column off one product of zeta with its joined
        # table, so a column may differ from its process's own product in the
        # last bit; the 17-digit round trip is exact (test_round_trip_precision)
        sol, ens = consumption
        text = csv_text(consumption_paths_csv, sol, market, ens.zeta[:, :2])
        portfolio = ens.zbar / market.sigma.values
        blocks = [("y", ens.ybar), ("pi", portfolio), ("c1", ens.u1), ("c2", ens.u2)]
        assert_csv_blocks(text, blocks, paths=2)

    def test_csv_header_and_cap(self, market, consumption):
        sol, ens = consumption
        text = csv_text(consumption_paths_csv, sol, market, ens.zeta[:, :2])
        lines = text.strip().split("\n")
        assert lines[0] == "path,t,y,pi,c1,c2"
        assert len(lines) == 1 + 2 * (market.grid.steps + 1)


class TestDualRepresentation:
    def test_propagator_identity_at_start(self, consumption):
        g = gamma_propagator(consumption, 0.0, 0.0, path=0)
        np.testing.assert_allclose(g, np.eye(2), atol=0)

    def test_propagator_composes(self, consumption):
        dt = consumption[0].system.grid.dt
        full = gamma_propagator(consumption, 0.0, 4 * dt, path=1)
        left = gamma_propagator(consumption, 0.0, 2 * dt, path=1)
        right = gamma_propagator(consumption, 2 * dt, 4 * dt, path=1)
        np.testing.assert_allclose(right @ left, full, atol=1e-12)

    def test_rejects_off_grid_times(self, consumption):
        with pytest.raises(ValueError):
            gamma_propagator(consumption, 0.0, 0.1234567, path=0)
        with pytest.raises(ValueError):
            gamma_propagator(consumption, 0.5, 0.25, path=0)

    def test_deterministic_market_reserve_exact(self):
        # mu = r kills the noise loading: the dual integral is deterministic
        m = MarketParams.constant(
            1.0, 100, r=0.03, mu=0.03, sigma=0.2, R1=1.0, R2=1.5,
            G1=1.0, G2=0.8, a=1.0, b=0.0,
        )
        summary, _ = bs.consumption_summary(m, bs.MonteCarloConfig(4, 0))
        dual = summary["dual_check"]
        assert np.max(dual["stderr"]) < 1e-12
        assert np.max(np.abs(dual["gap"])) < 1e-5
        assert dual["mc_estimate"][1] == pytest.approx(summary["initial_reserve"], abs=1e-5)

    def test_stochastic_market_reserve_within_three_sigma(self, market):
        summary, _ = bs.consumption_summary(market, bs.MonteCarloConfig(2000, 5))
        dual = summary["dual_check"]
        ratios = np.abs(dual["gap"]) / np.maximum(dual["stderr"], 1e-300)
        assert np.all(ratios < 3.0)

    @pytest.mark.parametrize("game", ["market", "dense"])
    def test_backward_rows_match_forward_propagator(self, market, game):
        # at n = 1, C1h = diag(C^T, C^T) is a multiple of I and commutes with every
        # drift, so only the dense game (n = 3, C != 0) pins S_i's operand order
        spec = build_finance_spec(market) if game == "market" else dense_game(64)
        sol = bs.equilibrium_layer(spec)
        bundle = bs.sample_brownian(spec.grid, 200, 11)
        zeta = bs.simulate_tilde_varphi(sol.kernel.step, bundle)
        samples = reserve_samples(dual_tables(sol), zeta, bundle.dW)
        reference = reserve_reference(sol, zeta, bundle)
        assert samples.shape == reference.shape == (200, 2 * spec.dims.n)
        gap = np.max(np.abs(samples - reference)) / np.max(np.abs(reference))
        assert gap < 1e-12, gap


def test_peak_allocation_is_one_finance_chunks_working_set():
    # the finance twin of test_streaming's equilibrium guard: 10000 paths run as
    # 4 chunks, each holding zeta, its Brownian paths, f and the step product
    scn = load_scenario(SCENARIOS / "finance.json", steps=100)
    tracemalloc.start()
    try:
        bs.consumption_summary(scn.market, bs.MonteCarloConfig(10000, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sampling.chunk_bounds(10000, 100, 2)) == 4
    assert peak < WORKING_SET_CHUNKS * sampling.PATH_CHUNK_BYTES, peak / sampling.PATH_CHUNK_BYTES
