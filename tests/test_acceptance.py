"""End-to-end acceptance checks.

Each test covers one headline guarantee of the solver at its stated
tolerance and prints a single PASS/FAIL line with the measured figure,
bypassing output capture so the verdicts appear in any run log.
"""

import time

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.finance import MarketParams
from bsde_stackelberg.follower import follower_chunk
from bsde_stackelberg.leader import equilibrium_chunk, response_kernel
from bsde_stackelberg.model import AffineControl, CoefficientPath
from bsde_stackelberg.oracle import (
    build_discrete_problem,
    control_rms_gap,
    deterministic_follower_oracle,
    deterministic_leader_oracle,
)
from bsde_stackelberg.sampling import coarsen, sample_brownian, stream_paths
from bsde_stackelberg.scenario import (
    hand_solvable_scenario,
    stochastic_scenario,
)
from bsde_stackelberg.stacked import residual_rms, residual_samples, structural_defects

from conftest import (
    equilibrium_arrays,
    follower_cost_samples,
    follower_pathwise_defects,
    leader_cost_samples,
    leader_pathwise_defects,
    p1_closed_form,
    path_arrays,
    random_deterministic_scenario,
    solvability_scan,
    specialized_stacked_matrices,
)


@pytest.fixture()
def report(capsys):
    def _report(label, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
        assert ok, f"{label}: {detail}"

    return _report


def directions(grid, include_noise):
    """Three perturbation directions: constant, ramp, and (optionally)
    a noise-proportional loading; the ramp replaces the loading on
    deterministic scenarios so every slope is noise-free."""
    ramp = AffineControl(
        CoefficientPath(grid, grid.nodes[:, None, None].copy()),
        CoefficientPath.constant(grid, np.zeros((1, 1))),
    )
    out = [AffineControl.constant(grid, [1.0]), ramp]
    if include_noise:
        out.append(
            AffineControl(
                CoefficientPath.constant(grid, np.zeros((1, 1))),
                CoefficientPath.constant(grid, 0.25 * np.ones((1, 1))),
            )
        )
    else:
        down = AffineControl(
            CoefficientPath(grid, (1.0 - grid.nodes)[:, None, None].copy()),
            CoefficientPath.constant(grid, np.zeros((1, 1))),
        )
        out.append(down)
    return out


class TestAcceptance:
    def test_riccati_closed_forms_match_rk4(self, hand_spec, hand_riccati, report):
        t0 = time.perf_counter()
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        pi1 = bs.solve_pi1(sys)
        pi2 = bs.solve_pi2(sys, pi1)
        cf1, det1 = bs.pi1_closed_form(sys)
        cf2, det2 = bs.pi2_closed_form(sys)
        gap = max(
            float(np.max(np.abs(cf1.values - pi1.values))),
            float(np.max(np.abs(cf2.values - pi2.values))),
        )
        elapsed = time.perf_counter() - t0
        ok = gap <= 1e-6 and det1 > 0.0 and det2 > 0.0 and elapsed < 5.0
        report(
            "leader Riccati closed forms vs RK4 (N=1000)",
            ok,
            f"max node gap {gap:.2e} (tol 1e-6), {elapsed:.2f}s",
        )

    def test_hand_integrable_benchmark_reproduced(
        self, hand_spec, hand_riccati, hand_follower, report
    ):
        # hand integration: P1' = -(1 - P1^2/1), P1(1) = 0 gives P1 = 1 - t
        # (here Q1 = 0 so P1' = P1^2 - ... collapses); P2' with P2(0) = 1
        # yields P2 = 1/(1+t); with u2 = 0 the follower state is x = 1/2,
        # y = (1+t)/2, z = 0, u1 = -1/2 and J1 = 0.5 int u1^2 + 0.5 y(0)^2
        # = 1/8 + 1/8 = 1/4.
        p1, p2 = hand_riccati
        nodes = hand_spec.grid.nodes
        ens = hand_follower
        errs = {
            "P1": np.max(np.abs(p1.values[:, 0, 0] - (1.0 - nodes))),
            "P2": np.max(np.abs(p2.values[:, 0, 0] - 1.0 / (1.0 + nodes))),
            "x": np.max(np.abs(ens.X - 0.5)),
            "y": np.max(np.abs(ens.Y - (1.0 + nodes)[:, None, None] / 2.0)),
            "z": np.max(np.abs(ens.Z)),
            "u1": np.max(np.abs(ens.u1 + 0.5)),
            "J1": abs(follower_cost_samples(hand_spec, ens).mean() - 0.25),
        }
        worst = max(errs.values())
        report(
            "hand-integrable benchmark (N=1000)",
            worst <= 1e-6,
            "worst error "
            + f"{worst:.2e} (tol 1e-6) over " + ", ".join(errs),
        )

    def test_follower_matches_brute_force_oracle(self, report):
        rng = np.random.default_rng(0)
        specs = [hand_solvable_scenario(steps=256)] + [
            random_deterministic_scenario(rng, steps=256) for _ in range(5)
        ]
        worst = 0.0
        for spec in specs:
            prob = build_discrete_problem(spec)
            res = deterministic_follower_oracle(prob, np.zeros((256, 1)))
            p1 = bs.solve_p1(spec)
            p2 = bs.solve_p2(spec, p1)
            kernel = bs.follower_kernel(spec, p1, p2, AffineControl.zero(spec.grid, 1))
            ens = path_arrays(kernel, sample_brownian(spec.grid, 2, 0))
            J1 = follower_cost_samples(spec, ens).mean()
            rel = abs(J1 - res.cost) / max(abs(res.cost), 1e-12)
            worst = max(worst, rel)
        report(
            "follower cost vs exact QP oracle (6 scenarios, N=256)",
            worst <= 1e-3,
            f"worst relative gap {worst:.2e} (tol 1e-3)",
        )

    def test_leader_matches_nested_oracle(self, report):
        rng = np.random.default_rng(1)
        specs = [hand_solvable_scenario(steps=256)] + [
            random_deterministic_scenario(rng, steps=256) for _ in range(5)
        ]
        worst = 0.0
        for spec in specs:
            res = deterministic_leader_oracle(build_discrete_problem(spec))
            sol = bs.equilibrium_layer(spec)
            ens = equilibrium_arrays(sol, sample_brownian(spec.grid, 2, 0))
            rel = abs(leader_cost_samples(sol, ens).mean() - res.cost) / max(abs(res.cost), 1e-12)
            worst = max(worst, rel)
        gaps = []
        for N in (64, 256, 1024):
            spec = hand_solvable_scenario(steps=N)
            res = deterministic_leader_oracle(build_discrete_problem(spec))
            ens = equilibrium_arrays(bs.equilibrium_layer(spec), sample_brownian(spec.grid, 2, 0))
            gaps.append(control_rms_gap(res.control, ens.u2[:, 0]))
        decreasing = gaps[0] > gaps[1] > gaps[2]
        ok = worst <= 1e-2 and decreasing
        report(
            "leader cost vs nested QP oracle (6 scenarios, N=256)",
            ok,
            f"worst relative gap {worst:.2e} (tol 1e-2), control RMS gaps "
            + " > ".join(f"{g:.2e}" for g in gaps),
        )

    def test_structural_identities_pathwise(
        self, hand_spec, stochastic_spec, hand_follower, hand_solution,
        stochastic_solution, report,
    ):
        p1 = bs.solve_p1(stochastic_spec)
        p2 = bs.solve_p2(stochastic_spec, p1)
        kernel = bs.follower_kernel(
            stochastic_spec, p1, p2, AffineControl.constant(stochastic_spec.grid, [0.2])
        )
        sto_fol = path_arrays(kernel, sample_brownian(stochastic_spec.grid, 128, 1))
        worst = 0.0
        for spec, ens in ((hand_spec, hand_follower), (stochastic_spec, sto_fol)):
            xi = spec.xi.a[None] + ens.bundle.W[-1, :, None] * spec.xi.b[:, 0][None]
            worst = max(worst, float(np.max(np.abs(ens.Y[-1] - xi))))
            worst = max(worst, float(np.max(np.abs(ens.X[0] - ens.Y[0] @ spec.G1.T))))
            worst = max(worst, follower_pathwise_defects(spec, ens)["adjoint_form"])
        for sol, ens in (hand_solution, stochastic_solution):
            worst = max(worst, *leader_pathwise_defects(sol, ens).values())
        report(
            "pathwise structural identities (terminal, coupling, decoupling, both controls)",
            worst <= 1e-8,
            f"worst defect {worst:.2e} (tol 1e-8)",
        )

    def test_stationarity_both_levels(self, hand_spec, report):
        # the exact-diffusion assembly keeps the variational slopes
        # unbiased; the slope estimator's Monte Carlo noise at 20000
        # paths sits well inside the 1e-3 budget.  The paths stream once,
        # and each chunk runs both levels' checks for every direction
        rows = []
        for spec, stochastic in ((hand_spec, False), (stochastic_scenario(256), True)):
            mc = bs.MonteCarloConfig(20000, 4) if stochastic else bs.MonteCarloConfig(4, 0)
            dirs = directions(spec.grid, include_noise=stochastic)
            sol = bs.equilibrium_layer(spec)
            follower = bs.follower_kernel(spec, sol.p1, sol.p2, AffineControl.zero(spec.grid, 1))
            slopes = {("J1", j): follower_chunk(spec, follower, v) for j, v in enumerate(dirs)}
            for j, v in enumerate(dirs):
                response = response_kernel(spec, sol.p1, sol.p2, v)
                slopes["J2", j] = equilibrium_chunk(sol, response)

            # the algebraic conditions are tables on zeta, read once per kernel
            algebraic = {
                "J1": structural_defects(follower)["stationarity"],
                "J2": sol.defects["stationarity"],
            }

            def chunk(bundle):
                J1 = follower_cost_samples(spec, path_arrays(follower, bundle))
                out = {"J1": J1, "J2": leader_cost_samples(sol, equilibrium_arrays(sol, bundle))}
                return out | {key: slope(bundle)["slope"] for key, slope in slopes.items()}

            merged = stream_paths(spec.grid, mc, sol.system.dim, chunk)
            for j in range(len(dirs)):
                for level in ("J1", "J2"):
                    tol = 1e-3 * max(1.0, abs(merged[level].mean()))
                    rows.append((algebraic[level], merged[(level, j)].mean(), tol))
        worst_alg = max(r[0] for r in rows)
        worst_rel = max(abs(r[1]) / r[2] for r in rows)
        ok = worst_alg <= 1e-8 and worst_rel <= 1.0
        report(
            "stationarity at both levels (3 directions x 2 scenarios)",
            ok,
            f"worst algebraic residual {worst_alg:.2e} (tol 1e-8), "
            f"worst slope at {worst_rel:.2f}x its budget",
        )

    def test_convergence_orders(self, report):
        # RK4 order on a Riccati solve with an exact tanh solution
        errs = []
        for N in (8, 16, 32):
            spec = bs.make_constant_spec(
                1.0, N,
                A=0.0, B1=1.0, B2=1.0, C=0.0,
                Q1=1.0, R1=1.0, S1=0.0, G1=1.0,
                Q2=0.0, R2=1.0, S2=0.0, G2=1.0,
                a=1.0, b=0.0,
            )
            p1 = bs.solve_p1(spec)
            errs.append(
                np.max(np.abs(p1.values[:, 0, 0] - np.tanh(1.0 - spec.grid.nodes)))
            )
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        min_order = float(orders.min())

        # accumulated closed-loop residual halves with the time step
        fine_spec = stochastic_scenario(steps=512)
        coarse_spec = stochastic_scenario(steps=256)
        fine = sample_brownian(fine_spec.grid, 128, 4)
        rms = []
        for spec, bundle in ((fine_spec, fine), (coarse_spec, coarsen(fine, 2))):
            ens = equilibrium_arrays(bs.equilibrium_layer(spec), bundle)
            rms.append(residual_rms(residual_samples(ens.kernel, ens.zeta, bundle.dW)[0]))
        ratio = rms[1] / rms[0]
        ok = min_order >= 3.5 and abs(ratio - 2.0) <= 0.4
        report(
            "convergence orders (RK4 and pathwise residual)",
            ok,
            f"min RK4 order {min_order:.2f} (need 3.5), residual halving ratio "
            f"{ratio:.2f} (need 2.0 +/- 0.4)",
        )

    def test_finance_closed_form_and_dual_reserve(self, report):
        bench = MarketParams.constant(
            1.0, 100, r=0.0, mu=0.25, sigma=0.25, R1=1.0, R2=1.5,
            G1=1.0, G2=0.8, a=1.0, b=0.0,
        )
        p1_gap = abs(p1_closed_form(bench)[0] - (np.e - 1.0))

        market = MarketParams.constant(
            1.0, 100, r=0.03, mu=0.08, sigma=0.25, R1=1.0, R2=1.5,
            G1=1.0, G2=0.8, a=1.0, b=0.3,
        )
        spec = bs.build_finance_spec(market)
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        sys = bs.build_stacked_system(spec, p1, p2)
        mats = specialized_stacked_matrices(market, p1, p2)
        mat_gap = max(
            float(np.max(np.abs(getattr(sys, name).values - vals)))
            for name, vals in mats.items()
        )

        # streamed in path chunks: memory stays flat in the path count
        t0 = time.perf_counter()
        summary, _ = bs.consumption_summary(market, bs.MonteCarloConfig(100000, 11))
        elapsed = time.perf_counter() - t0
        dual = summary["dual_check"]
        ratios = np.abs(dual["gap"]) / dual["stderr"]
        ok = (
            p1_gap <= 1e-8
            and mat_gap <= 1e-12
            and np.all(ratios < 3.0)
            and elapsed < 60.0
        )
        report(
            "consumption market: closed form, specialization, dual reserve",
            ok,
            f"P1(0) error {p1_gap:.1e} (tol 1e-8), matrix gap {mat_gap:.1e} "
            f"(tol 1e-12), reserve gap {np.max(ratios):.2f} sigma (need < 3), "
            f"{elapsed:.1f}s",
        )

    def test_solvability_gates(self, hand_spec, hand_riccati, report):
        oscillator = np.array([[0.0, 1.0], [-25.0, 0.0]])
        rejected = solvability_scan(oscillator, bs.TimeGrid(1.0, 200)).min() <= 0.0
        p1, p2 = hand_riccati
        sys = bs.build_stacked_system(hand_spec, p1, p2)
        _, det1 = bs.pi1_closed_form(sys)
        _, det2 = bs.pi2_closed_form(sys)
        try:
            bundle = sample_brownian(hand_spec.grid, 2, 0)
            equilibrium_arrays(bs.equilibrium_layer(hand_spec), bundle)
            completed = True
        except bs.DivergenceError:
            completed = False
        ok = rejected and det1 > 0.0 and det2 > 0.0 and completed
        report(
            "solvability gates (oscillator rejected, benchmark accepted)",
            ok,
            f"oscillator rejected={rejected}, benchmark determinants "
            f">= {min(det1, det2):.3f}, "
            f"solve completed={completed}",
        )
