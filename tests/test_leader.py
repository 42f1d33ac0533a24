"""Leader pipeline: decoupled simulation, reconstruction, equilibrium controls."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.leader import equilibrium_chunk, leader_paths_csv, response_kernel
from bsde_stackelberg.sampling import coarsen, mean_stderr, sample_brownian
from bsde_stackelberg.scenario import make_constant_spec
from bsde_stackelberg.stacked import _offset_diffusion, residual_rms, residual_samples
from conftest import (
    affine_pathwise,
    assert_csv_blocks,
    csv_text,
    cost_samples,
    decoupling_inverses_reference,
    dense_game,
    equilibrium_arrays,
    leader_cost_samples,
    leader_pathwise_defects,
    path_arrays,
    running_values,
    u2_pathwise,
)

STUDY = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
_spec = importlib.util.spec_from_file_location("convergence_study", STUDY)
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)


def zero_spec(steps=32):
    """Everything-zero game: xi = 0, no coupling — all trajectories vanish."""
    return make_constant_spec(
        1.0, steps,
        A=0.0, B1=1.0, B2=1.0, C=0.0,
        Q1=0.0, R1=1.0, S1=0.0, G1=0.0,
        Q2=0.0, R2=1.0, S2=0.0, G2=0.0,
        a=0.0, b=0.0,
    )


def two_state_stochastic_spec(steps):
    """n = 2 game with non-symmetric A, C != 0 and a random terminal datum."""
    return make_constant_spec(
        1.0, steps,
        A=[[0.1, 1.5], [-1.5, 0.2]], B1=[[1.0], [0.3]], B2=[[0.2], [1.0]],
        C=[[0.3, 0.2], [-0.1, 0.25]],
        Q1=[[0.5, 0.1], [0.1, 0.4]], R1=1.0, S1=[[0.2, 0.05], [0.05, 0.1]], G1=0.5 * np.eye(2),
        Q2=[[0.3, 0.0], [0.0, 0.2]], R2=1.0, S2=0.1 * np.eye(2), G2=np.eye(2),
        a=[0.5, -0.3], b=[1.0, 0.5],
    )


def diffusion_consistency_gap(sys, pi1, pi2):
    """Max node-wise gap between the printed diffusion display and the simulated one.

    The printed display writes the forward-offset diffusion term by term;
    it agrees with the pathwise assembly the simulation uses whenever Pi1
    and Pi2 commute (e.g. vanishing C).  A nonzero value means the
    displayed coefficients do not satisfy the exact pathwise relation
    linking the forward diffusion to Z.
    """
    C1, D1t = sys.C1h.values, np.swapaxes(sys.D1h.values, 1, 2)
    Pi1, Pi2 = pi1.values, pi2.values
    inv_s, inv_12, inv_21 = decoupling_inverses_reference(sys, pi1, pi2)
    mix = (Pi2 - sys.S1h.values) @ inv_s
    mixer = mix @ Pi1
    display = (
        -(D1t @ inv_12 @ Pi1 + mixer @ D1t @ inv_21 @ Pi1
          - C1 @ inv_21 - mixer @ C1 @ inv_21),
        -(D1t @ inv_12 + mixer @ D1t @ inv_21
          + C1 @ inv_21 @ Pi2 + mixer @ C1 @ inv_21 @ Pi2),
    )
    simulated = _offset_diffusion(C1, sys.D1h.values, Pi1, Pi2, mix, inv_12)
    return max(float(np.max(np.abs(a - b))) for a, b in zip(display, simulated))


class TestAuxiliaryBackward:
    def test_zero_terminal_gives_zero_offsets(self):
        spec = zero_spec()
        sol = bs.equilibrium_layer(spec)
        ens = equilibrium_arrays(sol, sample_brownian(spec.grid, 4, 0))
        alpha, eta = bs.solve_tilde_phi(sol.system, sol.pi1)
        assert np.max(np.abs(alpha)) == 0.0
        assert np.max(np.abs(eta)) == 0.0
        for arr in (ens.X, ens.Y, ens.Z, ens.u2):
            assert np.max(np.abs(arr)) == 0.0
        assert leader_cost_samples(sol, ens).mean() == 0.0

    def test_deterministic_terminal_kills_martingale_loading(self, hand_solution):
        sol, _ = hand_solution
        _, eta = bs.solve_tilde_phi(sol.system, sol.pi1)
        assert np.max(np.abs(eta)) == 0.0

    def test_backward_value_matches_transition_propagation(self, hand_spec, hand_solution):
        # variation-of-constants: alpha(0) = transition(0 -> T)^-1 applied backward
        from bsde_stackelberg.odeint import transition_steps

        sol, _ = hand_solution
        sys, pi1 = sol.system, sol.pi1
        R2 = hand_spec.R2
        eye = np.eye(2)

        def kfun(t):
            i = np.rint(t / hand_spec.grid.dt).astype(int)
            A1, B1, B2 = sys.A1h(t), sys.B1h(t), sys.B2h(t)
            D1, C1, F1, S1 = sys.D1h(t), sys.C1h(t), sys.F1h(t), sys.S1h(t)
            Pi1 = pi1.values[i]
            R2inv = np.linalg.inv(R2(t))
            inv_s = np.linalg.inv(eye + Pi1 @ S1)
            return (
                A1 - Pi1 @ F1 + (Pi1 @ B1 - B2) @ R2inv @ np.swapaxes(B1, 1, 2)
                + (Pi1 @ D1 - np.swapaxes(C1, 1, 2)) @ inv_s @ Pi1 @ np.swapaxes(D1, 1, 2)
            )

        # alpha' = -K alpha, so alpha(T) = [transition of x' = -K x](0 -> T) alpha(0)
        steps = transition_steps(lambda t: -kfun(t), hand_spec.grid)
        acc = np.eye(2)
        for s in steps:
            acc = s @ acc
        alpha, _ = bs.solve_tilde_phi(sys, pi1)
        alpha_T, alpha_0 = alpha[-1, :, 0], alpha[0, :, 0]
        np.testing.assert_allclose(np.linalg.solve(acc, alpha_T), alpha_0, atol=1e-8)


class TestStructuralIdentities:
    """Each identity on the kernel's tables (sol.defects) and, as a reference,
    along the path arrays."""

    def test_terminal_identity(self, hand_solution, stochastic_solution):
        for sol, ens in (hand_solution, stochastic_solution):
            assert sol.defects["terminal"] < 1e-12
            assert leader_pathwise_defects(sol, ens)["terminal"] < 1e-12

    def test_initial_coupling(self, hand_solution, stochastic_solution):
        for sol, ens in (hand_solution, stochastic_solution):
            assert sol.defects["initial_coupling"] < 1e-12
            assert leader_pathwise_defects(sol, ens)["initial_coupling"] < 1e-12

    def test_forward_backward_decoupling(self, hand_solution, stochastic_solution):
        for sol, ens in (hand_solution, stochastic_solution):
            assert sol.defects["decoupling"] < 1e-12
            assert leader_pathwise_defects(sol, ens)["decoupling"] < 1e-12

    def test_deterministic_terminal_stderr_zero_and_seed_free(self, hand_spec):
        layer = bs.equilibrium_layer(hand_spec)
        a, b = (
            equilibrium_arrays(layer, sample_brownian(hand_spec.grid, 2, seed))
            for seed in (0, 123)
        )
        (J2_a, stderr_a), (J2_b, _) = (mean_stderr(leader_cost_samples(layer, e)) for e in (a, b))
        assert stderr_a == 0.0
        assert J2_a == pytest.approx(J2_b, abs=1e-15)
        assert np.array_equal(a.u2, b.u2)


def leader_slope(sol, ens, response):
    """The mean of the leader's stationarity cross term on the paths of ens, as a
    path chunk reads it (equilibrium_chunk)."""
    return equilibrium_chunk(sol, response)(ens.bundle)["slope"].mean()


class TestEquilibriumControls:
    def test_follower_control_block_forms_agree(self, stochastic_solution):
        assert leader_pathwise_defects(*stochastic_solution)["u1_forms"] < 1e-10

    def test_algebraic_stationarity_both_levels(self, stochastic_spec, stochastic_solution):
        sol, ens = stochastic_solution
        assert sol.defects["stationarity"] < 1e-10
        assert sol.defects["follower"] < 1e-10
        assert leader_pathwise_defects(sol, ens)["stationarity"] < 1e-10
        # follower optimality along the equilibrium path
        worst = 0.0
        for i, t in enumerate(stochastic_spec.grid.nodes):
            x = ens.ybar[i] @ sol.p2.values[i].T + ens.phibar[i]
            r = x @ stochastic_spec.B1(t) + ens.u1[i] @ stochastic_spec.R1(t).T
            worst = max(worst, float(np.max(np.abs(r))))
        assert worst < 1e-10

    def test_variational_slope_zero_on_hand_scenario(self, hand_spec, hand_solution):
        sol, ens = hand_solution
        v = bs.AffineControl.constant(hand_spec.grid, [1.0])
        response = response_kernel(hand_spec, sol.p1, sol.p2, v)
        assert abs(leader_slope(sol, ens, response)) < 1e-7

    def test_perturbed_cost_grows_at_optimum(self, hand_spec, hand_solution):
        sol, ens = hand_solution
        v = bs.AffineControl.constant(hand_spec.grid, [1.0])
        response = response_kernel(hand_spec, sol.p1, sol.p2, v)
        slope = leader_slope(sol, ens, response)
        base = leader_cost_samples(sol, ens).mean()
        bundle = ens.bundle
        delta = path_arrays(response, bundle)
        du2 = u2_pathwise(response.sys.forcing_control, running_values(bundle.dW))
        curvature = cost_samples(
            hand_spec.grid, delta.Y, du2, delta.Z,
            hand_spec.Q2, hand_spec.R2, hand_spec.S2, hand_spec.G2,
        ).mean()
        for eps in (0.1, -0.1):
            perturbed = base + eps * slope + eps**2 * curvature
            assert perturbed > base


class TestNodeKernelsMatchLoops:
    """The stacked node kernels against per-node loops of the same formulas,
    on an n = 2 game whose non-symmetric matrices expose a transposition."""

    # a leader control affine in W exercises the known control's W row
    @pytest.mark.parametrize("u_lin", [0.0, 0.7], ids=["constant", "affine"])
    def test_follower_reconstruction_and_feedback(self, u_lin):
        spec = two_state_stochastic_spec(steps=16)
        p1 = bs.solve_p1(spec)
        p2 = bs.solve_p2(spec, p1)
        path = bs.CoefficientPath.constant
        u2 = bs.AffineControl(path(spec.grid, [[0.3]]), path(spec.grid, [[u_lin]]))
        bundle = sample_brownian(spec.grid, 5, 3)
        ens = path_arrays(bs.follower_kernel(spec, p1, p2, u2), bundle)
        u2_paths = u2_pathwise(u2, running_values(bundle.dW))
        alpha, eta = bs.solve_tilde_phi(bs.follower_system(spec, u2), p1)
        phi = affine_pathwise(alpha, eta, running_values(bundle.dW))
        eta = eta[:, :, 0]
        inv, eye = np.linalg.inv, np.eye(spec.dims.n)
        for i in range(spec.grid.steps + 1):
            P1, P2, C = p1.values[i], p2.values[i], spec.C.values[i]
            S1, B1, vp = spec.S1.values[i], spec.B1.values[i], ens.zeta[i, :, : spec.dims.n]
            x = (vp - phi[i] @ P2.T) @ inv(eye + P2 @ P1).T
            y = -(vp @ P1.T + phi[i]) @ inv(eye + P1 @ P2).T
            z = -(x @ C @ P1.T + eta[i]) @ inv(eye + P1 @ S1).T
            u1 = -(y @ P2.T + vp) @ B1 @ inv(spec.R1.values[i]).T
            for got, want in ((ens.X[i], x), (ens.Y[i], y), (ens.Z[i], z), (ens.u1[i], u1)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
            if i == spec.grid.steps:
                break
            # one Euler step of varphi, whose diffusion is the exact pathwise
            # relation [I + (P2 - S1)(I + P1 S1)^-1 P1] C^T (I + P2 P1)^-1
            inv1 = inv(eye + P1 @ S1)
            gain = B1 @ inv(spec.R1.values[i]) @ B1.T
            drift_mat = spec.A.values[i].T - P2 @ gain - P2 @ C @ inv1 @ P1 @ C.T
            drift = vp @ drift_mat.T + u2_paths[i] @ (P2 @ spec.B2.values[i]).T
            drift -= eta[i] @ (P2 @ C @ inv1).T
            cfac = (eye + (P2 - S1) @ inv1 @ P1) @ C.T
            noise = (vp - phi[i] @ P2.T) @ (cfac @ inv(eye + P2 @ P1)).T
            noise += eta[i] @ ((P2 - S1) @ inv1).T
            step = vp + drift * spec.grid.dt + noise * bundle.dW[i, :, None]
            np.testing.assert_allclose(
                ens.zeta[i + 1, :, : spec.dims.n], step, rtol=1e-10, atol=1e-12
            )

    def test_leader_reconstruction_and_feedback(self):
        spec = two_state_stochastic_spec(steps=16)
        bundle = sample_brownian(spec.grid, 5, 3)
        sol = bs.equilibrium_layer(spec)
        sys, ens = sol.system, equilibrium_arrays(sol, bundle)
        alpha, eta = bs.solve_tilde_phi(sys, sol.pi1)
        phi = affine_pathwise(alpha, eta, running_values(bundle.dW))
        eta = eta[:, :, 0]
        inv, eye = np.linalg.inv, np.eye(2 * spec.dims.n)
        for i in range(spec.grid.steps + 1):
            Pi1, Pi2, tv = sol.pi1.values[i], sol.pi2.values[i], ens.zeta[i, :, : sys.dim]
            B1, B2 = sys.B1h.values[i], sys.B2h.values[i]
            X = (tv - phi[i] @ Pi2.T) @ inv(eye + Pi2 @ Pi1).T
            Y = -(tv @ Pi1.T + phi[i]) @ inv(eye + Pi1 @ Pi2).T
            Z = -(
                X @ (Pi1 @ sys.C1h.values[i]).T + Y @ sys.D1h.values[i] @ Pi1.T + eta[i]
            ) @ inv(eye + Pi1 @ sys.S1h.values[i]).T
            u2 = -(Y @ (B1 + Pi2 @ B2) + tv @ B2) @ inv(spec.R2.values[i]).T
            for got, want in ((ens.X[i], X), (ens.Y[i], Y), (ens.Z[i], Z), (ens.u2[i], u2)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestForwardOffsetDiffusion:
    def test_modes_identical_when_diffusion_inactive(self, hand_spec, hand_solution):
        # C = 0: both assemblies vanish identically
        sol, _ = hand_solution
        gap = diffusion_consistency_gap(sol.system, sol.pi1, sol.pi2)
        assert gap == 0.0

    def test_modes_differ_on_noncommuting_scenario(self, stochastic_solution):
        sol, _ = stochastic_solution
        gap = diffusion_consistency_gap(sol.system, sol.pi1, sol.pi2)
        assert gap > 1e-6

    def test_residual_halves_with_dt_consistent_mode(self):
        # n = 1, and n = 2 with a non-symmetric A1-hat, whose transpose in the
        # forward offset's drift only a multi-state game can see
        for scenario in (bs.stochastic_scenario, two_state_stochastic_spec):
            fine_spec = scenario(steps=512)
            coarse_spec = scenario(steps=256)
            fine = sample_brownian(fine_spec.grid, 64, 11)
            rms = []
            for spec, bundle in ((fine_spec, fine), (coarse_spec, coarsen(fine, 2))):
                ens = equilibrium_arrays(bs.equilibrium_layer(spec), bundle)
                rms.append(residual_rms(residual_samples(ens.kernel, ens.zeta, bundle.dW)[0]))
            rms_f, rms_c = rms
            assert rms_c / rms_f == pytest.approx(2.0, rel=0.25), scenario.__name__


class TestFollowerAdjoint:
    def test_adjoint_gap_halves_with_dt(self):
        # the follower's adjoint x, simulated by Euler from the equilibrium's (ybar, zbar),
        # against P2 ybar + phibar at T (convergence_study.adjoint_gap): the gap halves
        # with the time step only if the stacked system reproduces the follower's
        # closed loop.  Both grids run on common paths
        def gap(game, N, bundle):
            return study.adjoint_gap(bs.equilibrium_layer(game(N)), bundle)

        for game, N in ((two_state_stochastic_spec, 400), (study.finance_game, 100)):
            fine = sample_brownian(bs.TimeGrid(1.0, 2 * N), 256, 5)
            coarse_gap = gap(game, N, coarsen(fine, 2))
            assert coarse_gap / gap(game, 2 * N, fine) == pytest.approx(
                2.0, abs=0.25
            ), game.__name__


class TestCsv:
    def test_header_and_cap(self, stochastic_solution):
        sol, ens = stochastic_solution
        text = csv_text(leader_paths_csv, sol, ens.zeta[:, :3])
        lines = text.strip().split("\n")
        assert lines[0].startswith("path,t,phibar_1")
        n_nodes = ens.grid.steps + 1
        assert len(lines) == 1 + 3 * n_nodes

    def test_columns_are_the_processes_in_header_order(self):
        # n = 3, k = 2: blocks of two widths, and u1, u2 of the same width
        sol = bs.equilibrium_layer(dense_game())
        ens = equilibrium_arrays(sol, sample_brownian(sol.spec.grid, 5, 2))
        n = sol.spec.dims.n
        blocks = [
            ("phibar", ens.X[:, :, :n]), ("q", ens.X[:, :, n:]),
            ("p", ens.Y[:, :, :n]), ("ybar", ens.Y[:, :, n:]),
            ("k", ens.Z[:, :, :n]), ("zbar", ens.Z[:, :, n:]),
            ("u1", ens.u1), ("u2", ens.u2),
        ]
        assert_csv_blocks(csv_text(leader_paths_csv, sol, ens.zeta[:, :4]), blocks, paths=4)
