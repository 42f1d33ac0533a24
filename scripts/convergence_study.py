#!/usr/bin/env python3
"""Convergence study: Riccati RK4 order and pathwise residual order.

Measures (a) the observed RK4 orders of the backward P1 solve against an
exact tanh solution and of the forward P2 solve against 1/(1 + t), and
(b) how the accumulated closed-loop residuals of the leader's equilibrium
simulation and of the follower's response to a fixed leader control
scale when the time step halves, using the same Brownian paths on every
grid.  The residuals are reported on the scalar stochastic scenario and
on an n = 3, k = 2 game with C != 0, where P1 and P2 - S1 do not
commute; a consistent scheme halves both at every level.  It also gives
(c) the Richardson order of alpha(0), the value at t = 0 of an affine
BSDE solved by RK4 step maps, over N, 2N and 4N, on the hand-solvable
and n = 3 games: for the leader's auxiliary BSDE, and for the follower's
perturbation BSDE with a smooth forcing read exactly at the half steps.
The second shows the step maps' order 4.  The first is about 2, because
the RK4 midpoint stages read Pi1 and the hat matrices (built from P1 and
P2) as linear interpolants of their node values; (d) the Richardson
orders of Pi1(0) and Pi2(T) on the n = 3 game show the same order 2.
(e) The pathwise adjoint check simulates the follower's adjoint x by
Euler from the equilibrium's (ybar, zbar) and compares it at T with
P2 ybar + phibar, which the stacked system carries; the RMS gap of a
stacked system that reproduces the follower's closed loop halves with
the time step.  (f) The QP oracle's relative gaps, as `verify` reports
them, on an n = k = 2 game with C = 0 for N = 512 to 4096: the banded
KKT oracles take milliseconds there, and both gaps fall by 4 at every
doubling, so the pipeline's cost is within O(dt^2) of the discrete optimum.

Example:
    python3 scripts/convergence_study.py --paths 128
"""

import argparse

import numpy as np

import bsde_stackelberg as bs
from bsde_stackelberg.cli import oracle_payload
from bsde_stackelberg.sampling import coarsen, sample_brownian
from bsde_stackelberg.scenario import make_constant_spec
from bsde_stackelberg.stacked import (
    residual_rms,
    residual_samples,
    simulate_tilde_varphi,
    solve_affine_bsde,
    solve_tilde_phi,
)

MARKET = dict(r=0.03, mu=0.08, sigma=0.25, R1=1.0, R2=1.5, G1=1.0, G2=0.8, a=1.0, b=0.3)


def riccati_orders(step_counts):
    """Max errors of P1 against tanh(T - t) (tanh game) and of P2 against
    1/(1 + t) (hand-solvable game, where P1 = 1 - t is linear)."""
    rows = []
    for N in step_counts:
        spec = bs.make_constant_spec(
            1.0, N,
            A=0.0, B1=1.0, B2=1.0, C=0.0,
            Q1=1.0, R1=1.0, S1=0.0, G1=1.0,
            Q2=0.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        p1 = bs.solve_p1(spec)
        err1 = float(np.max(np.abs(p1.values[:, 0, 0] - np.tanh(1.0 - spec.grid.nodes))))
        hand = bs.hand_solvable_scenario(N)
        p2 = bs.solve_p2(hand, bs.solve_p1(hand))
        err2 = float(np.max(np.abs(p2.values[:, 0, 0] - 1.0 / (1.0 + hand.grid.nodes))))
        rows.append((N, err1, err2))
    return rows


def three_state_game(steps):
    """n = 3, k = 2, non-symmetric A and C != 0, stochastic terminal datum."""
    return make_constant_spec(
        1.0, steps,
        A=[[0.1, 0.8, 0.0], [-0.6, 0.2, 0.3], [0.1, -0.4, -0.1]],
        B1=[[1.0, 0.0], [0.3, 0.5], [0.0, 0.8]],
        B2=[[0.2, 0.1], [1.0, 0.0], [0.0, 0.6]],
        C=[[0.9, 0.3, 0.0], [-0.3, 0.6, 0.3], [0.0, 0.15, 0.75]],
        Q1=[[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]],
        R1=[[1.0, 0.2], [0.2, 0.8]],
        S1=[[0.2, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.15]],
        G1=[[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]],
        Q2=[[0.3, 0.0, 0.1], [0.0, 0.2, 0.0], [0.1, 0.0, 0.4]],
        R2=[[1.2, -0.1], [-0.1, 0.9]],
        S2=0.1 * np.eye(3),
        G2=[[1.0, 0.2, 0.0], [0.2, 0.7, 0.1], [0.0, 0.1, 0.5]],
        a=[0.5, -0.3, 0.2], b=[1.0, 0.5, -0.4],
    )


def c_zero_game(steps):
    """n = k = 2, C = 0, S1 != 0, non-symmetric A and a deterministic terminal
    datum (tests/conftest.py::c_zero_game): the QP oracles apply."""
    return make_constant_spec(
        1.0, steps,
        A=[[0.2, 0.7], [-0.5, -0.1]],
        B1=[[1.0, 0.2], [0.3, 0.8]],
        B2=[[0.4, 0.0], [0.1, 0.9]],
        C=np.zeros((2, 2)),
        Q1=[[0.5, 0.1], [0.1, 0.3]],
        R1=[[1.0, 0.2], [0.2, 0.8]],
        S1=[[0.2, 0.05], [0.05, 0.1]],
        G1=[[0.5, 0.1], [0.1, 0.4]],
        Q2=[[0.3, 0.1], [0.1, 0.4]],
        R2=[[1.2, -0.1], [-0.1, 0.9]],
        S2=0.1 * np.eye(2),
        G2=[[1.0, 0.2], [0.2, 0.7]],
        a=[0.5, -0.3], b=[0.0, 0.0],
    )


def oracle_gaps(steps, seed):
    """(follower, leader) rel_gap of verify's oracle report on c_zero_game, u2 = 0."""
    spec = c_zero_game(steps)
    payload = oracle_payload(spec, bs.AffineControl.zero(spec.grid, spec.dims.k), seed)
    return payload["follower"]["rel_gap"], payload["leader"]["rel_gap"]


def offset_alpha0(spec):
    """alpha(0) of the leader's auxiliary BSDE, and of the follower's perturbation
    BSDE -d(dy) = [A dy + C dz + B1 v] dt - dz dW with v_j = sin(2t + j) + cos(t + j) W
    read at the half steps, for zero terminal values."""
    p1 = bs.solve_p1(spec)
    sys = bs.build_stacked_system(spec, p1, bs.solve_p2(spec, p1))
    leader = solve_tilde_phi(sys, bs.solve_pi1(sys))[0][0, :, 0]
    t = spec.grid.half_times[:, None, None] + np.arange(spec.dims.k)[None, :, None]
    zero, B1 = np.zeros(spec.dims.n), spec.B1.half
    alpha, _ = solve_affine_bsde(
        spec.A.half, spec.C.half, B1 @ np.sin(2.0 * t), B1 @ np.cos(t), zero, zero, spec.grid
    )
    return leader, alpha[0, :, 0]


def leader_riccati_ends(spec):
    """Pi1(0) and Pi2(T) of the leader's stacked system."""
    _, _, _, pi1, pi2 = bs.riccati_chain(spec)
    return pi1.values[0], pi2.values[-1]


def finance_market(steps):
    """The consumption market of scenarios/finance.json on N steps."""
    return bs.MarketParams.constant(1.0, steps, **MARKET)


def finance_game(steps):
    return bs.build_finance_spec(finance_market(steps))


def adjoint_gap(sol, bundle):
    """RMS over paths, at T, of x - (P2 ybar + phibar), where x is the follower's
    adjoint dx = (A^T x + Q1 ybar) dt + (C^T x + S1 zbar) dW, x(0) = G1 ybar(0),
    simulated by Euler from the equilibrium's (ybar, zbar) on the bundle's paths.
    Each of ybar, zbar and phibar is the leader's zeta times its kernel's table."""
    spec, kernel, n = sol.spec, sol.kernel, sol.spec.dims.n
    A, C, Q1, S1 = (getattr(spec, name).values for name in ("A", "C", "Q1", "S1"))
    zeta = simulate_tilde_varphi(kernel.step, bundle)
    ybar, zbar = zeta @ kernel.read_Y[:, :, n:], zeta @ kernel.read_Z[:, :, n:]
    dW, dt = bundle.dW, spec.grid.dt
    x = ybar[0] @ spec.G1.T
    for i in range(spec.grid.steps):
        drift = x @ A[i] + ybar[i] @ Q1[i].T
        x = x + drift * dt + (x @ C[i] + zbar[i] @ S1[i].T) * dW[i, :, None]
    gap = x - ybar[-1] @ sol.p2.values[-1].T - zeta[-1] @ kernel.read_X[-1, :, :n]
    return float(np.sqrt(np.mean(np.sum(gap**2, axis=1))))


def adjoint_gaps(game, step_counts, paths, seed):
    """adjoint_gap at each N, on the finest grid's paths coarsened."""
    finest = max(step_counts)
    fine = sample_brownian(bs.TimeGrid(1.0, finest), paths, seed)
    return [
        adjoint_gap(bs.equilibrium_layer(game(N)), coarsen(fine, finest // N))
        for N in step_counts
    ]


def richardson_order(coarse, mid, fine):
    """log2 of the ratio of successive max-norm differences over N, 2N and 4N."""
    return float(np.log2(np.max(np.abs(coarse - mid)) / np.max(np.abs(mid - fine))))


def closed_loop_rms(spec, bundle):
    """(leader, follower) RMS closed-loop residuals; the follower responds to u2 = 0.2.
    Each is read off the kernel's augmented state by its residual table."""
    sol = bs.equilibrium_layer(spec)
    u2 = bs.AffineControl.constant(spec.grid, 0.2 * np.ones(spec.dims.k))
    kernels = (sol.kernel, bs.follower_kernel(spec, sol.p1, sol.p2, u2))
    return tuple(
        residual_rms(residual_samples(k, simulate_tilde_varphi(k.step, bundle), bundle.dW)[0])
        for k in kernels
    )


def residual_ratios(game, step_counts, paths, seed):
    finest = max(step_counts)
    fine = sample_brownian(bs.TimeGrid(1.0, finest), paths, seed)
    rows = []
    for N in sorted(step_counts):
        bundle = coarsen(fine, finest // N) if N != finest else fine
        rows.append((N, *closed_loop_rms(game(steps=N), bundle)))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("Riccati solves vs exact solutions (P1 = tanh(1 - t), P2 = 1/(1 + t))")
    print(f"{'N':>6} {'P1 error':>12} {'order':>7} {'P2 error':>12} {'order':>7}")
    prev = None
    for N, *errs in riccati_orders((8, 16, 32, 64, 128)):
        cells = []
        for j, err in enumerate(errs):
            order = f"{np.log2(prev[j] / err):7.2f}" if prev else " " * 7
            cells.append(f"{err:12.3e} {order}")
        print(f"{N:>6} " + " ".join(cells))
        prev = errs

    print()
    print("Richardson order of alpha(0) over N, 2N and 4N (RK4 step maps)")
    print(f"{'game':>14} {'N':>6} {'leader aux.':>12} {'perturbation':>13}")
    for name, game in (("hand-solvable", bs.hand_solvable_scenario), ("n = 3", three_state_game)):
        alphas = [offset_alpha0(game(N)) for N in (16, 32, 64, 128)]
        for i, N in enumerate((16, 32)):
            orders = [richardson_order(*(a[j] for a in alphas[i:i + 3])) for j in (0, 1)]
            print(f"{name:>14} {N:>6} {orders[0]:12.2f} {orders[1]:13.2f}")

    print()
    print("Richardson order of the leader's Riccati solutions over N, 2N and 4N (n = 3)")
    print(f"{'N':>6} {'Pi1(0)':>8} {'Pi2(T)':>8}")
    ends = [leader_riccati_ends(three_state_game(N)) for N in (16, 32, 64, 128, 256)]
    for i, N in enumerate((16, 32, 64)):
        orders = [richardson_order(*(e[j] for e in ends[i:i + 3])) for j in (0, 1)]
        print(f"{N:>6} {orders[0]:8.2f} {orders[1]:8.2f}")

    print()
    print("Pathwise adjoint check: RMS of x - (P2 ybar + phibar) at T vs time step")
    print(f"{'N':>6} {'finance':>12} {'ratio':>7} {'n = 3':>12} {'ratio':>7}")
    steps = (100, 200, 400, 800)
    gaps = [adjoint_gaps(game, steps, args.paths, args.seed) for game in (finance_game, three_state_game)]
    for i, N in enumerate(steps):
        cells = [f"{g[i]:12.3e} " + (f"{g[i - 1] / g[i]:7.2f}" if i else " " * 7) for g in gaps]
        print(f"{N:>6} " + " ".join(cells))

    games = (("n = 1 stochastic", bs.stochastic_scenario), ("n = 3, C != 0", three_state_game))
    for name, game in games:
        print()
        print(f"Accumulated closed-loop residual vs time step ({name})")
        print(f"{'N':>6} {'leader RMS':>13} {'ratio':>7} {'follower RMS':>13} {'ratio':>7}")
        prev = None
        for N, *rms in reversed(residual_ratios(game, (128, 256, 512), args.paths, args.seed)):
            cells = []
            for j, r in enumerate(rms):
                ratio = f"{r / prev[j]:7.2f}" if prev else " " * 7
                cells.append(f"{r:13.3e} {ratio}")
            print(f"{N:>6} " + " ".join(cells))
            prev = rms

    print()
    print("QP oracle relative gap vs time step (n = k = 2, C = 0, as verify reports it)")
    print(f"{'N':>6} {'follower':>12} {'ratio':>7} {'leader':>12} {'ratio':>7}")
    prev = None
    for N in (512, 1024, 2048, 4096):
        gaps = oracle_gaps(N, args.seed)
        cells = [
            f"{g:12.3e} " + (f"{prev[j] / g:7.2f}" if prev else " " * 7) for j, g in enumerate(gaps)
        ]
        print(f"{N:>6} " + " ".join(cells))
        prev = gaps
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
