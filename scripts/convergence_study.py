#!/usr/bin/env python3
"""Convergence study: Riccati RK4 order and pathwise residual order.

Measures (a) the observed order of the backward Riccati solve against an
exact tanh solution and (b) how the accumulated closed-loop residual of
the equilibrium simulation scales when the time step halves, using the
same Brownian paths on both grids.

Example:
    python3 scripts/convergence_study.py --paths 128
"""

import argparse

import numpy as np

import bsde_stackelberg as bs
from bsde_stackelberg.leader import leader_bsde_residual
from bsde_stackelberg.sampling import coarsen, sample_brownian


def riccati_orders(step_counts):
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
        err = float(np.max(np.abs(p1.values[:, 0, 0] - np.tanh(1.0 - spec.grid.nodes))))
        rows.append((N, err))
    return rows


def residual_ratios(step_counts, paths, seed):
    finest = max(step_counts)
    fine = sample_brownian(bs.TimeGrid(1.0, finest), paths, seed)
    rows = []
    for N in sorted(step_counts):
        spec = bs.stochastic_scenario(steps=N)
        bundle = coarsen(fine, finest // N) if N != finest else fine
        sol = bs.solve_equilibrium(spec, bundle=bundle)
        rms, _ = leader_bsde_residual(sol.system, sol.pi2, sol.ensemble)
        rows.append((N, rms))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("Riccati solve vs exact tanh solution")
    print(f"{'N':>6} {'max error':>12} {'order':>7}")
    rows = riccati_orders((8, 16, 32, 64, 128))
    prev = None
    for N, err in rows:
        order = f"{np.log2(prev / err):7.2f}" if prev else " " * 7
        print(f"{N:>6} {err:12.3e} {order}")
        prev = err

    print()
    print("Accumulated closed-loop residual vs time step")
    print(f"{'N':>6} {'RMS residual':>13} {'ratio':>7}")
    rows = residual_ratios((128, 256, 512), args.paths, args.seed)
    prev = None
    for N, rms in reversed(rows):
        ratio = f"{rms / prev:7.2f}" if prev else " " * 7
        print(f"{N:>6} {rms:13.3e} {ratio}")
        prev = rms
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
