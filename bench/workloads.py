"""Benchmark workloads and the seeded scenario generator.

Each workload is one documented CLI command (or, for verify-oracle, two
commands) run in-process through ``bsde_stackelberg.cli.main(argv)``.
Everything an operation receives is derived from the workload seed and
the operation's index: the CLI ``--seed`` and, where the workload
generates its own game, the scenario JSON.  The generator uses Python's
``random`` module only, so the same seed gives byte-identical inputs on
any machine and without importing numpy.

Sizes are smaller than the paper-scale probes (see bench/README.md) so
that one run holds several operations; each resize keeps the layer share
the workload exists to show.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # CLI invocations of one operation, without --scenario, --seed and
    # --out, which op_argvs appends per operation
    commands: tuple[tuple[str, ...], ...]
    # repository scenario file, or None when the scenario is generated
    scenario: str | None = None
    generator: Callable[[random.Random, int], dict] | None = None
    steps: int | None = None


def op_rng(workload: str, seed: int, op: int) -> random.Random:
    """Independent stream per (workload, seed, operation); str seeds hash stably."""
    return random.Random(f"{workload}:{seed}:{op}")


def op_seed(workload: str, seed: int, op: int) -> int:
    """The CLI --seed of one operation."""
    return op_rng(workload, seed, op).randrange(2**31)


# --- small dense helpers (row-major nested lists) ---------------------------


def _uniform(rng: random.Random, rows: int, cols: int, lo: float, hi: float) -> list:
    return [[rng.uniform(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _spd(rng: random.Random, m: int, floor: float, scale: float) -> list:
    """floor * I + L L^T with L uniform in [-scale, scale]; exactly symmetric."""
    L = _uniform(rng, m, m, -scale, scale)
    M = [
        [sum(L[i][q] * L[j][q] for q in range(m)) + (floor if i == j else 0.0) for j in range(m)]
        for i in range(m)
    ]
    return [[0.5 * (M[i][j] + M[j][i]) for j in range(m)] for i in range(m)]


def _flat(mat: list) -> list:
    return [x for row in mat for x in row]


def _constant(mat: list) -> dict:
    return {"constant": _flat(mat)}


def _nodes(times: list, mats: list) -> dict:
    return {"nodes": [[t, _flat(m)] for t, m in zip(times, mats)]}


def riccati_dense(rng: random.Random, steps: int) -> dict:
    """n = 3, k = 2, C != 0, stochastic terminal datum; A, Q1 and R2 vary in time."""
    n, k = 3, 2
    knots = [0.0, 0.5, 1.0]
    coefficients = {
        "A": _nodes(knots, [_uniform(rng, n, n, -0.5, 0.5) for _ in knots]),
        "B1": _constant(_uniform(rng, n, k, -1.0, 1.0)),
        "B2": _constant(_uniform(rng, n, k, -1.0, 1.0)),
        "C": _constant(_uniform(rng, n, n, -0.3, 0.3)),
        "Q1": _nodes(knots, [_spd(rng, n, 0.2, 0.6) for _ in knots]),
        "R1": _constant(_spd(rng, k, 0.8, 0.4)),
        "S1": _constant(_spd(rng, n, 0.1, 0.4)),
        "Q2": _constant(_spd(rng, n, 0.2, 0.6)),
        "R2": _nodes([0.0, 1.0], [_spd(rng, k, 0.8, 0.4) for _ in range(2)]),
        "S2": _constant(_spd(rng, n, 0.1, 0.4)),
    }
    return {
        "dims": {"n": n, "d": 1, "k": k},
        "horizon": 1.0,
        "steps": steps,
        "coefficients": coefficients,
        "weights": {"G1": _spd(rng, n, 0.2, 0.5), "G2": _spd(rng, n, 0.2, 0.5)},
        "terminal": {
            "a": [rng.uniform(-1.0, 1.0) for _ in range(n)],
            "b": [[rng.uniform(-0.5, 0.5)] for _ in range(n)],
        },
        "mode": "strict",
    }


def verify_oracle(rng: random.Random, steps: int) -> dict:
    """n = 2, k = 2, C = 0, deterministic terminal datum: the QP oracles apply."""
    n, k = 2, 2
    zeros = [[0.0] * n for _ in range(n)]
    coefficients = {
        "A": _constant(_uniform(rng, n, n, -0.5, 0.5)),
        "B1": _constant(_uniform(rng, n, k, -1.0, 1.0)),
        "B2": _constant(_uniform(rng, n, k, -1.0, 1.0)),
        "C": _constant(zeros),
        "Q1": _constant(_spd(rng, n, 0.2, 0.6)),
        "R1": _constant(_spd(rng, k, 0.8, 0.4)),
        "S1": _constant(_spd(rng, n, 0.1, 0.4)),
        "Q2": _constant(_spd(rng, n, 0.2, 0.6)),
        "R2": _constant(_spd(rng, k, 0.8, 0.4)),
        "S2": _constant(_spd(rng, n, 0.1, 0.4)),
    }
    return {
        "dims": {"n": n, "d": 1, "k": k},
        "horizon": 1.0,
        "steps": steps,
        "coefficients": coefficients,
        "weights": {"G1": _spd(rng, n, 0.2, 0.5), "G2": _spd(rng, n, 0.2, 0.5)},
        # |a| >= 0.5 keeps the optimal costs away from zero, where the
        # oracle's relative gap (an O(dt) absolute gap over the cost) blows up
        "terminal": {
            "a": [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0) for _ in range(n)],
            "b": [[0.0]] * n,
        },
        "mode": "strict",
        "u2": {"const": {"constant": [rng.uniform(-0.5, 0.5) for _ in range(k)]}},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paths-wide",
            "fixed stochastic game, many paths on a short grid: the path layer "
            "(sampling, simulate, reconstruct, feedback, cost) dominates time and memory",
            (("equilibrium", "--steps", "100", "--paths", "10000"),),
            scenario="scenarios/stochastic.json",
        ),
        Workload(
            "riccati-dense",
            "generated n=3, k=2 game with C != 0 and time-varying A, Q1, R2 on a long grid, "
            "64 paths: the deterministic Riccati layer dominates",
            (("equilibrium", "--paths", "64"),),
            generator=riccati_dense,
            steps=250,
        ),
        Workload(
            "finance-reserve",
            "consumption market with the dual-reserve Monte Carlo check: "
            "initial_reserve streams a per-path propagator on a short grid",
            (("finance", "--steps", "100", "--paths", "3000"),),
            scenario="scenarios/finance.json",
        ),
        Workload(
            "verify-oracle",
            "generated deterministic n=2, k=2, C=0 game through riccati then verify: "
            "QP oracles, Magnus closed forms and Riccati residuals, no path load",
            (("riccati",), ("verify",)),
            generator=verify_oracle,
            steps=250,
        ),
    )
}




def scenario_text(workload: Workload, seed: int, op: int) -> str:
    """The generated scenario JSON of one operation (deterministic in its arguments)."""
    rng = op_rng(workload.name, seed, op)
    rng.randrange(2**31)  # the CLI --seed draw, see op_seed
    doc = workload.generator(rng, workload.steps)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def op_argvs(workload: Workload, root: Path, work: Path, seed: int, op: int) -> list[list[str]]:
    """CLI argument vectors of one operation; writes its generated scenario, if any."""
    if workload.generator is None:
        scenario = root / workload.scenario
    else:
        scenario = work / f"scenario-{op}.json"
        scenario.write_text(scenario_text(workload, seed, op))
    cli_seed = op_seed(workload.name, seed, op)
    argvs = []
    for cmd in workload.commands:
        out = work / f"op{op}-{cmd[0]}"
        argvs.append(
            [*cmd, "--scenario", str(scenario), "--seed", str(cli_seed), "--out", str(out)]
        )
    return argvs


def out_dir(argv: list[str]) -> Path:
    """The output directory of one CLI argument vector."""
    return Path(argv[argv.index("--out") + 1])
