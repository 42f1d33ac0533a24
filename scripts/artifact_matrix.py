#!/usr/bin/env python3
"""Every CLI command on a fixed set of games, all artifacts in one tree.

Usage: python scripts/artifact_matrix.py OUT

The games are the three shipped scenarios, one game from each generator
in bench/workloads.py (read, not changed), and verify-rank-one:
verify-oracle's game with the rank-one state weight RANK_ONE_Q1, on which
the follower's QP oracle fails its cheap certificate and decides
convexity by KKT inertia.  Every command of the CLI runs on every game
in process, through cli.main, at fixed small sizes: STEPS
steps, PATHS paths, seed SEED.  A run writes its artifacts to
OUT/<game>/<command>/, and exit.json beside them records its exit code and
its stderr.  The commands that draw paths also run at --paths 1 on the
shipped scenarios, into OUT/<game>/<command>-1path/: there the path stream
and the per-path CSV's draw are both one path wide.  A command that does
not apply to a game is recorded the same way: it exits nonzero with one
line on stderr.  A generated game's scenario is written to
OUT/<game>/scenario.json.

The CLI promises byte-identical outputs for identical inputs, so two runs
on the same code give byte-identical trees.  Two runs on different code are
compared with scripts/compare_outputs.py.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import sys
from pathlib import Path

from bsde_stackelberg import cli

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("hand_solvable", "stochastic", "finance")
STEPS, PATHS, SEED = 40, 60, 7  # PATHS > cli.CSV_PATH_CAP: the per-path CSVs are capped
SINGLE_PATH = ("equilibrium", "finance", "follower", "leader")  # the commands that draw paths
# PSD, so strict validation accepts it, but eigvalsh reads its scaled copies
# slightly negative
RANK_ONE_Q1 = [0.3, 0.1, 0.1, 1 / 30]


def _workloads():
    """bench/workloads.py as a module, without putting bench/ on sys.path."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def games(out: Path) -> dict[str, Path]:
    """Game name -> scenario file; the generated games are written under out."""
    found = {name: ROOT / "scenarios" / f"{name}.json" for name in SCENARIOS}
    workloads = _workloads()
    for w in workloads.WORKLOADS.values():
        if w.generator is not None:
            path = out / w.name / "scenario.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(workloads.scenario_text(dataclasses.replace(w, steps=STEPS), SEED, 0))
            found[w.name] = path
    doc = json.loads(found["verify-oracle"].read_text())
    doc["coefficients"]["Q1"] = {"constant": RANK_ONE_Q1}
    found["verify-rank-one"] = out / "verify-rank-one" / "scenario.json"
    found["verify-rank-one"].parent.mkdir(parents=True, exist_ok=True)
    found["verify-rank-one"].write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return found


def run_command(command: str, scenario: Path, out: Path, paths: int = PATHS) -> dict:
    """One CLI run into out, with its exit code and stderr written to out/exit.json."""
    argv = [command, "--scenario", str(scenario), "--out", str(out)]
    argv += ["--steps", str(STEPS), "--paths", str(paths), "--seed", str(SEED)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        record = {"exit": cli.main(argv), "stderr": stderr.getvalue()}
    out.mkdir(parents=True, exist_ok=True)
    (out / "exit.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def artifact_matrix(out: Path) -> dict[tuple[str, str], dict]:
    """Run every command on every game into out, and the SINGLE_PATH commands at
    one path on the shipped scenarios; (game, run directory) -> exit record."""
    found = games(out)
    records = {
        (game, command): run_command(command, scenario, out / game / command)
        for game, scenario in found.items()
        for command in sorted(cli.COMMANDS)
    }
    for game in SCENARIOS:
        for command in SINGLE_PATH:
            run = f"{command}-1path"
            records[game, run] = run_command(command, found[game], out / game / run, paths=1)
    return records


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    records = artifact_matrix(Path(argv[0]))
    for (game, command), record in records.items():
        print(f"{game:>16} {command:>17} exit {record['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
