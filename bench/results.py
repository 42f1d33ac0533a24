"""Compare or summarize the results records that bench/run.py stores.

    python3 bench/results.py compare OLD_DIR NEW_DIR
        Match records by workload, seed and trace flag, and operations by
        index (operations that only one side reached are skipped); report
        every recorded figure (J values, Y0 / initial reserve, accuracy
        figures) whose relative difference exceeds 1e-12.  Exits 1 on any
        difference or on a record that only one side has.

    python3 bench/results.py baseline DIR > bench/BASELINE.json
        Machine description and, per workload and kind of run, the median
        over seeds of every metric, with the seeds and operation counts.

DIR is a copy of .bench_runs/results from one checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

REL_TOL = 1e-12
ABS_TOL = 1e-15  # defects that are rounding noise around zero


def load(directory: Path) -> dict[str, dict]:
    return {p.name: json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))}


def compare(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    problems = []
    for name in sorted(set(old) & set(new)):
        # runs are time-bound, so a faster commit makes more operations;
        # operations with the same index have the same inputs
        new_ops = {o["op"]: o for o in new[name]["ops"]}
        for o in old[name]["ops"]:
            n = new_ops.get(o["op"])
            if n is None:
                continue
            for key, a in o["figures"].items():
                b = n["figures"].get(key)
                if b is None or not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    problems.append(f"{name} op {o['op']} {key}: {a!r} -> {b!r}")
    for name in sorted(set(old) ^ set(new)):
        problems.append(f"{name}: only in {'old' if name in old else 'new'}")
    return problems


def baseline(records: dict[str, dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for rec in records.values():
        kind = "traced" if rec["trace"] else "untraced"
        groups.setdefault(f"{rec['workload']}/{kind}", []).append(rec)
    out = {"machine": next(iter(records.values()))["machine"], "runs": {}}
    for key, recs in sorted(groups.items()):
        names = recs[0]["metrics"]
        out["runs"][key] = {
            "seeds": sorted(r["seed"] for r in recs),
            "seconds": recs[0]["seconds"],
            "operations": sum(len(r["ops"]) for r in recs),
            "failed": sum(1 for r in recs for o in r["ops"] if o["errors"]),
            "median_over_seeds": {
                m: statistics.median(r["metrics"][m] for r in recs) for m in names
            },
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    b = sub.add_parser("baseline")
    b.add_argument("dir", type=Path)
    args = ap.parse_args()
    if args.command == "compare":
        problems = compare(load(args.old), load(args.new))
        for p in problems:
            print(p)
        print(f"{len(problems)} differences")
        return 1 if problems else 0
    print(json.dumps(baseline(load(args.dir)), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
