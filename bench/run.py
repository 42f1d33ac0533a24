"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload paths-wide --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The run
  1. times ``import bsde_stackelberg`` in several fresh interpreters
     (set-up, untraced runs only);
  2. starts one workload process (bench/worker.py) that runs the
     workload's CLI operation in a closed loop for --seconds and checks
     every output;
  3. stores the per-operation results record (J values, Y0 / initial
     reserve, accuracy figures, times) under .bench_runs/results/;
  4. prints, as its last line, one JSON object with the end-to-end
     metrics (--trace 0) or the per-layer metrics (--trace 1).

The end-to-end times are scaled by the reference kernel timed around
them (bench/reference.py, REFERENCE_S below).

BLAS runs single-threaded: one client on a small shared machine, and
results that do not depend on a thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # the whole run, set-up included
# Times are reported in seconds at a fixed host speed: the speed at which
# the reference kernel (bench/reference.py) takes REFERENCE_S.  Each time
# is divided by the kernel's time taken around it in the same process, so
# the host's changes of speed cancel; see bench/README.md.
REFERENCE_S = 0.05
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bsde_stackelberg; "
    "s = time.perf_counter() - t; import sys; sys.path.insert(0, {bench!r}); "
    "from reference import reference_seconds; "
    "print(s, (reference_seconds() + reference_seconds()) / 2)"
)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    return env


def scaled(seconds: float, reference_s: float) -> float:
    """A wall time in seconds at the speed where the kernel takes REFERENCE_S."""
    return seconds / reference_s * REFERENCE_S


def setup_probes(env: dict, deadline: float) -> list[list[float]]:
    """[package import time, kernel time after it] in SETUP_PROBES fresh interpreters."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(bench=str(BENCH))],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
            check=True,
        )
        probes.append([float(x) for x in proc.stdout.split()])
    return probes


def main() -> int:
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "bsde_stackelberg" / "__init__.py").is_file():
        print(f"no bsde_stackelberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)

    try:
        probes = [] if args.trace else setup_probes(env, deadline)
        result_file = work / "worker.json"
        with open(work / "worker.log", "w") as log:
            subprocess.run(
                [
                    sys.executable, str(BENCH / "worker.py"),
                    "--root", str(ROOT), "--work", str(work),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result_file),
                ],
                env=env,
                cwd=ROOT,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - perf_counter()),
                check=True,
            )
        worker = json.loads(result_file.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"benchmark run failed: {e}; see {work / 'worker.log'}", file=sys.stderr)
        return 1

    ops = worker["ops"]
    failed = [o for o in ops if o["errors"]]
    timed = [o for o in ops if not o["warmup"] and not o["errors"]]
    for o in ops:
        status = "FAIL " + "; ".join(o["errors"]) if o["errors"] else "ok"
        kind = "warm-up" if o["warmup"] else ("traced" if o["traced"] else "timed")
        print(
            f"op {o['op']} ({kind}, seed {o['cli_seed']}): {o['seconds']:.4f} s, "
            f"reference {o['ref_s']:.4f} s, {status}"
        )
        if o["figures"]:
            print("  " + json.dumps(o["figures"], sort_keys=True))

    untraced = [o["seconds"] for o in timed if not o["traced"]]
    untraced_scaled = [scaled(o["seconds"], o["ref_s"]) for o in timed if not o["traced"]]
    if args.trace:
        traced = [o["seconds"] for o in timed if o["traced"]]
        metrics = dict(worker["per_layer"])
        metrics["trace.op_s"] = statistics.mean(traced) if traced else 0.0
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - (
            statistics.mean(untraced) if untraced else 0.0
        )
        if worker["absent_spans"]:
            print("absent spans: " + ", ".join(worker["absent_spans"]))
    else:
        metrics = {
            "op_s": statistics.median(untraced_scaled) if untraced_scaled else 0.0,
            "setup_s": statistics.median(scaled(s, r) for s, r in probes),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    declared = _declared_metrics(args.trace)
    if set(declared) != set(metrics):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": worker["machine"],
        "setup_probes_s": probes,
        "metrics": metrics,
        "ops": ops,
    }
    results = RUNS / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    if untraced:
        print(
            f"{len(untraced)} timed operations: mean {statistics.mean(untraced):.4f} s, "
            f"median {statistics.median(untraced):.4f} s; "
            f"scaled to the reference speed, median {statistics.median(untraced_scaled):.4f} s"
        )
    print(f"results in {results}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
                },
            }
        )
    )
    return 0


def _declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
