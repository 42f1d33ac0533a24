"""One workload process: import the package, then run operations in a closed loop.

Started by bench/run.py in a fresh interpreter with PYTHONPATH pointing at
the checkout's ``src``.  One client, one operation in flight at a time.
Operation 0 is a warm-up: it is checked and counted, but not timed into
the metrics.  The reference kernel (bench/reference.py) is timed once
before operation 0 and right after every operation, so each operation
has a kernel time right before it and one right after it.  With
``--trace 1`` the timed operations alternate between traced (odd index)
and untraced (even index), so the tracing overhead is measured in the
same process.  Writes one JSON result file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

_t0 = perf_counter()
import bsde_stackelberg.cli as cli  # noqa: E402  (timed: numpy and scipy included)

IMPORT_S = perf_counter() - _t0

from checks import check_command  # noqa: E402
from reference import reference_seconds  # noqa: E402
from spans import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, op_argvs, op_seed, out_dir  # noqa: E402

MIN_TIMED = 3  # per kind (untraced, and traced in a traced run)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
    }


def run_op(argvs: list[list[str]]) -> tuple[list[str], float]:
    """Run one operation's commands; failures and wall time."""
    errors: list[str] = []
    sink = io.StringIO()
    t = perf_counter()
    for argv in argvs:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except (Exception, SystemExit):  # any escape is a failed operation
            errors.append(f"{argv[0]} raised: {traceback.format_exc(limit=3)}")
            break
        if rc != 0:
            errors.append(f"{argv[0]} exited {rc}: {sink.getvalue()[-300:]}")
            break
    return errors, perf_counter() - t


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bsde_stackelberg imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install()

    ops = []
    counts = {False: 0, True: 0}
    measure_start = None
    k = 0
    ref_before = reference_seconds()
    while True:
        if measure_start is not None:
            elapsed = perf_counter() - measure_start
            enough = counts[False] >= MIN_TIMED and (not args.trace or counts[True] >= MIN_TIMED)
            if elapsed >= args.seconds and (enough or elapsed >= 3 * args.seconds):
                break
        traced = bool(args.trace) and k % 2 == 1
        argvs = op_argvs(workload, args.root, args.work, args.seed, k)
        gc.collect()
        tracer.op = k
        tracer.enabled = traced
        errors, seconds = run_op(argvs)
        tracer.enabled = False
        ref_after = reference_seconds()
        figures = {}
        if not errors:
            for argv in argvs:
                failed, got = check_command(argv[0], out_dir(argv))
                errors += [f"{argv[0]}: {e}" for e in failed]
                figures.update(got)
        for argv in argvs:
            shutil.rmtree(out_dir(argv), ignore_errors=True)
        ops.append(
            {
                "op": k,
                "cli_seed": op_seed(workload.name, args.seed, k),
                "warmup": k == 0,
                "traced": traced,
                "seconds": seconds,
                "ref_s": 0.5 * (ref_before + ref_after),
                "errors": errors,
                "figures": figures,
            }
        )
        ref_before = ref_after  # the next operation follows this kernel
        if k == 0:
            measure_start = perf_counter()
        else:
            counts[traced] += 1
        k += 1
    tracer.uninstall()

    result = {
        "import_s": IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "ops": ops,
        "absent_spans": tracer.absent,
    }
    if args.trace:
        spans = tracer.spans()
        traced_ops = {o["op"]: o["seconds"] for o in ops if o["traced"] and not o["errors"]}
        result["per_layer"] = per_layer_metrics(spans, traced_ops, tracer.arrays_bytes)
        (args.work / "spans.json").write_text(json.dumps(spans))
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
