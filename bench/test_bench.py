"""Fast tests of the benchmark's own code (tiny sizes).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bsde_stackelberg.cli as cli  # noqa: E402
import bsde_stackelberg.riccati as riccati  # noqa: E402
from bsde_stackelberg.model import validate_spec  # noqa: E402
from bsde_stackelberg.scenario import scenario_from_dict  # noqa: E402

from checks import check_command  # noqa: E402
from spans import Tracer, per_layer_metrics, summarize  # noqa: E402
from workloads import WORKLOADS, op_argvs, op_seed, out_dir, scenario_text  # noqa: E402

GENERATED = [w for w in WORKLOADS.values() if w.generator]


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)  # looked up per call, so a traced main is seen


class TestGenerator:
    @pytest.mark.parametrize("workload", GENERATED, ids=lambda w: w.name)
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_deterministic_and_strict_valid(self, workload, seed):
        text = scenario_text(workload, seed, 3)
        assert text == scenario_text(workload, seed, 3)
        assert text != scenario_text(workload, seed, 4)
        assert op_seed(workload.name, seed, 3) == op_seed(workload.name, seed, 3)
        scn = scenario_from_dict(json.loads(text))
        assert scn.mode == "strict"
        assert validate_spec(scn.spec, strict=True).passed

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_riccati_dense_shape(self, seed):
        doc = json.loads(scenario_text(WORKLOADS["riccati-dense"], seed, 0))
        assert (doc["dims"]["n"], doc["dims"]["k"]) == (3, 2)
        for name in ("A", "Q1", "R2"):
            assert "nodes" in doc["coefficients"][name]
        assert any(doc["coefficients"]["C"]["constant"])

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_verify_oracle_shape(self, seed):
        doc = json.loads(scenario_text(WORKLOADS["verify-oracle"], seed, 0))
        assert (doc["dims"]["n"], doc["dims"]["k"]) == (2, 2)
        assert not any(doc["coefficients"]["C"]["constant"])
        assert not any(x for row in doc["terminal"]["b"] for x in row)


def tiny(argv: list[str], steps: str = "16") -> list[str]:
    """Shrink an operation to a tiny grid and few paths."""
    argv = list(argv)
    for flag, value in (("--steps", steps), ("--paths", "40")):
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        elif argv[0] != "riccati":
            argv += [flag, value]
    return argv


def tiny_op(tmp_path: Path, name: str) -> list[list[str]]:
    argvs = [tiny(a) for a in op_argvs(WORKLOADS[name], ROOT, tmp_path, 5, 0)]
    for argv in argvs:
        assert run_cli(argv) == 0
    return argvs


def tamper(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestChecker:
    def test_equilibrium_passes_then_tampered_fails(self, tmp_path):
        (argv,) = tiny_op(tmp_path, "paths-wide")
        errors, figures = check_command("equilibrium", out_dir(argv))
        assert errors == []
        assert {"J1", "J2", "bsde_residual_rms"} <= set(figures)
        tamper(out_dir(argv) / "summary.json", lambda d: d.update(terminal_error_max=1.0))
        errors, _ = check_command("equilibrium", out_dir(argv))
        assert any("terminal_error_max" in e for e in errors)

    def test_nonfinite_j_fails(self, tmp_path):
        (argv,) = tiny_op(tmp_path, "paths-wide")
        tamper(out_dir(argv) / "summary.json", lambda d: d["J2"].update(mean=float("nan")))
        errors, _ = check_command("equilibrium", out_dir(argv))
        assert any("J2" in e for e in errors)

    def test_finance_gap_fails(self, tmp_path):
        (argv,) = tiny_op(tmp_path, "finance-reserve")
        assert check_command("finance", out_dir(argv))[0] == []

        def widen(d):
            d["dual_check"]["gap"][1] = 10.0 * d["dual_check"]["stderr"][1]

        tamper(out_dir(argv) / "summary.json", widen)
        errors, figures = check_command("finance", out_dir(argv))
        assert any("gap 1" in e for e in errors)
        assert figures["reserve_gap_sigma"] == pytest.approx(10.0)

    def test_riccati_and_verify_fail_when_tampered(self, tmp_path):
        ric, ver = tiny_op(tmp_path, "verify-oracle")
        assert check_command("riccati", out_dir(ric))[0] == []
        assert check_command("verify", out_dir(ver))[0] == []
        tamper(out_dir(ric) / "solvability.json", lambda d: d["pi2"].update(max_gap_vs_rk4=1e-3))
        tamper(out_dir(ver) / "summary.json", lambda d: d.update(passed=False))
        assert any("pi2" in e for e in check_command("riccati", out_dir(ric))[0])
        assert check_command("verify", out_dir(ver))[0] == ["verify did not pass"]

    def test_missing_output_fails(self, tmp_path):
        errors, _ = check_command("equilibrium", tmp_path / "absent")
        assert errors and errors[0].startswith("unreadable output")


def span_table(rows: list[tuple]) -> dict:
    """rows: (name, span id, parent id, op id, start, end)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "name_id": [names.index(r[0]) for r in rows],
        "span_id": [r[1] for r in rows],
        "parent_id": [r[2] for r in rows],
        "op_id": [r[3] for r in rows],
        "start": [float(r[4]) for r in rows],
        "end": [float(r[5]) for r in rows],
    }


# recorded in end order, as the tracer appends them
SYNTHETIC = [
    ("odeint.guarded_inv", 3, 2, 0, 2.0, 3.0),
    ("odeint.integrate_matrix_ode", 2, 1, 0, 1.5, 3.5),
    ("riccati.solve_p1", 1, 0, 0, 1.0, 4.0),
    ("odeint.guarded_inv", 5, 4, 0, 6.0, 6.5),
    ("leader.reconstruct_XYZ", 4, 0, 0, 5.0, 8.0),
    ("model.eval_coefficient", 6, 0, 0, 8.5, 9.0),
    ("cli.main", 0, -1, 0, 0.0, 10.0),
    ("model.eval_coefficient", 7, -1, 1, 20.0, 21.0),
]


class TestSpans:
    def test_self_time_and_layers(self):
        ops = summarize(span_table(SYNTHETIC))
        op = ops[0]
        assert op["self_s"] == pytest.approx(
            {
                "cli.main": 3.5,
                "riccati.solve_p1": 1.0,
                "odeint.integrate_matrix_ode": 1.0,
                "odeint.guarded_inv": 1.5,
                "leader.reconstruct_XYZ": 2.5,
                "model.eval_coefficient": 0.5,
            }
        )
        assert op["calls"]["odeint.guarded_inv"] == 2
        # helpers follow their nearest non-helper ancestor: the ODE and its
        # inverse under solve_p1, the inverse under reconstruct_XYZ, the
        # coefficient evaluation directly under cli.main
        assert op["layer_s"] == pytest.approx({"deterministic": 3.0, "path": 3.0, "io": 4.0})
        assert sum(op["self_s"].values()) == pytest.approx(10.0)
        # a helper with no enclosing span belongs to no layer
        assert ops[1]["self_s"] == {"model.eval_coefficient": 1.0}
        assert ops[1]["layer_s"] == {}

    def test_per_layer_metrics_medians_and_coverage(self):
        m = per_layer_metrics(span_table(SYNTHETIC), {0: 10.0, 1: 2.0}, {0: 3 * 2**20})
        assert m["cli.main.calls"] == pytest.approx(0.5)  # median of 1 and 0
        assert m["trace.coverage"] == pytest.approx((1.0 + 0.5) / 2)
        assert m["path.arrays_mb"] == pytest.approx(1.5)
        assert m["layer.check_s"] == 0.0

    def test_tracer_on_package_with_absent_name(self, tmp_path):
        original = riccati.solve_p1
        tracer = Tracer()
        tracer.names.append("riccati.no_longer_here")
        tracer.install()
        try:
            assert riccati.solve_p1 is not original
            tracer.op, tracer.enabled = 0, True
            (argv,) = [tiny(a) for a in op_argvs(WORKLOADS["paths-wide"], ROOT, tmp_path, 1, 0)]
            assert run_cli(argv) == 0
            tracer.enabled = False
        finally:
            tracer.uninstall()
        assert riccati.solve_p1 is original
        assert tracer.absent == ["riccati.no_longer_here"]
        op = summarize(tracer.spans())[0]
        assert op["calls"]["cli.main"] == 1
        assert op["calls"]["riccati.solve_p1"] == 1
        assert "riccati.no_longer_here" not in op["calls"]
        assert tracer.arrays_bytes[0] > 0


class TestResults:
    def test_compare_flags_only_real_changes(self):
        from results import compare

        rec = {"ops": [{"op": 0, "figures": {"J1": 0.5, "terminal_error_max": 1e-17}}]}
        rounding = json.loads(json.dumps(rec))
        rounding["ops"][0]["figures"]["terminal_error_max"] = 3e-17
        assert compare({"a.json": rec}, {"a.json": rounding}) == []
        moved = json.loads(json.dumps(rec))
        moved["ops"][0]["figures"]["J1"] = 0.5 * (1 + 1e-10)
        assert len(compare({"a.json": rec}, {"a.json": moved})) == 1
        assert compare({"a.json": rec}, {"a.json": {"ops": []}}) == []
        assert compare({"a.json": rec}, {}) == ["a.json: only in old"]
