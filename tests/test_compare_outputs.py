"""scripts/compare_outputs.py: number-by-number comparison of two --out trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

SUMMARY = {"J1": {"mean": 0.25, "stderr": 0.0}, "Y0": [-0.16, 0.40], "passed": True}
CSV = "path,t,y_1\n0,0,0.5\n0,1,1.5\n"


def write_tree(root: Path, summary=SUMMARY, csv=CSV):
    (root / "run").mkdir(parents=True)
    (root / "run" / "summary.json").write_text(json.dumps(summary))
    (root / "run" / "paths.csv").write_text(csv)
    return root


def run(tmp_path, capsys, **new):
    old = write_tree(tmp_path / "old")
    rc = compare_outputs.main([str(old), str(write_tree(tmp_path / "new", **new))])
    return rc, capsys.readouterr().out


def test_identical_trees_agree(tmp_path, capsys):
    rc, out = run(tmp_path, capsys)
    assert rc == 0 and out.startswith("equal: 2 files")


def test_difference_within_tolerance_agrees(tmp_path, capsys):
    rc, _ = run(tmp_path, capsys, summary={**SUMMARY, "Y0": [-0.16, 0.40 + 5e-13]})
    assert rc == 0


@pytest.mark.parametrize(
    "new, where",
    [
        ({"summary": {**SUMMARY, "Y0": [-0.16, 0.40 + 2e-12]}}, "run/summary.json.Y0[1]"),
        ({"summary": {**SUMMARY, "J1": {"mean": 0.25}}}, "run/summary.json.J1: keys"),
        ({"summary": {**SUMMARY, "passed": False}}, "run/summary.json.passed"),
        ({"csv": "path,t,y_1\n0,0,0.5\n0,1,1.6\n"}, "run/paths.csv: row 3 column y_1"),
        ({"csv": "path,t,y_1\n0,0,0.5\n"}, "run/paths.csv: 3 rows != 2"),
    ],
)
def test_first_difference_named(tmp_path, capsys, new, where):
    rc, out = run(tmp_path, capsys, **new)
    assert rc == 1 and out.startswith(f"differ: {where}")


def test_file_sets_must_match(tmp_path, capsys):
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new")
    (new / "run" / "extra.csv").write_text(CSV)
    assert compare_outputs.main([str(old), str(new)]) == 1
    assert "only in new ['run/extra.csv']" in capsys.readouterr().out
