"""scripts/artifact_matrix.py: every command on every game, run twice, byte for byte."""

import importlib.util
from pathlib import Path

from bsde_stackelberg.cli import COMMANDS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_matrix.py"
_spec = importlib.util.spec_from_file_location("artifact_matrix", SCRIPT)
artifact_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_matrix)


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_two_runs_give_byte_identical_trees(tmp_path):
    records = artifact_matrix.artifact_matrix(tmp_path / "a")
    artifact_matrix.artifact_matrix(tmp_path / "b")
    first, second = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert sorted(first) == sorted(second)
    assert [name for name in sorted(first) if first[name] != second[name]] == []
    # every command on every game, and the path commands at one path on the
    # shipped scenarios; each command applies to some game, and a command
    # that does not apply says so in one stderr line
    games = {game for game, _ in records}
    single = len(artifact_matrix.SCENARIOS) * len(artifact_matrix.SINGLE_PATH)
    assert len(games) == 6 and len(records) == len(games) * len(COMMANDS) + single == 54
    passed = {run.removesuffix("-1path") for (_, run), r in records.items() if r["exit"] == 0}
    assert passed == set(COMMANDS)
    assert all(r["stderr"].count("\n") == (r["exit"] != 0) for r in records.values())
