"""Streamed path layer: slices of the Philox stream, chunk bounds, and CLI
artifacts that do not depend on the path-chunk width."""

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg import sampling
from bsde_stackelberg.cli import CSV_PATH_CAP, main
from bsde_stackelberg.leader import leader_paths_csv
from bsde_stackelberg.scenario import load_scenario
from conftest import dense_game, running_values, scenario_document

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

PATHS, STEPS = 60, 16  # more paths than CSV_PATH_CAP, which the per-path CSVs list
# the shipped scenarios, and an n = 3, k = 2 game with C != 0 written out by the test
RUNS = [
    (command, scenario)
    for command in ("equilibrium", "follower")
    for scenario in ("hand_solvable.json", "stochastic.json", "finance.json", "dense")
] + [("finance", "finance.json")]


def budget_for(width, steps, dim):
    """The PATH_CHUNK_BYTES that caps chunks at width paths."""
    return 8 * (steps + 1) * dim * width


class TestChunkBounds:
    @pytest.mark.parametrize("n_paths, width", [(60, 60), (60, 9), (60, 2), (7, 2), (10, 3), (1, 4)])
    def test_even_split_within_budget(self, monkeypatch, n_paths, width):
        monkeypatch.setattr(sampling, "PATH_CHUNK_BYTES", budget_for(width, 10, 3))
        bounds = sampling.chunk_bounds(n_paths, 10, 3)
        counts = [count for _, count in bounds]
        assert [first for first, _ in bounds] == list(np.cumsum([0] + counts[:-1]))
        assert sum(counts) == n_paths
        assert len(bounds) == math.ceil(n_paths / width)
        assert max(counts) <= width and max(counts) - min(counts) <= 1

    def test_no_paths_is_one_empty_chunk(self):
        assert sampling.chunk_bounds(0, 10, 2) == [(0, 0)]

    def test_merge_concatenates_and_maxes(self, monkeypatch):
        grid = bs.TimeGrid(1.0, 4)
        monkeypatch.setattr(sampling, "PATH_CHUNK_BYTES", budget_for(2, 4, 1))
        widths = []

        def chunk(bundle):
            widths.append(bundle.n_paths)
            W = running_values(bundle.dW)
            return {"W_T": W[-1], "peak": float(np.max(np.abs(W)))}

        merged = sampling.stream_paths(grid, bs.MonteCarloConfig(5, 3), 1, chunk)
        whole = sampling.sample_brownian(grid, 5, 3)
        assert widths == [1, 2, 2]
        W = running_values(whole.dW)
        assert np.array_equal(merged["W_T"], W[-1])
        assert merged["peak"] == np.max(np.abs(W))


def scenario_path(tmp_path, scenario):
    if scenario != "dense":
        return SCENARIOS / scenario
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(scenario_document(dense_game(STEPS))))
    return path


def run_cli(tmp_path, monkeypatch, command, scenario, width):
    """Run one command with chunks capped at width paths; returns its --out directory."""
    path = scenario_path(tmp_path, scenario)
    dim = load_scenario(path, steps=STEPS).spec.dims.n * (1 if command == "follower" else 2)
    monkeypatch.setattr(sampling, "PATH_CHUNK_BYTES", budget_for(width, STEPS, dim))
    assert max(count for _, count in sampling.chunk_bounds(PATHS, STEPS, dim)) == width
    out = tmp_path / f"{command}-{scenario}-{width}"
    argv = [
        command, "--scenario", str(path), "--out", str(out),
        "--steps", str(STEPS), "--paths", str(PATHS), "--seed", "4",
    ]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize("command, scenario", RUNS, ids=[f"{c}-{s}" for c, s in RUNS])
def test_artifacts_independent_of_chunk_width(tmp_path, monkeypatch, capsys, command, scenario):
    whole = run_cli(tmp_path, monkeypatch, command, scenario, PATHS)
    files = sorted(p.name for p in whole.iterdir())
    assert "summary.json" in files and any(f.endswith(".csv") for f in files)
    csv = next(whole.glob("*.csv")).read_text()
    listed = {line.split(",", 1)[0] for line in csv.splitlines()[1:]}
    assert listed == {str(p) for p in range(CSV_PATH_CAP)}
    for width in (math.ceil(PATHS / 7), 2, 1):
        chunked = run_cli(tmp_path, monkeypatch, command, scenario, width)
        assert sorted(p.name for p in chunked.iterdir()) == files
        # the CSVs' paths are drawn once, apart from the stream, so every CSV is
        # byte-identical at any width; so is summary.json in chunks of 2 or more
        for name in files if width > 1 else [f for f in files if f != "summary.json"]:
            assert (chunked / name).read_bytes() == (whole / name).read_bytes(), (width, name)
    # one-path chunks take another BLAS route for their 1-row matmuls and a
    # pairwise sum for their time integrals: equal within compare_outputs.py's rule
    compare_outputs.compare_trees(whole, chunked)


def test_structural_figures_independent_of_paths_and_seed(tmp_path, capsys):
    # the structural identities are read off the kernel's tables, not along paths
    figures = []
    for paths, seed in (("4", "0"), ("400", "3")):
        out = tmp_path / f"{paths}-{seed}"
        argv = [
            "equilibrium", "--scenario", str(SCENARIOS / "stochastic.json"), "--out", str(out),
            "--steps", "50", "--paths", paths, "--seed", seed,
        ]
        assert main(argv) == 0
        s = json.loads((out / "summary.json").read_text())
        figures.append([
            s["terminal_error_max"], s["initial_coupling_max"], s["decoupling_consistency_max"],
            s["stationarity"]["follower"], s["stationarity"]["leader"],
        ])
    assert figures[0] == figures[1]
    assert max(figures[0]) <= 1e-8


# a chunk holds its joint state, its Brownian paths and one form's temporary:
# about 6 budget-sized arrays at n = 1 (sampling.PATH_CHUNK_BYTES)
WORKING_SET_CHUNKS = 8


def test_peak_allocation_is_one_chunks_working_set():
    # numpy reports its buffers to tracemalloc; 10000 paths run as 4 chunks,
    # and the peak is one chunk's working set, not the whole bundle's
    spec = load_scenario(SCENARIOS / "stochastic.json", steps=100).spec
    v = bs.AffineControl.constant(spec.grid, np.ones(spec.dims.k))
    tracemalloc.start()
    try:
        bs.equilibrium_summary(spec, bs.MonteCarloConfig(10000, 5), v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sampling.chunk_bounds(10000, 100, 2)) == 4
    assert peak < WORKING_SET_CHUNKS * sampling.PATH_CHUNK_BYTES, peak / sampling.PATH_CHUNK_BYTES


def test_leader_csv_is_written_a_slab_at_a_time(tmp_path):
    # the writer holds its listed paths' values and one slab's text, not the
    # file's text: 50 paths at N = 250, n = 3 (riccati-dense's size) are 5.7 MB
    sol = bs.equilibrium_layer(dense_game(250))
    bundle = bs.sample_brownian(sol.spec.grid, CSV_PATH_CAP, 5)
    zeta = bs.simulate_tilde_varphi(sol.kernel.step, bundle)
    path = tmp_path / "paths_leader.csv"
    tracemalloc.start()
    try:
        with path.open("w") as f:
            leader_paths_csv(sol, zeta, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5e6
    assert peak < 1.5 * size, peak / size
