"""Reproducible Brownian path generation, and the path chunks a solve streams.

Counter-based Philox streams keyed on (seed, path index): every path
is bit-reproducible in isolation and independent of how many other
paths are drawn, which is what the common-random-number comparisons
need.  Within a path, increments are drawn in step order.  Arrays are
time-major: row i holds step i (or node i) of every path.

Because any slice of paths can be drawn on its own, a solve need not
hold all of its paths at once: stream_paths draws them in chunks sized
by PATH_CHUNK_BYTES, runs a per-chunk kernel and merges its per-path
results in path order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import TimeGrid


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int
    seed: int


@dataclass(frozen=True)
class PathBundle:
    """Brownian increments and running values on a grid."""

    grid: TimeGrid
    dW: np.ndarray  # (N, paths)
    W: np.ndarray  # (N + 1, paths), W[0] = 0

    @property
    def n_paths(self) -> int:
        return self.dW.shape[1]


def _running_values(dW: np.ndarray) -> np.ndarray:
    W = np.zeros((dW.shape[0] + 1, dW.shape[1]))
    np.cumsum(dW, axis=0, out=W[1:])
    return W


# Bytes of the row buffer that sample_brownian copies into dW one block of
# paths at a time.  It stays below glibc's default 128 KiB mmap threshold: a
# larger buffer, freed on every call, raises that threshold, and paths-wide's
# peak RSS grew by 3.5 MB with a 200 KB one.
SAMPLE_BLOCK_BYTES = 64 * 2**10


def sample_brownian(grid: TimeGrid, n_paths: int, seed: int, first: int = 0) -> PathBundle:
    """Draw paths first, ..., first + n_paths - 1, with increments ~ N(0, dt).

    Path p is the stream of Philox(key=(seed << 64) | p) from counter 0, so
    a slice of paths comes out bit for bit as the same columns of a full
    draw; one bit generator is re-keyed per path instead of built per path.
    Each path is drawn into a row of a SAMPLE_BLOCK_BYTES buffer, and a full
    block of rows is written into dW's columns by one transposed copy.
    """
    dW = np.empty((grid.steps, n_paths))
    bitgen = np.random.Philox(key=seed << 64)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    width = max(1, SAMPLE_BLOCK_BYTES // (8 * grid.steps))  # paths per block
    rows = np.empty((min(width, n_paths), grid.steps))
    for start in range(0, n_paths, width):
        block = rows[: min(width, n_paths - start)]
        for p, row in enumerate(block, first + start):
            key[0] = p
            bitgen.state = state  # counter 0, empty buffer, key (p, seed)
            gen.standard_normal(out=row)
        dW[:, start : start + len(block)] = block.T
    dW *= np.sqrt(grid.dt)
    return PathBundle(grid, dW, _running_values(dW))


def coarsen(bundle: PathBundle, factor: int) -> PathBundle:
    """Aggregate increments onto a grid with N / factor steps (same paths)."""
    if bundle.grid.steps % factor != 0:
        raise ValueError(f"steps {bundle.grid.steps} not divisible by {factor}")
    coarse = TimeGrid(bundle.grid.horizon, bundle.grid.steps // factor)
    dW = bundle.dW.reshape(coarse.steps, factor, bundle.n_paths).sum(axis=1)
    return PathBundle(coarse, dW, _running_values(dW))


# Memory budget of one (N + 1, chunk, dim) float64 path array.  An equilibrium
# chunk (dim = 2n) holds its joint state (3n + 2 rows), its Brownian paths and
# the per-node sums of a residual or a form, whose products run a block of
# nodes at a time (stacked.NODE_BLOCK_BYTES): a tracemalloc peak of about 4.7
# such arrays at n = 1, fewer at larger n.  A finance chunk (dim = 2) holds
# zeta, its Brownian paths and the dual reserve's forcing f: about 4.2.
PATH_CHUNK_BYTES = 4 * 2**20


def chunk_bounds(n_paths: int, steps: int, dim: int) -> list[tuple[int, int]]:
    """(first, count) of each path chunk, in path order.

    As few chunks as keep one (steps + 1, count, dim) float64 array within
    PATH_CHUNK_BYTES, with counts that differ by at most one path.
    """
    width = max(1, PATH_CHUNK_BYTES // (8 * (steps + 1) * dim))
    chunks = max(1, -(-n_paths // width))
    edges = [c * n_paths // chunks for c in range(chunks + 1)]
    return [(a, b - a) for a, b in zip(edges[:-1], edges[1:])]


def stream_paths(
    grid: TimeGrid, mc: MonteCarloConfig, dim: int, chunk: Callable[[PathBundle], dict]
) -> dict:
    """Run chunk on mc's paths, one chunk_bounds(mc.paths, N, dim) chunk at a time.

    chunk maps a bundle to a dict whose values are per-path arrays (leading
    axis: path) or maxima over the bundle's paths (floats).  The chunks'
    values are merged key by key: arrays are concatenated in path order and
    maxima reduced by max (NaN propagates).  A reduction of the merged
    values, by the expression a single bundle of all paths would use, then
    gives figures that do not depend on the chunk width.  Arrays are copied
    as they come, so a chunk may return views of its path arrays without
    keeping them alive.
    """
    parts = defaultdict(list)
    for first, count in chunk_bounds(mc.paths, grid.steps, dim):
        for key, value in chunk(sample_brownian(grid, count, mc.seed, first)).items():
            parts[key].append(value.copy() if isinstance(value, np.ndarray) else value)
    return {key: _merge(values) for key, values in parts.items()}


def _merge(values: list):
    if isinstance(values[0], np.ndarray):
        return np.concatenate(values)
    return float(np.max(values))


def mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over paths (the leading axis) and its standard error
    std(ddof=1) / sqrt(paths); the standard error of one path is 0."""
    mean = samples.mean(axis=0)
    n_paths = samples.shape[0]
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_paths) if n_paths > 1 else np.zeros_like(mean)
    return mean, stderr
