"""Reproducible Brownian path generation.

Counter-based Philox streams keyed on (seed, path index): every path
is bit-reproducible in isolation and independent of how many other
paths are drawn, which is what the common-random-number comparisons
need.  Within a path, increments are drawn in step order.  Arrays are
time-major: row i holds step i (or node i) of every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TimeGrid


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int = 10000
    seed: int = 0


@dataclass(frozen=True)
class PathBundle:
    """Brownian increments and running values on a grid."""

    grid: TimeGrid
    seed: int
    dW: np.ndarray  # (N, paths)
    W: np.ndarray  # (N + 1, paths), W[0] = 0

    @property
    def n_paths(self) -> int:
        return self.dW.shape[1]


def _running_values(dW: np.ndarray) -> np.ndarray:
    W = np.zeros((dW.shape[0] + 1, dW.shape[1]))
    np.cumsum(dW, axis=0, out=W[1:])
    return W


def sample_brownian(grid: TimeGrid, n_paths: int, seed: int) -> PathBundle:
    """Draw n_paths Brownian trajectories with increments ~ N(0, dt).

    Path p is the stream of Philox(key=(seed << 64) | p) from counter 0;
    one bit generator is re-keyed per path instead of built per path.
    """
    dW = np.empty((grid.steps, n_paths))
    bitgen = np.random.Philox(key=seed << 64)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    row = np.empty(grid.steps)
    for p in range(n_paths):
        key[0] = p
        bitgen.state = state  # counter 0, empty buffer, key (p, seed)
        gen.standard_normal(out=row)
        dW[:, p] = row
    dW *= np.sqrt(grid.dt)
    return PathBundle(grid, seed, dW, _running_values(dW))


def coarsen(bundle: PathBundle, factor: int) -> PathBundle:
    """Aggregate increments onto a grid with N / factor steps (same paths)."""
    if bundle.grid.steps % factor != 0:
        raise ValueError(f"steps {bundle.grid.steps} not divisible by {factor}")
    coarse = TimeGrid(bundle.grid.horizon, bundle.grid.steps // factor)
    dW = bundle.dW.reshape(coarse.steps, factor, bundle.n_paths).sum(axis=1)
    return PathBundle(coarse, bundle.seed, dW, _running_values(dW))
