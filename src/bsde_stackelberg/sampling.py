"""Reproducible Brownian path generation.

Counter-based Philox generators keyed on (seed, path index): every path
is bit-reproducible in isolation and independent of how many other
paths are drawn, which is what the common-random-number comparisons
need.  Within a path, increments are drawn in step order.
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
    dW: np.ndarray  # (paths, N)
    W: np.ndarray  # (paths, N + 1), W[:, 0] = 0

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    key = (np.uint64(seed).item() << 64) | np.uint64(path_index).item()
    return np.random.Generator(np.random.Philox(key=key))


def sample_brownian(grid: TimeGrid, n_paths: int, seed: int) -> PathBundle:
    """Draw n_paths Brownian trajectories with increments ~ N(0, dt)."""
    scale = np.sqrt(grid.dt)
    dW = np.empty((n_paths, grid.steps))
    for p in range(n_paths):
        dW[p] = _path_generator(seed, p).standard_normal(grid.steps) * scale
    W = np.zeros((n_paths, grid.steps + 1))
    np.cumsum(dW, axis=1, out=W[:, 1:])
    return PathBundle(grid, seed, dW, W)


def coarsen(bundle: PathBundle, factor: int) -> PathBundle:
    """Aggregate increments onto a grid with N / factor steps (same paths)."""
    if bundle.grid.steps % factor != 0:
        raise ValueError(f"steps {bundle.grid.steps} not divisible by {factor}")
    coarse = TimeGrid(bundle.grid.horizon, bundle.grid.steps // factor)
    dW = bundle.dW.reshape(bundle.n_paths, coarse.steps, factor).sum(axis=2)
    W = np.zeros((bundle.n_paths, coarse.steps + 1))
    np.cumsum(dW, axis=1, out=W[:, 1:])
    return PathBundle(coarse, bundle.seed, dW, W)
