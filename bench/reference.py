"""The reference kernel that the benchmark's times are scaled by."""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 4)) + 4.0 * np.eye(4)
_LARGE = _RNG.standard_normal((100, 10_000))
_OUT = _LARGE.copy()  # written in place: the kernel adds a fixed 16 MB to peak RSS


def reference_seconds() -> float:
    """Wall time of a fixed kernel that uses no package code.

    The host's speed changes by up to 2x, from one second to the next and
    over minutes, for Python and numpy code alike.  An operation's time divided by the
    time of this kernel, taken around it, cancels that change but not a
    change in the package.  The kernel mixes what the package spends its
    time on: interpreted Python, small-matrix numpy calls and passes over
    large arrays.  It takes about 55 ms.
    """
    t = perf_counter()
    acc, table = 0.0, {}
    for i in range(200_000):
        acc += i * 0.5
        table[i & 255] = acc
    x = _SMALL
    for _ in range(3_000):
        x = np.linalg.inv(_SMALL) @ _SMALL + 0.0 * x
    for _ in range(8):
        np.multiply(_LARGE, 1.0001, out=_OUT)
        np.add(_OUT, 0.5, out=_OUT)
        _OUT.sum(axis=0)
    return perf_counter() - t
