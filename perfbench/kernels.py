"""Reference kernels that turn raw seconds into normalized seconds.

Each kernel is a fixed piece of work of the kind that dominates a workload.
It is timed just before and just after every operation, and the operation's
raw time is scaled by (nominal kernel time / measured kernel time).  A
machine that runs everything 30% slower for a while then reports the same
normalized time.  The program under test cannot change these kernels.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: Nominal kernel times in seconds: the kernels' medians on the recorded
#: machine (see README).  They only fix the unit; changing them rescales
#: every normalized figure and invalidates comparisons with older runs.
NOMINAL_S = {"python": 0.055, "numpy": 0.060}

_VEC = tuple(Fraction(1, 1 + k % 9) for k in range(385))
_GRID = np.linspace(0.0, 1.0, 1 << 20)


def python_kernel() -> int:
    """Exact-rational vector sums, as in ``Frequency.__add__`` over a
    385-symbol basis."""
    acc = _VEC
    for _ in range(60):
        acc = tuple(x + y for x, y in zip(acc, _VEC))
    return hash(acc)


def numpy_kernel() -> complex:
    """Elementwise complex ``exp`` and a reduction over 2^20 points: 16 MiB
    of output, so memory traffic weighs in as it does for the Monte Carlo
    batches and tensor grids."""
    return np.exp((2j * np.pi) * _GRID).sum()


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def time_kernel(name: str) -> float:
    fn = KERNELS[name]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
