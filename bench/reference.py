"""A fixed reference loop that gauges the machine's speed during a run.

The machine the benchmark runs on is a shared virtual machine whose
speed swings by up to half from one spell to the next, and spells last
from seconds to minutes, longer than a run can average out.  The timed
run therefore interleaves short slices of this loop with its items, one
slice per ``EVERY_S`` of item time, so the slices sample the machine at
the moments the items ran.  The speed-corrected throughput divides the
items' time by how slow the slices ran against ``NOMINAL_S``.

The loop does the kind of work the package does (Python-level loops,
dicts and tuples around many numpy calls on small arrays) and imports
nothing from the package, so no change to the program can move it.
``NOMINAL_S`` is a fixed constant, a round figure near the median slice
time on the machine of the baseline in NOTES.md.  It sets only the
scale of the corrected figures and must stay the same for figures to be
comparable.
"""

from __future__ import annotations

import time

import numpy as np

# One slice per this much item time.
EVERY_S = 0.2
# Median time of one slice on the baseline machine, in seconds.
NOMINAL_S = 0.025
ITERATIONS = 2000

_A = np.random.default_rng(0).random((3, 3, 6))
_A /= _A.sum()


def _slice() -> float:
    acc = 0.0
    seen: dict[tuple[int, int], int] = {}
    for i in range(ITERATIONS):
        z = i % 6
        cond = _A / _A.sum(axis=2, keepdims=True)
        acc += float(np.einsum("xyz,xyz->", cond, _A))
        acc += float(np.outer(_A[:, 0, z], _A[0, :, z]).max())
        key = (i % 7, z)
        seen[key] = seen.get(key, 0) + 1
        acc += sum(seen.values()) * 1e-9
    return acc


def slice_ns() -> int:
    """Run one slice; return its wall time in ns."""
    start = time.perf_counter_ns()
    _slice()
    return time.perf_counter_ns() - start
