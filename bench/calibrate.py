"""Calibration loops: fixed work outside the package, timed between a
round's operations to measure how fast the machine runs at the time.

The machine is shared, and its speed drifts by up to 1.7x over minutes with
other tenants' load: far past any bound a time could be held to.  The drift
speeds interpreter-bound code up more than memory-bound numpy code, and
the package's code lies between the two, so there are two loops, one of
each kind.  A round's times are scaled by the geometric mean over the loops
of REF_S over the loop's median time in the round; a change to the package
moves its operations' times and not the loops'.
"""

import math
import statistics
import time

import numpy as np

# seconds each loop takes at the reference speed, about this machine's usual
REF_S = {"python": 0.0035, "numpy": 0.0042}
# a round times both loops at its start and end and about this often between
EVERY_S = 0.1

PYTHON_STEPS = 4000


def python_loop():
    """The interpreter work the package does most: bit masks, dict lookups
    and small tuples."""
    t0 = time.perf_counter()
    memo = {}
    acc = 0
    for k in range(PYTHON_STEPS):
        m = (k * 2654435761) & 0xFFFF
        low = m & -m
        acc += low.bit_length() + (m ^ low).bit_count()
        memo[m & 0x3FF] = (acc, low)
        acc -= memo.get((m >> 3) & 0x3FF, (0, 0))[0] & 7
    return time.perf_counter() - t0


# every 2-coloring of a 3 x 4 grid, one row per coloring
_COLS = 4
_COLORS = np.indices((2,) * 12).reshape(12, -1).T
_EDGES = [(v, v + 1) for v in range(12) if (v + 1) % _COLS] + [(v, v + _COLS) for v in range(12 - _COLS)]
_C = np.array([[0.1 + 0.05j, -0.08], [-0.08, 0.12 - 0.03j]])


def numpy_loop():
    """Whole-array work of the shape the coloring sums do: per-edge gathers
    over all colorings and a column-by-column polynomial update."""
    t0 = time.perf_counter()
    rows, m = _COLORS.shape[0], len(_EDGES)
    P = np.zeros((rows, m + 1), dtype=complex)
    P[:, 0] = 1.0
    fac = np.ones(rows, dtype=complex)
    for e, (u, w) in enumerate(_EDGES):
        c = _C[_COLORS[:, u], _COLORS[:, w]]
        fac *= 1.0 + c
        for j in range(e + 1, 0, -1):
            P[:, j] += c * P[:, j - 1]
    return time.perf_counter() - t0


LOOPS = {"python": python_loop, "numpy": numpy_loop}


class Calibration:
    """Samples of both loops within one round."""

    def __init__(self):
        self.samples = {kind: [] for kind in LOOPS}
        self.due = 0.0

    def sample(self):
        for kind, loop in LOOPS.items():
            self.samples[kind].append(loop())
        self.due = time.perf_counter() + EVERY_S

    def maybe_sample(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def medians(self):
        return {kind: statistics.median(v) for kind, v in self.samples.items()}


def scale(medians):
    """The factor that takes times measured alongside loops of these median
    times to the reference speed."""
    return math.prod(REF_S[kind] / t for kind, t in medians.items()) ** (1.0 / len(medians))
