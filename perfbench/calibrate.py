"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same work can take 25-50% longer for tens of seconds
at a time.  The worker times this kernel next to every set-up and every
operation and reports calibrated seconds: wall seconds scaled to a host on
which one kernel pass takes KERNEL_REF_S.  That cancels most of the drift.
The kernel uses no kleindim code, so a change to kleindim cannot move it;
it mixes the three kinds of work kleindim does: small Python objects with
complex arithmetic, NumPy sorts, and KD-tree queries.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

KERNEL_REF_S = 0.35  # one pass on the reference host; sets the unit only


def calibrated(seconds, kernel_seconds):
    """Wall seconds measured while a kernel pass took kernel_seconds."""
    return seconds * KERNEL_REF_S / kernel_seconds


class _Map:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._cells = np.floor(rng.random((90_000, 2)) * 600.0).astype(np.int64)
        self._points = rng.random((90_000, 2))
        self._queries = rng.random((90_000, 2))

    def _python(self):
        m = _Map(complex(0.6, 0.1), complex(0.2, -0.3))
        out = []
        for _ in range(135_000):
            m = _Map(m.a * m.a - m.b * 0.5, m.b * m.a * 0.5 + 0.01)
            m = _Map(m.a / (abs(m.a) + 1e-9), m.b / (abs(m.b) + 1.0))
            out.append(m)
        return len(out)

    def _numpy(self):
        return np.unique(self._cells, axis=0).shape[0]

    def _tree(self):
        dist, _ = cKDTree(self._points).query(self._queries, k=1)
        return float(dist.max())

    def __call__(self):
        """Seconds taken by one pass of the kernel."""
        t0 = time.perf_counter()
        self._python()
        self._numpy()
        self._tree()
        return time.perf_counter() - t0
