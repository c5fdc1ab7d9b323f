"""Reference implementations the fast kernels are tested against.

These are the straightforward algorithms the library used before its
near-linear kernels: a full-stencil grid counter deduplicated by np.unique,
and the exhaustive pairwise packing scan.  They share no code with the
library versions and must agree with them exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from kleindim import PackingCheck


def grid_cell_count_stencil(points, radius, cell):
    """Cells whose center is within radius + (sqrt(n)/2)*cell of a point.

    Candidates: every occupied base cell plus the full (2h+1)^n box of
    offsets, deduplicated with np.unique; exact test on a KD-tree.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    reach = radius + 0.5 * math.sqrt(n) * cell
    base = np.unique(np.floor(points / cell).astype(np.int64), axis=0)
    h = int(math.ceil(reach / cell)) + 1
    axes = [np.arange(-h, h + 1, dtype=np.int64)] * n
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    cand = (base[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    cand = np.unique(cand, axis=0)
    centers = (cand.astype(float) + 0.5) * cell
    dist, _ = cKDTree(points).query(centers, k=1)
    return int(np.count_nonzero(dist <= reach))


def first_unique_np(points, tol=1e-9):
    """First index of each 1e-9 rounding cell, ascending, via np.unique."""
    keys = np.round(points / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.sort(first)


def packing_brute_force(orbit, radius, chunk=256):
    """Pairwise scan in enumeration order; the first pair with d <= 2*radius.

    Rows are taken `chunk` at a time against every later column, with the
    library's exact test 1 + 2|x - y|^2 / (q_x q_y) <= cosh 2a.
    """
    pts = orbit.points
    n = pts.shape[0]
    if n < 2:
        return PackingCheck(ok=True)
    qa = orbit.gaps_squared()
    thresh = math.cosh(2.0 * radius)
    for start in range(0, n - 1, chunk):
        stop = min(start + chunk, n - 1)
        block = pts[start:stop]  # rows i, compared against columns j > start
        diff = block[:, None, :] - pts[None, start + 1:, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        carg = 1.0 + 2.0 * sq / (qa[start:stop, None] * qa[None, start + 1:])
        cols = np.arange(start + 1, n)[None, :]
        rows = np.arange(start, stop)[:, None]
        bad = (carg <= thresh) & (cols > rows)
        if np.any(bad):
            i_loc, j_loc = np.argwhere(bad)[0]
            return PackingCheck(
                ok=False,
                pair=(start + int(i_loc), start + 1 + int(j_loc)),
                distance=float(np.arccosh(max(carg[i_loc, j_loc], 1.0))),
            )
    return PackingCheck(ok=True)
