"""Reference implementations the fast kernels are tested against.

These are the straightforward algorithms the library's pruned kernels
replace: a full-stencil grid counter, the full nearest-neighbor query
that counts the isolated points, the pairwise dedup scan, the lexsort
sample dedup, the per-level concatenating ball build with its full-row
sign canonicalization, the exhaustive pairwise packing scan, and the
containment bound from every ball center against every sample point
(`nearest_distances`, no tree).
Apart from the containment bound, which maps its balls with the library's
own `euclidean_balls`, and the ball build, which deduplicates with the
library's `_fresh` (itself checked against the pairwise scan), they share
no code with the library versions, and all must agree with them exactly.
`containment_mesh` is the older, sampled containment definition, 32 mesh
points per ball boundary, which the certified bound must never undercut.

`apply_boundary` maps one boundary point by one map, a scalar oracle for
the geometry tests.

`jorgensen_lhs` is the left side of Jørgensen's inequality from the raw
product A B A^-1 B^-1, which the presentation's check, read from the Fricke
identity, must agree with.

`deep_orbit_sample` is a second limit-set sample, the radial projections of
the deepest orbit points, deduplicated by the library's `_first_unique`;
the conjugate sample's box dimension is cross-checked against its own.

The CLI's tables have oracles too: `ball_words` rebuilds every word of a
group ball from its parent pointers, `word_to_str` spells one word at a
time, and `csv_bytes` formats a table cell by cell.  None imports from
`kleindim.cli`, whose writer must reproduce them byte for byte.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from kleindim import (
    BallContainmentReport,
    BoundaryPoint,
    GroupBall,
    LimitSample,
    PackingCheck,
    UsageError,
    euclidean_balls,
    inverse,
)
from kleindim.errors import ModelMismatchError
from kleindim.geometry import boundary_images
from kleindim.group import DEDUP_TOL, _fresh
from kleindim.limitset import _first_unique

_STENCIL_ROWS = 1 << 16  # candidate cells the stencil oracle holds per slab, roughly
_PAIR_ROWS = 1 << 22  # query-point pairs `nearest_distances` holds at once, roughly
_MESH_COUNT = 32  # boundary mesh points per ball of `containment_mesh`
SOURCE_DEEP_ORBIT = "deep_orbit_projection"


def grid_cell_count_stencil(points, radius, cell):
    """Cells whose center is within radius + (sqrt(n)/2)*cell of a point.

    Candidates: every occupied base cell plus the full (2h+1)^n box of
    offsets, deduplicated by a lexsort; exact test on a KD-tree.  The
    candidates go through in slabs of consecutive first indices, each made
    from about _STENCIL_ROWS / (2h+1)^n base cells: a slab's candidates are
    those with first index in its range, built from every base cell within
    h of it, so no cell is in two slabs and one slab is held at a time.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    reach = radius + 0.5 * math.sqrt(n) * cell
    base = np.unique(np.floor(points / cell).astype(np.int64), axis=0)  # sorted by first index
    h = int(math.ceil(reach / cell)) + 1
    steps = np.arange(-h, h + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[steps] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1)
    first = base[:, 0]
    chunk = max(1, _STENCIL_ROWS // (steps.size * len(rest)))
    tree = cKDTree(points)
    count, start = 0, 0
    while start < len(base):
        # end on a change of first index, so the slab ranges tile the axis
        stop = int(np.searchsorted(first, first[min(start + chunk, len(base)) - 1], side="right"))
        lo = first[start] - h
        hi = first[stop] - h if stop < len(base) else first[-1] + h + 1
        parts = []
        for dx in steps:
            near = base[np.searchsorted(first, lo - dx):np.searchsorted(first, hi - dx)]
            cand = np.empty((len(near), len(rest), n), dtype=np.int64)
            cand[:, :, 0] = near[:, None, 0] + dx
            cand[:, :, 1:] = near[:, None, 1:] + rest
            parts.append(cand.reshape(-1, n))
        cand = np.concatenate(parts)
        cand = cand[np.lexsort(cand.T)]
        cand = cand[np.r_[True, (cand[1:] != cand[:-1]).any(axis=1)]]
        dist, _ = tree.query((cand + 0.5) * cell, k=1)
        count += int(np.count_nonzero(dist <= reach))
        start = stop
    return count


def isolated_count(points, k_max):
    """Points farther than 2^-k_max from every other point: k = 2 on a fresh tree."""
    points = np.asarray(points, dtype=float)
    dist, _ = cKDTree(points).query(points, k=2)
    return int(np.count_nonzero(dist[:, 1] > 2.0 ** -k_max))


def fresh_pairwise(kept, candidates):
    """Greedy first-occurrence dedup by a scan of every earlier row.

    A candidate is dropped when some kept or earlier surviving row lies
    within DEDUP_TOL of it in every entry's complex modulus.
    """
    rows = np.concatenate([kept, candidates])
    fresh = np.ones(rows.shape[0], dtype=bool)
    for j in range(kept.shape[0], rows.shape[0]):
        earlier = rows[:j][fresh[:j]]
        fresh[j] = not np.any(np.abs(earlier - rows[j]).max(axis=1) <= DEDUP_TOL)
    return fresh[kept.shape[0]:]


def first_unique_np(points, tol=1e-9):
    """First index of each 1e-9 rounding cell, ascending, via np.unique."""
    keys = np.round(points / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.sort(first)


def first_unique_lexsort(points, tol=1e-9):
    """First index of each 1e-9 rounding cell, ascending: a stable lexsort over every axis."""
    keys = np.round(points / tol).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[starts])


def canonical_entries_reference(entries, model):
    """Sign-canonical copies of rows (a, b, c, d), each row searched for its first nonzero entry."""
    e = np.array(entries, dtype=complex).reshape(-1, 4)
    big = np.abs(e) > 1e-12
    if not np.all(big.any(axis=1)):
        raise ValueError("zero matrix cannot be canonicalized")
    lead = e[np.arange(e.shape[0]), big.argmax(axis=1)]
    flip = (lead.real < -1e-12) | ((np.abs(lead.real) <= 1e-12) & (lead.imag < 0.0))
    e[flip] = -e[flip]
    if model == 2:
        a, b, c, d = e.T
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        if np.any((np.abs(c - np.conj(b)) > tol) | (np.abs(d - np.conj(a)) > tol)):
            raise ValueError("planar map is not disc preserving")
    return e


def stacked_products(left, right):
    """Rows (a, b, c, d) of the products left_i . right_i, unnormalized and uncanonicalized."""
    la, lb, lc, ld = left.T
    ra, rb, rc, rd = right.T
    return np.stack([la * ra + lb * rc, la * rb + lb * rd,
                     lc * ra + ld * rc, lc * rb + ld * rd], axis=1)


def apply_boundary(g, x):
    """The image of one boundary point under one map, on the unit sphere."""
    if x.model != g.model:
        raise ModelMismatchError(f"point model {x.model} does not match map model {g.model}")
    return BoundaryPoint(boundary_images(g.matrix().reshape(1, 4), x.coords)[0])


def jorgensen_lhs(ga, gb):
    """|tr^2 A - 4| + |tr[A, B] - 2| from the raw matrix product A B A^-1 B^-1.

    The inverses are the adjugates of the stored unit-determinant matrices;
    nothing is canonicalized, so tr[A, B] keeps its sign.
    """
    a, b = ga.matrix(), gb.matrix()
    a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    b_inv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
    tr_a = np.trace(a)
    return float(abs(tr_a * tr_a - 4.0) + abs(np.trace(a @ b @ a_inv @ b_inv) - 2.0))


def build_ball_reference(presentation, max_word_length):
    """The group ball built level by level, every array grown by concatenation.

    Each level's children are gathered from all kept entries, multiplied
    entry by entry and canonicalized by `canonical_entries_reference` on the
    stacked products; dedup is the library's `_fresh`.
    """
    rank = len(presentation.generators)
    alphabet = np.array([sign * i for i in range(1, rank + 1) for sign in (1, -1)])
    generators = np.array([[m.a, m.b, m.c, m.d]
                           for g in presentation.generators for m in (g, inverse(g))])
    entries = np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex)
    parents, letters, lengths = np.array([-1]), np.array([0]), np.array([0])
    frontier = np.array([0])
    for length in range(1, max_word_length + 1):
        parent = np.repeat(frontier, alphabet.size)
        k = np.tile(np.arange(alphabet.size), frontier.size)
        reduced = alphabet[k] != -letters[parent]
        parent, k = parent[reduced], k[reduced]
        products = stacked_products(entries[parent], generators[k])
        children = canonical_entries_reference(products, presentation.model)
        fresh = _fresh(entries, children)
        frontier = np.arange(entries.shape[0], entries.shape[0] + int(fresh.sum()))
        entries = np.concatenate([entries, children[fresh]])
        parents = np.concatenate([parents, parent[fresh]])
        letters = np.concatenate([letters, alphabet[k[fresh]]])
        lengths = np.concatenate([lengths, np.full(frontier.size, length)])
        if not frontier.size:
            break
    return GroupBall(presentation, entries, parents, letters, lengths, max_word_length)


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


def nearest_distances(queries, points):
    """Distance from each query row to its nearest row of points, by brute force.

    Every pair is measured as cKDTree.query measures it: squared coordinate
    differences summed in axis order, then sqrt (of the least, the same
    bits as the least sqrt).  The queries go in blocks of about _PAIR_ROWS
    pairs.
    """
    queries, points = np.asarray(queries, dtype=float), np.asarray(points, dtype=float)
    block = max(1, _PAIR_ROWS // len(points))
    least = np.empty(len(queries))
    for start in range(0, len(queries), block):
        q = queries[start:start + block]
        d2 = (q[:, None, 0] - points[None, :, 0]) ** 2
        for axis in range(1, points.shape[1]):
            d2 += (q[:, None, axis] - points[None, :, axis]) ** 2
        least[start:start + block] = d2.min(axis=1)
    return np.sqrt(least)


def _shelled_balls(orbit, radius, sample, k_max):
    """(k, centers, radii) of every nonempty shell 1..k_max, each from its own mask."""
    if sample.model != orbit.model:
        raise UsageError("sample and orbit models differ")
    k_max = int(k_max)
    if k_max < 1:
        raise UsageError("k_max must be at least 1")
    balls = []
    for k in range(1, k_max + 1):
        idx = np.nonzero(orbit.shells == k)[0]
        if idx.size:
            balls.append((k, *euclidean_balls(orbit.points[idx], radius, gaps=orbit.gaps[idx])))
    if not balls:
        raise UsageError(f"no orbit elements in shells 1..{k_max}")
    return balls


def _containment_report(shells, worsts, radii):
    c = np.ldexp(worsts, shells)
    return BallContainmentReport(shells=np.array(shells), c=c, c_hat=float(c.max()),
                                 radii=np.concatenate(radii))


def containment_exhaustive(orbit, radius, sample, k_max=12):
    """The certified containment bound, shell by shell, without a tree.

    Every ball center of a shell against every sample point
    (`nearest_distances`) gives d_i; U_i = (d_i + rho_i)(1 + 1e-9) + 1e-15
    with the check's margins, and c_k is the shell's largest U_i over 2^-k.
    """
    shells, worsts, shell_radii = [], [], []
    for k, centers, radii in _shelled_balls(orbit, radius, sample, k_max):
        bound = (nearest_distances(centers, sample.points) + radii) * (1.0 + 1e-9) + 1e-15
        shells.append(k)
        worsts.append(bound.max())
        shell_radii.append(radii)
    return _containment_report(shells, worsts, shell_radii)


def _sphere_mesh(n):
    """_MESH_COUNT deterministic mesh directions on the unit circle or sphere."""
    count = _MESH_COUNT
    if n == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))  # golden angle
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def containment_mesh(orbit, radius, sample, k_max=12):
    """The sampled containment definition: every mesh point of every ball boundary queried."""
    mesh = _sphere_mesh(orbit.model)
    tree = cKDTree(sample.points)
    shells, worsts, shell_radii = [], [], []
    for k, centers, radii in _shelled_balls(orbit, radius, sample, k_max):
        pts = centers[:, None, :] + radii[:, None, None] * mesh[None, :, :]
        dist, _ = tree.query(pts.reshape(-1, orbit.model), k=1)
        shells.append(k)
        worsts.append(dist.max())
        shell_radii.append(radii)
    return _containment_report(shells, worsts, shell_radii)


def deep_orbit_sample(orbit):
    """Radial projections of the orbit points of the final word length, a cross-check."""
    start, stop = orbit.ball.level_bounds(orbit.max_word_length)
    if start == stop:
        raise UsageError(f"no orbit elements at word length {orbit.max_word_length}")
    pts = orbit.points[start:stop]
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms < 1e-12):
        raise UsageError("orbit point at the ball center has no radial projection")
    pts = pts / norms[:, None]
    keep = _first_unique(pts)
    pts = pts[keep]
    pts.setflags(write=False)
    return LimitSample(points=pts, witnesses=start + keep, source=SOURCE_DEEP_ORBIT)



def ball_words(parents, letters):
    """Every word of a parent-pointer trie as a tuple of letters, row 0 the identity ()."""
    words = [()]
    for p, letter in zip(parents.tolist()[1:], letters.tolist()[1:]):
        words.append(words[p] + (letter,))
    return words


def word_to_str(word):
    """Compact word spelling: a..z generators, A..Z inverses, '1' identity.

    A word with any letter beyond +-26 is spelled as its letters joined by '.'.
    """
    if not word:
        return "1"
    if all(1 <= abs(letter) <= 26 for letter in word):
        return "".join(
            chr(ord("a") + letter - 1) if letter > 0 else chr(ord("A") - letter - 1)
            for letter in word
        )
    return ".".join(str(letter) for letter in word)


def csv_bytes(header, rows):
    """A CSV table cell by cell: floats at 9 significant digits, anything else as str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")
