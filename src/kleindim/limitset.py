"""Limit-set samples, neighborhood volumes, and box-dimension estimates.

Volumes are measured on the dyadic grid anchored at the origin: a cell of
side r counts when its center lies within radius + (sqrt(n)/2) * r of some
sample point, a conservative proxy for "closed cell intersects the closed
neighborhood".  volume = cell_count * r^n throughout.  The count is exact
for that rule; a cheap sub-cell prefilter only chooses which cells need
the exact nearest-point query.

Every sample sorts its points once, into a dyadic index built on first
use.  Its keys floor((p + 2) * 2^28) resolve the sub-cells of the finest
scale 2^-24, and it orders them along the Z curve, so the points of one
cell are consecutive at every scale.  The parting level of two neighboring
rows is the bit length of the OR over axes of their keys' XOR; after a
shift s they lie in different cells exactly when it exceeds s.  Every grid
count reads its occupied cells and sub-cells from the parting levels, and
the spacing check queries only the points alone in their cell.

Samples record witnesses as group-ball rows; the words are spelled only
where they are printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import InternalError, ResolutionError, UsageError
from .geometry import MapClass, boundary_images, classify, fixed_points

_LN2 = math.log(2.0)
_ROUND_TOL = 1e-9   # sample points in one rounding cell of this side are one point
_MESH_COUNT = 32    # boundary mesh points per ball in the containment check
_SUBCELL_BITS = 4   # the grid count's prefilter sub-cells have side cell / 2^4
_INDEX_BITS = 24 + _SUBCELL_BITS  # index keys resolve the sub-cells of scale 2^-24
# coordinates lie in [-1 - 1e-9, 1 + 1e-9], so the index keys
# floor((p + 2) * 2^_INDEX_BITS) are positive and below 2^_KEY_BITS
_KEY_BITS = _INDEX_BITS + 2
K_RANGE = (3, 9)    # dyadic scales 2^-k of the box-dimension fit

SOURCE_CONJUGATE = "conjugate_fixed_points"
SOURCE_DEEP_ORBIT = "deep_orbit_projection"
SOURCE_SYNTHETIC = "synthetic_test_set"


@dataclass
class LimitSample:
    """A finite sample of sphere points with one witness per point.

    The witness of an orbit sample point is the group-ball row of the element
    that produced it, whose word the ball's parent pointers spell; synthetic
    samples carry label words.  Two structures are built on first use and
    shared by every stage: `tree`, the KD-tree of the points, and
    `dyadic_index`, the one sort of the points that every grid count and the
    spacing check read.
    """

    points: np.ndarray   # (N, n) unit rows
    witnesses: np.ndarray | list  # (N,) ball rows, or one label word per point
    source: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3) or pts.shape[0] == 0:
            raise UsageError("sample needs a nonempty (N, 2) or (N, 3) point array")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise UsageError("sample points must be unit norm within 1e-9")
        if len(self.witnesses) != pts.shape[0]:
            raise UsageError("one witness per sample point")
        self.points = pts

    @property
    def model(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    @cached_property
    def tree(self):
        """KD-tree of the points, built on first use and shared by every stage."""
        return cKDTree(self.points)

    @cached_property
    def dyadic_index(self):
        """The points sorted once for every dyadic grid (see DyadicIndex)."""
        keys = np.floor(self.points * 2.0 ** _INDEX_BITS).astype(np.int64) + (2 << _INDEX_BITS)
        order = _z_order(keys)
        keys = np.take(keys, order, axis=0)
        parting = np.full(len(keys), _KEY_BITS)
        xor = np.zeros(len(keys) - 1, dtype=np.int64)
        for axis in keys.T:
            xor |= axis[1:] ^ axis[:-1]
        # xor < 2^_KEY_BITS < 2^53, so frexp's exponent is its exact bit length
        parting[1:] = np.frexp(xor.astype(float))[1]
        return DyadicIndex(order=order, keys=keys, parting=parting)


class DyadicIndex(NamedTuple):
    """A sample's points in one sort that holds every dyadic grid down to 2^-24.

    Row i is sample point order[i], with integer key keys[i] = floor((p + 2) *
    2^F) per axis, F = _INDEX_BITS; keys >> s is then floor(p * 2^(F - s)) +
    2^(F + 1 - s), the cell of side 2^(s - F) shifted by an exact offset.  The
    rows follow the Z curve, so each such cell is a run of rows.
    parting[i] is the bit length of the OR over axes of keys[i - 1] ^
    keys[i] (_KEY_BITS for row 0): rows i - 1 and i lie in different cells
    after a shift s exactly when parting[i] > s.
    """

    order: np.ndarray    # (N,) sample rows in Z order
    keys: np.ndarray     # (N, n) non-negative keys, in that order
    parting: np.ndarray  # (N,) parting level of each row and the row before


def _z_order(keys):
    """Row order of non-negative integer rows below 2^_KEY_BITS along the Z curve.

    Each row's code interleaves the bits of its axes from the top, one bit of
    every axis per level, so sorting the codes keeps the rows of each cell of
    keys >> s together for every s.  A code is cut into uint64 words of 8 // n
    key bytes each, spread through a byte table, and np.lexsort sorts the
    words with the highest last.
    """
    n = keys.shape[1]
    byte = np.arange(256, dtype=np.uint64)
    spread = np.zeros(256, dtype=np.uint64)
    for b in range(8):
        spread |= ((byte >> np.uint64(b)) & np.uint64(1)) << np.uint64(n * b)
    step = 8 * (8 // n)  # key bits per word
    words = []
    for low in range(0, _KEY_BITS, step):
        word = np.zeros(len(keys), dtype=np.uint64)
        for b in range(low, low + step, 8):
            for axis in range(n):
                at = np.uint64(n * (b - low) + n - 1 - axis)
                word |= spread[(keys[:, axis] >> b) & 255] << at
        words.append(word)
    return np.lexsort(words)


def _sorted_runs(rows, width):
    """Stable lexicographic sort of integer rows, the first column most significant.

    Returns (order, ordered, starts): ordered = rows[order], and starts marks
    the ordered rows whose first `width` columns differ from the row before.
    Equal rows keep their input order, so each run starts at its first occurrence.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ordered[1:, :width] != ordered[:-1, :width]).any(axis=1)
    return order, ordered, starts


def _first_unique(points):
    """Indices of the first point of each _ROUND_TOL rounding cell, ascending."""
    keys = np.round(points / _ROUND_TOL).astype(np.int64)
    order, _, starts = _sorted_runs(keys, keys.shape[1])
    return np.sort(order[starts])


def sample_limit_set(orbit, h):
    """Orbit images of a loxodromic element's fixed points.

    Applies every enumerated element to both fixed points of h and
    deduplicates at 1e-9.  The witness of a sample point is the ball row of
    the first element that produced it.
    """
    if classify(h) is not MapClass.LOXODROMIC:
        raise UsageError("sampling needs a loxodromic element")
    images = [boundary_images(orbit.ball.entries, fp.coords) for fp in fixed_points(h)]
    # interleave: rows 2i and 2i + 1 are element i's images of p+ and p-
    points = np.stack(images, axis=1).reshape(-1, orbit.model)
    keep = _first_unique(points)
    return LimitSample(points=points[keep], witnesses=keep // 2, source=SOURCE_CONJUGATE)


def deep_orbit_sample(orbit):
    """Radial projections of the orbit points of the final word length, a cross-check."""
    deep = np.flatnonzero(orbit.word_lengths == orbit.max_word_length)
    if deep.size == 0:
        raise UsageError(f"no orbit elements at word length {orbit.max_word_length}")
    pts = orbit.points[deep]
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms < 1e-12):
        raise UsageError("orbit point at the ball center has no radial projection")
    pts = pts / norms[:, None]
    keep = _first_unique(pts)
    return LimitSample(points=pts[keep], witnesses=deep[keep], source=SOURCE_DEEP_ORBIT)


@dataclass
class DyadicScaleRecord:
    """Grid measurement of one neighborhood volume at scale r = 2^-k."""

    k: int
    r: float
    cell_count: int
    volume: float


def _dilate_last_axis(cells, h):
    """Integer rows within h steps along the last axis of some row of `cells`, each once.

    Sorted with the last axis least significant, the rows of one line (equal
    leading columns) come in order of their last entry; stencils [v - h, v + h]
    that overlap or touch merge into one interval, written out cell by cell.
    """
    _, ordered, start = _sorted_runs(cells, cells.shape[1] - 1)
    start[1:] |= np.diff(ordered[:, -1]) > 2 * h + 1
    first = np.flatnonzero(start)
    last = np.append(first[1:], ordered.shape[0]) - 1
    lo = ordered[first, -1] - h
    lengths = ordered[last, -1] + h + 1 - lo
    ends = np.cumsum(lengths)
    out = np.repeat(ordered[first], lengths, axis=0)
    out[:, -1] = np.arange(ends[-1]) + np.repeat(lo - (ends - lengths), lengths)
    return out


def _grid_cell_count(sample, radius, cell):
    """Count origin-anchored grid cells near the sample's points.

    A cell of side `cell` with index vector i covers [i*cell, (i+1)*cell)
    per axis; it counts when its center is within reach = radius +
    (sqrt(n)/2)*cell of some point.  `cell` is a power of two, so cell
    indices and centers are exact, and a point in cell c reaches only the
    centers of cells with |i - c| <= reach/cell + 1/2 on every axis: the
    candidates are the cells within h = floor(reach/cell + 1/2) index steps
    of an occupied cell.  That box is separable, so it grows one axis at a
    time: each pass dilates the last column and rolls it to the front, which
    restores the column order after n passes.

    The occupied cells, and the sub-cells of side s = cell/2^_SUBCELL_BITS,
    are the runs of the sample's dyadic index at their shift; no point is
    sorted again.  Most candidates are decided by each sub-cell's first
    point in index order, which lies within s*sqrt(n) of every point of its
    sub-cell: a representative within reach is a point within reach, and
    one beyond (reach + s*sqrt(n))(1 + 1e-9) rules out every point.  Only the
    centers in between run the exact test on the sample's KD-tree, so which
    point represents a sub-cell moves no count.
    """
    points = sample.points
    index = sample.dyadic_index
    n = points.shape[1]
    k = 1 - math.frexp(cell)[1]  # cell = 2^-k
    shift = _INDEX_BITS - k
    reach = radius + 0.5 * math.sqrt(n) * cell
    sub = cell / (1 << _SUBCELL_BITS)
    reps = index.order[index.parting > shift - _SUBCELL_BITS]
    # keys >> shift = floor(p/cell) + 2^(k + 1) exactly: the occupied cells
    cells = (index.keys[index.parting > shift] >> shift) - (2 << k)
    h = int(math.floor(reach / cell + 0.5))
    for _ in range(n):
        cells = np.roll(_dilate_last_axis(cells, h), 1, axis=1)
    centers = (cells + 0.5) * cell
    # the bounds are strict: centers with no point below them get inf
    outer = (reach + sub * math.sqrt(n)) * (1.0 + 1e-9)
    near, _ = cKDTree(points[reps]).query(centers, k=1, distance_upper_bound=outer)
    inside = near <= reach
    band = ~inside & np.isfinite(near)
    dist, _ = sample.tree.query(centers[band], k=1, distance_upper_bound=np.nextafter(reach, np.inf))
    return int(np.count_nonzero(inside)) + int(np.count_nonzero(dist <= reach))


def neighborhood_volume(sample, r, radius=None):
    """Grid volume of a closed neighborhood of the sample at cell size r = 2^-k.

    The neighborhood radius defaults to r itself (the box-counting case);
    passing `radius` measures a fatter or thinner neighborhood on the same
    grid.  Returns a DyadicScaleRecord; volume = cell_count * r^n exactly.
    """
    r = float(r)
    m, e = math.frexp(r)
    if m != 0.5 or not 1 <= 1 - e <= 24:
        raise UsageError(f"scale must be 2^-k with 1 <= k <= 24, got {r:.6g}")
    radius = r if radius is None else float(radius)
    if radius <= 0.0:
        raise UsageError("neighborhood radius must be positive")
    k = 1 - e
    n = sample.model
    count = _grid_cell_count(sample, radius, r)
    if count > (2.0 * (1.0 + radius) / r + 2.0) ** n:
        raise InternalError("cell count exceeds the bounding box; sample off the sphere?")
    return DyadicScaleRecord(k=k, r=r, cell_count=count, volume=count * r ** n)


def _linear_fit(x, y):
    """Least-squares line through (x, y), n >= 3: (slope, intercept, r, slope stderr).

    The formulas of scipy.stats.linregress, so the four values are the same bit
    for bit, without importing scipy.stats.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0.0 else 0.0
    else:
        r = min(max(ssxym / math.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    stderr = math.sqrt((1 - r ** 2) * ssym / ssxm / (x.size - 2))
    return slope, y.mean() - slope * x.mean(), r, stderr


@dataclass
class BoxDimensionEstimate:
    """Box dimension from a least-squares fit of log counts across scales."""

    dim_est: float
    local_slopes: np.ndarray  # (len(records) - 1,) slope from records[i] to records[i + 1]
    records: list             # one DyadicScaleRecord per k in the fit window
    fit_window: tuple
    method_note: str


def box_dimension_estimate(sample, k_range=K_RANGE, require_resolved=False):
    """Upper box dimension of the sample across dyadic scales.

    Parameters
    ----------
    sample : LimitSample
    k_range : inclusive (k_min, k_max) with k_max - k_min >= 3.
    require_resolved : raise ResolutionError when the sample's largest
        nearest-neighbor spacing exceeds the smallest scale (off by
        default: genuinely finite sets are legitimately 0-dimensional).

    The estimate is the least-squares slope of log cell_count against
    k*log 2, clamped to [0, n]; the local slopes between neighboring scales
    ride along, and their minimum, a liminf proxy, is quoted in the note.

    The spacing check queries only the points alone in their cell of side
    2^-(k_max+1) in the dyadic index.  Any other point has a neighbor within
    2^-(k_max+1)*sqrt(n) < 2^-k_max, so it cannot carry a spacing above
    2^-k_max, and the note and the error are those of the full query.
    """
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if not (1 <= k_min < k_max <= 24 and k_max - k_min >= 3):
        raise UsageError(f"need 1 <= k_min < k_max <= 24 spanning >= 3, got {k_range}")
    spacing = None
    if len(sample) > 1:
        index = sample.dyadic_index
        starts = index.parting > _INDEX_BITS - k_max - 1  # cells of side 2^-(k_max+1)
        alone = index.order[starts & np.append(starts[1:], True)]
        d2, _ = sample.tree.query(sample.points[alone], k=2)
        spacing = float(d2[:, 1].max(initial=0.0))
    note_bits = []
    if spacing is not None and spacing > 2.0 ** -k_max:
        msg = (
            f"nearest-neighbor spacing {spacing:.3g} exceeds scale 2^-{k_max}; "
            "sample may under-resolve, enumerate deeper"
        )
        if require_resolved:
            raise ResolutionError(msg)
        note_bits.append(msg)
    records = [neighborhood_volume(sample, 2.0 ** -k) for k in range(k_min, k_max + 1)]
    ks = np.arange(k_min, k_max + 1, dtype=float)
    logs = np.log([rec.cell_count for rec in records])
    slope = float(_linear_fit(ks * _LN2, logs)[0])
    n = sample.model
    dim = min(max(slope, 0.0), float(n))
    if dim != slope:
        note_bits.append(f"raw slope {slope:.4f} clamped to [0, {n}]")
    local = np.diff(logs) / _LN2
    note_bits.insert(0, f"least-squares over k in [{k_min}, {k_max}]; "
                        f"min local slope {local.min():.4f}")
    return BoxDimensionEstimate(
        dim_est=dim,
        local_slopes=local,
        records=records,
        fit_window=(k_min, k_max),
        method_note="; ".join(note_bits),
    )


# ---------------------------------------------------------------------------
# Euclidean realizations of hyperbolic balls about orbit points.


def euclidean_balls(points, radius, gaps):
    """Centers and Euclidean radii of hyperbolic balls B(w, radius).

    The two diametral points along the radial geodesic through w realize a
    Euclidean diameter of the ball (the realization is a round ball whose
    center sits on that radius by symmetry).  `gaps` are the stable radial
    gaps 1-|w|, which keep deep balls accurate where recomputing 1-|w| from
    the coordinates would cancel.

    Returns (centers (N, n), radii (N,)).
    """
    points = np.asarray(points, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    norms = 1.0 - gaps
    d0 = np.log((2.0 - gaps) / gaps)  # distance to the ball center
    t_far = np.tanh(0.5 * (d0 + radius))
    t_near = np.tanh(0.5 * (d0 - radius))
    units = np.zeros_like(points)
    nz = norms > 1e-15
    units[nz] = points[nz] / norms[nz, None]
    units[~nz, 0] = 1.0  # any direction works at the center
    centers = units * (0.5 * (t_far + t_near))[:, None]
    radii = 0.5 * (t_far - t_near)
    return centers, radii


def ball_volumes(radii, n):
    radii = np.asarray(radii, dtype=float)
    if n == 2:
        return math.pi * radii ** 2
    return (4.0 / 3.0) * math.pi * radii ** 3


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


@dataclass
class BallContainmentReport:
    """How far orbit-ball boundaries stray from the limit-set sample.

    For shell k the worst Euclidean distance from any mesh point of any
    shell-k ball boundary to the sample, normalized by 2^-k, gives c_k; a
    flat c_k across shells witnesses that the balls hug the limit set at
    their own scale.  c_hat is the max over computed shells.
    """

    shells: np.ndarray         # (m,) nonempty shells k, ascending
    max_distances: np.ndarray  # (m,) worst distance of each shell
    c: np.ndarray              # (m,) c_k = max_distance / 2^-k
    c_hat: float
    skipped_shells: list
    radius: float


def ball_containment_check(orbit, radius, sample, k_max=12):
    """Measure shell-normalized distances from ball boundaries to the sample.

    The worst distance of a shell is the exact maximum over every mesh point
    of its balls, found without querying every mesh.  A mesh point of ball i
    lies within its Euclidean radius rho_i of the center, whose distance to
    the sample d_i is one query, so U_i = (d_i + rho_i)(1 + 1e-9) + 1e-15
    bounds the computed distance of each of its mesh points; the margins
    cover the rounding of forming and querying points of the closed unit
    ball.  Meshes are queried in decreasing U_i, in doubling batches, until
    the running maximum reaches the next U_i: no later mesh can exceed it.
    """
    if sample.model != orbit.model:
        raise UsageError("sample and orbit models differ")
    k_max = int(k_max)
    if k_max < 1:
        raise UsageError("k_max must be at least 1")
    mesh = _sphere_mesh(orbit.model)
    shells, worsts, skipped = [], [], []
    for k in range(1, k_max + 1):
        idx = np.nonzero(orbit.shells == k)[0]
        if idx.size == 0:
            skipped.append(k)
            continue
        centers, radii = euclidean_balls(orbit.points[idx], radius, gaps=orbit.gaps[idx])
        center_dist, _ = sample.tree.query(centers, k=1)
        bound = (center_dist + radii) * (1.0 + 1e-9) + 1e-15
        order = np.argsort(-bound)
        worst, done, batch = -math.inf, 0, 1
        while done < order.size and worst < bound[order[done]]:
            i = order[done:done + batch]
            pts = centers[i, None, :] + radii[i, None, None] * mesh[None, :, :]
            dist, _ = sample.tree.query(pts.reshape(-1, orbit.model), k=1)
            worst = max(worst, float(dist.max()))
            done, batch = done + batch, 2 * batch
        shells.append(k)
        worsts.append(worst)
    if not shells:
        raise UsageError(f"no orbit elements in shells 1..{k_max}")
    c = np.ldexp(worsts, shells)  # worst / 2^-k, exactly
    return BallContainmentReport(
        shells=np.array(shells),
        max_distances=np.array(worsts),
        c=c,
        c_hat=float(c.max()),
        skipped_shells=skipped,
        radius=radius,
    )
