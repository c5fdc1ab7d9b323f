"""Limit-set samples, neighborhood volumes, and box-dimension estimates.

Volumes are measured on the dyadic grid anchored at the origin: a cell of
side r counts when its center lies within radius + (sqrt(n)/2) * r of some
sample point, a conservative proxy for "closed cell intersects the closed
neighborhood".  volume = cell_count * r^n throughout.  The count is exact
for that rule; a cheap sub-cell prefilter only chooses which cells need
the exact nearest-point query.

Samples record witnesses as group-ball rows; the words are spelled only
where they are printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

from .errors import InternalError, ResolutionError, UsageError
from .geometry import MapClass, boundary_images, classify, fixed_points
from .group import GroupElement

_LN2 = math.log(2.0)
_ROUND_TOL = 1e-9   # sample points in one rounding cell of this side are one point
_MESH_COUNT = 32    # boundary mesh points per ball in the containment check
_SUBCELL_BITS = 4   # the grid count's prefilter sub-cells have side cell / 2^4
K_RANGE = (3, 9)    # dyadic scales 2^-k of the box-dimension fit

SOURCE_CONJUGATE = "conjugate_fixed_points"
SOURCE_DEEP_ORBIT = "deep_orbit_projection"
SOURCE_SYNTHETIC = "synthetic_test_set"


@dataclass
class LimitSample:
    """A finite sample of sphere points with one witness per point.

    The witness of an orbit sample point is the group-ball row of the element
    that produced it (`GroupBall.words` spells it); synthetic samples carry
    label words.
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
    m = h.map if isinstance(h, GroupElement) else h
    if classify(m) is not MapClass.LOXODROMIC:
        raise UsageError("sampling needs a loxodromic element")
    images = [boundary_images(orbit.ball.entries, fp.coords) for fp in fixed_points(m)]
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

    Most candidates are decided by the first point of each sub-cell of side
    s = cell/2^_SUBCELL_BITS, which lies within s*sqrt(n) of every point of
    its sub-cell: a representative within reach is a point within reach, and
    one beyond (reach + s*sqrt(n))(1 + 1e-9) rules out every point.  Only the
    centers in between run the exact test on the sample's KD-tree.
    """
    points = sample.points
    n = points.shape[1]
    reach = radius + 0.5 * math.sqrt(n) * cell
    sub = cell / (1 << _SUBCELL_BITS)
    keys = np.floor(points / sub).astype(np.int64)
    order, ordered, starts = _sorted_runs(keys, n)
    # floor(p/cell) == floor(p/sub) >> _SUBCELL_BITS exactly: the occupied cells
    cells = ordered[starts] >> _SUBCELL_BITS
    h = int(math.floor(reach / cell + 0.5))
    for _ in range(n):
        cells = np.roll(_dilate_last_axis(cells, h), 1, axis=1)
    centers = (cells + 0.5) * cell
    # the bounds are strict: centers with no point below them get inf
    outer = (reach + sub * math.sqrt(n)) * (1.0 + 1e-9)
    near, _ = cKDTree(points[order[starts]]).query(centers, k=1, distance_upper_bound=outer)
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


@dataclass
class BoxDimensionEstimate:
    """Box dimension from a least-squares fit of log counts across scales."""

    dim_est: float
    per_scale_slopes: list  # (k, local slope between scales k and k+1)
    records: list           # one DyadicScaleRecord per k in the fit window
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
    k*log 2, clamped to [0, n]; the minimum local slope rides along in
    per_scale_slopes as a liminf proxy.
    """
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if not (1 <= k_min < k_max <= 24 and k_max - k_min >= 3):
        raise UsageError(f"need 1 <= k_min < k_max <= 24 spanning >= 3, got {k_range}")
    spacing = None
    if len(sample) > 1:
        d2, _ = sample.tree.query(sample.points, k=2)
        spacing = float(d2[:, 1].max())
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
    fit = stats.linregress(ks * _LN2, logs)
    slope = float(fit.slope)
    n = sample.model
    dim = min(max(slope, 0.0), float(n))
    if dim != slope:
        note_bits.append(f"raw slope {slope:.4f} clamped to [0, {n}]")
    local = [
        (int(ks[i]), float((logs[i + 1] - logs[i]) / _LN2))
        for i in range(len(records) - 1)
    ]
    min_local = min(v for _, v in local)
    note_bits.insert(0, f"least-squares over k in [{k_min}, {k_max}]; min local slope {min_local:.4f}")
    return BoxDimensionEstimate(
        dim_est=dim,
        per_scale_slopes=local,
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


@dataclass
class VolumeRatioReport:
    """Euclidean ball volumes against radial gaps, elementwise.

    ratio = volume(B(g z, radius)) / (1 - |g z|)^n; the spread between
    min_ratio and max_ratio measures how sharply the gap stands in for the
    ball volume across the whole orbit.
    """

    radius: float
    word_lengths: np.ndarray
    radial_gaps: np.ndarray
    ball_diameters: np.ndarray
    ball_volumes: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    max_ratio: float

    def rows(self):
        return list(zip(
            self.word_lengths.tolist(),
            self.radial_gaps.tolist(),
            self.ball_diameters.tolist(),
            self.ball_volumes.tolist(),
            self.ratios.tolist(),
        ))


def volume_ratio_report(orbit, radius):
    """Compare each orbit ball's Euclidean volume with its radial gap power."""
    if radius <= 0.0:
        raise UsageError("ball radius must be positive")
    centers, radii = euclidean_balls(orbit.points, radius, gaps=orbit.gaps)
    vols = ball_volumes(radii, orbit.model)
    ratios = vols / orbit.gaps ** orbit.model
    return VolumeRatioReport(
        radius=radius,
        word_lengths=orbit.word_lengths.copy(),
        radial_gaps=orbit.gaps.copy(),
        ball_diameters=2.0 * radii,
        ball_volumes=vols,
        ratios=ratios,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
    )


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

    records: list   # (k, max_distance, c_k) for nonempty shells
    c_hat: float
    skipped_shells: list
    radius: float

    def c_values(self):
        return [c for _, _, c in self.records]


def ball_containment_check(orbit, radius, sample, k_max=12):
    """Measure shell-normalized distances from ball boundaries to the sample."""
    if sample.model != orbit.model:
        raise UsageError("sample and orbit models differ")
    k_max = int(k_max)
    if k_max < 1:
        raise UsageError("k_max must be at least 1")
    mesh = _sphere_mesh(orbit.model)
    records = []
    skipped = []
    for k in range(1, k_max + 1):
        idx = np.nonzero(orbit.shells == k)[0]
        if idx.size == 0:
            skipped.append(k)
            continue
        centers, radii = euclidean_balls(orbit.points[idx], radius, gaps=orbit.gaps[idx])
        pts = centers[:, None, :] + radii[:, None, None] * mesh[None, :, :]
        dist, _ = sample.tree.query(pts.reshape(-1, orbit.model), k=1)
        worst = float(dist.max())
        records.append((k, worst, worst / (2.0 ** -k)))
    if not records:
        raise UsageError(f"no orbit elements in shells 1..{k_max}")
    return BallContainmentReport(
        records=records,
        c_hat=max(c for _, _, c in records),
        skipped_shells=skipped,
        radius=radius,
    )
