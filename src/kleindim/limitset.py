"""Limit-set samples, neighborhood volumes, and box-dimension estimates.

Volumes are measured on the dyadic grid anchored at the origin: a cell of
side r counts when its center lies within radius + (sqrt(n)/2) * r of some
sample point, a conservative proxy for "closed cell intersects the closed
neighborhood".  volume = cell_count * r^n throughout.  The count is exact
for that rule.  It works on grid lines, the cells that agree in every
index but the last: within a radius of a point, a line's cell centers form
one interval, computed with one sqrt.  The intervals of one point per
sub-cell, merged per line, count most cells outright, and only a thin band
of cells is tested against the points of the sub-cells whose intervals
hold it: the cells within reach of the box of the sub-cell's own index
keys, widened by one key per side, that are not within reach of the point.
Every point of the sub-cell lies in that box, and a line whose two
intervals agree adds no band cell.
The lines go in passes of about 2^14 representative lines, split by
residue of their first index; each pass sorts its interval ends once,
keyed by each line's offset from the pass's least line, or by its rank
among the pass's lines where the offset key would overflow int64.

Every sample sorts its points once, into a dyadic index built on first
use.  Its keys floor((p + 2) * 2^26) resolve the sub-cells of the finest
scale 2^-24, and it orders them along the Z curve, so the points of one
cell are consecutive at every scale.  The parting level of two neighboring
rows is the bit length of the OR over axes of their keys' XOR; after a
shift s they lie in different cells exactly when it exceeds s.  Every grid
count reads its occupied cells and sub-cells from the parting levels, and
the spacing check reads the cells about each point alone in its cell.

The containment check bounds every point of a ball from its center alone:
a point p of the closed ball about c of Euclidean radius rho lies within
|p - c| + dist(c, sample) <= rho + dist(c, sample) of the sample, so one
nearest-point query per ball certifies the whole ball.

Samples record witnesses as group-ball rows, or label words as array rows;
the words are spelled only where they are printed.  `check_window` alone
checks a box-counting window, and `ShellRuns.window` the containment shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InternalError, UsageError
from .geometry import MapClass, boundary_images, check_radius, classify, fixed_points

_LN2 = math.log(2.0)
_ROUND_TOL = 1e-9   # sample points in one rounding cell of this side are one point
_SUBCELL_BITS = 2   # the grid count's representatives stand for sub-cells of side cell / 2^2
_SPAN_MARGIN = 1e-9  # relative margin of the grid count's inner and outer spans
_SPAN_ROWS = 1 << 14  # representative lines one pass of the grid count holds, roughly
_INDEX_BITS = 24 + _SUBCELL_BITS  # index keys resolve the sub-cells of scale 2^-24
# coordinates lie in [-1 - 1e-9, 1 + 1e-9], so the index keys
# floor((p + 2) * 2^_INDEX_BITS) are positive and below 2^_KEY_BITS
_KEY_BITS = _INDEX_BITS + 2
K_RANGE = (3, 9)    # dyadic scales 2^-k of the box-dimension fit

SOURCE_CONJUGATE = "conjugate_fixed_points"
SOURCE_SYNTHETIC = "synthetic_test_set"


@dataclass
class LimitSample:
    """A finite sample of sphere points with one witness per point.

    The witness of an orbit sample point is the group-ball row of the element
    that produced it, whose word the ball's parent pointers spell; synthetic
    samples carry label words.  One structure is built on first use and
    shared by every stage: `dyadic_index`, the one sort of the points that
    every grid count and the spacing check read.
    """

    points: np.ndarray     # (N, n) unit rows
    witnesses: np.ndarray  # (N,) ball rows, or (N, m) label words, one row per point
    source: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3) or pts.shape[0] == 0:
            raise UsageError("sample needs a nonempty (N, 2) or (N, 3) point array")
        norms = np.linalg.norm(pts, axis=1)
        if not np.isfinite(norms).all():
            raise UsageError("sample points must be finite")
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise UsageError("sample points must be unit norm within 1e-9")
        self.witnesses = np.asarray(self.witnesses)
        if len(self.witnesses) != pts.shape[0]:
            raise UsageError("one witness per sample point")
        self.points = pts

    @property
    def model(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

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


def _first_unique(points):
    """Indices of the first point of each _ROUND_TOL rounding cell, ascending.

    Sample points lie within 1e-9 of the unit sphere, so each rounded
    coordinate k has |k| < 2^31 and k0 * 2^32 + k1 is one injective int64 key
    for the first two; a third is sorted as a second key.  The least
    original index of each run of equal keys is its first occurrence.
    """
    keys = np.round(points / _ROUND_TOL).astype(np.int64)
    if not np.all(np.abs(keys) < 1 << 31):
        raise InternalError("sample point coordinates exceed the rounding key range")
    joint = keys[:, 0] * (1 << 32) + keys[:, 1]
    order = np.argsort(joint) if keys.shape[1] == 2 else np.lexsort((keys[:, 2], joint))
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in (joint, *keys.T[2:]):
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(starts)))


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
    points = points[keep]
    points.setflags(write=False)  # a sample of the held front is shared
    return LimitSample(points=points, witnesses=keep // 2, source=SOURCE_CONJUGATE)


@dataclass
class DyadicScaleRecord:
    """Grid measurement of one neighborhood volume at scale r = 2^-k."""

    k: int
    r: float
    cell_count: int
    volume: float


def _sum_squares(diff):
    """Squared norms of the rows of diff along its last axis, summed axis by axis
    in order, as cKDTree sums them; diff is squared in place."""
    diff *= diff
    d2 = diff[..., 0] + diff[..., 1]
    if diff.shape[-1] == 3:
        d2 += diff[..., 2]
    return d2


def _span(lo, hi, d2, r2):
    """Integer steps j with dist(j, [lo, hi])^2 <= r2 - d2, as int64 bounds (lo, hi).

    Empty when hi = lo - 1, never shorter, so lo and hi + 1 bound every span.
    """
    w = np.sqrt(np.maximum(r2 - d2, 0.0))
    return np.ceil(lo - w).astype(np.int64), np.floor(hi + w).astype(np.int64)


def _gap2(steps, lo, hi):
    """Squared distance from each step to [lo, hi], 0 inside."""
    gap = np.maximum(lo - steps, steps - hi)
    np.maximum(gap, 0.0, out=gap)
    return gap * gap


def _expand(lo, lengths, step):
    """(row, lo[row] + step*j) for j < lengths[row], row after row."""
    rows = np.repeat(np.arange(lengths.size), lengths)
    ends = np.cumsum(lengths)
    j = np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - lengths, lengths)
    return rows, lo[rows] + step * j


# steps of the coverage count outer + inner * 2^32 for the span event kinds
# outer start, inner start, inner end, outer end; at one position the starts
# sort first, so neither count dips below zero
_EVENT_STEPS = np.array([1, 1 << 32, -(1 << 32), -1], dtype=np.int64)


def _grid_cell_count(sample, radius, cell):
    """Count origin-anchored grid cells near the sample's points.

    A cell of side `cell` with index vector i covers [i*cell, (i+1)*cell)
    per axis; it counts when its center is within reach = radius +
    (sqrt(n)/2)*cell of some point, in the distance a KD-tree computes:
    squared coordinate differences summed in axis order, then sqrt.

    The points are represented by the first point, in index order, of each
    occupied sub-cell of side s = cell/2^_SUBCELL_BITS, a run of the
    sample's dyadic index.  A key kappa places a point in [kappa, kappa +
    1) * 2^-_INDEX_BITS - 2 per axis, so, with rho the representative's
    key, every point of the run lies within (min - rho - 1, max - rho + 1)
    keys of it per axis, min and max the run's extreme keys: in the run's
    key box widened by one key per side.  For a point alone in its sub-cell
    the box is the point itself.  A grid line is the set of cells that agree
    in every index but the last.  The cells of a line whose centers lie
    within a radius of a box form one interval, found with one sqrt: [lo -
    w, hi + w], with lo and hi the box's last-axis ends, w = sqrt(radius^2
    - g^2) and g the line's distance to the box over the leading axes.  The
    inner span takes reach*(1 - 1e-9) about the representative, the outer
    span reach*(1 + 1e-9) about the box, which holds the representative and
    so the inner span.  The lines within reach are spans themselves, one
    leading axis at a time.  One sort of the spans' end points per pass
    merges each line's spans: the cells of the inner union count outright,
    and only the cells of the outer union outside it, the band, are
    decided point by point (`_count_events`).  A row whose outer span
    equals its inner span, as nearly every row of a point alone does, adds
    no band cell and emits its inner span only.  Which point represents a
    sub-cell therefore moves no count, and a larger box would only test
    more cells.

    The spans are exact enough for the margins.  Cell indices are exact
    because cell is a power of two, and the arithmetic works in cell units
    relative to each representative's own cell: its offset from the cell
    center, p/cell - floor(p/cell) - 1/2, is within 2^-54 of the truth, a
    box end, the offset plus a key difference times 2^(k - _INDEX_BITS), is
    within an ulp of it, and every value has magnitude below reach/cell +
    2.  Each end point is therefore within about 1e-15 relative of the
    exact bound, against margins of 1e-9 relative.  A cell in an inner span has its center
    within reach*(1 - 1e-9)*(1 + 1e-15) of a point, whose computed distance
    exceeds the true one by less than 1e-15 relative (coordinate
    differences are exact or within an ulp of their own size), so the
    computed distance is within reach.  A cell in no outer span has its
    center beyond reach by nearly 1e-9 relative from every point of the box,
    which holds every point of the run, and no computed distance falls to
    reach.
    An absolute float index near 2^24 would have an ulp of 3.7e-9 cells,
    more than the margin of 1.7e-9 cells at k = 24 and radius = cell; no
    index is formed in floats here.

    The lines go in passes by their first index modulo `passes`, which
    splits no line and, when the lines spread over many first indices,
    bounds each pass to about _SPAN_ROWS = 2^14 representative lines.
    Lines crowded into a few first indices still share a pass: 40,000
    points within two cells of x = 1 at k = 24 put up to 30,202 lines into
    one.  Each pass keys its events by line offset and ranks its lines only
    where those keys would overflow int64 (`_line_events`).
    """
    index = sample.dyadic_index
    n = sample.model
    k = 1 - math.frexp(cell)[1]  # cell = 2^-k
    shift = _INDEX_BITS - k
    reach = radius + 0.5 * math.sqrt(n) * cell
    starts = index.parting > shift - _SUBCELL_BITS
    alone = (starts & np.append(starts[1:], True))[starts]
    runs = np.flatnonzero(starts)
    bounds = np.append(runs, starts.size)  # run i holds index rows bounds[i]:bounds[i + 1]
    # representatives in cell units: base cell and offset from its center
    scaled = np.ldexp(sample.points[index.order[runs]], k)
    base = np.floor(scaled)
    offset = scaled - base - 0.5
    base = base.astype(np.int64)
    reach_k = math.ldexp(reach, k)
    outer = reach_k * (1.0 + _SPAN_MARGIN)
    inner2, outer2 = (reach_k * (1.0 - _SPAN_MARGIN)) ** 2, outer * outer
    # each run's key box, widened by one key per side but a point alone's, in
    # the same units: the offset plus an exact dyadic number per end
    keys = index.keys[runs]
    widen = (~alone).astype(np.int64)[:, None]
    box_lo = offset + np.ldexp(np.minimum.reduceat(index.keys, runs) - keys - widen, -shift)
    box_hi = offset + np.ldexp(np.maximum.reduceat(index.keys, runs) - keys + widen, -shift)
    # line keys hold one index per leading axis, each shifted into [0, radix)
    radix = (4 << k) + 2 * int(outer) + 8
    shifted = base + radix // 2
    lo0, hi0 = _span(box_lo[:, 0], box_hi[:, 0], 0.0, outer2)
    estimate = int((hi0 - lo0 + 1).sum()) * int(2 * outer + 1) ** (n - 2)
    passes = 1 + estimate // _SPAN_ROWS
    count = 0
    for p in range(passes):
        # the lines whose first index is p modulo passes
        start = lo0 + (p - base[:, 0] - lo0) % passes
        rows, steps = _expand(start, np.maximum((hi0 - start) // passes + 1, 0), passes)
        line = steps + shifted[rows, 0]
        d2 = (steps - offset[rows, 0]) ** 2
        g2 = _gap2(steps, box_lo[rows, 0], box_hi[rows, 0])
        for axis in range(1, n - 1):
            lo, hi = _span(box_lo[rows, axis], box_hi[rows, axis], g2, outer2)
            at, steps = _expand(lo, hi - lo + 1, 1)
            rows = rows[at]
            d2 = d2[at] + (steps - offset[rows, axis]) ** 2
            g2 = g2[at] + _gap2(steps, box_lo[rows, axis], box_hi[rows, axis])
            line = line[at] * radix + (steps + shifted[rows, axis])
        if line.size:
            events, first, lines, low, width, (span_lo, span_hi, banded) = _line_events(
                line, offset[rows, -1], base[rows, -1], box_lo[rows, -1], box_hi[rows, -1],
                d2, g2, inner2, outer2)
            spans = span_lo, span_hi, rows[banded]
            del rows, steps, line, d2, g2  # only the events are needed from here on
            count += _count_events(sample, bounds, reach, cell, events, first, lines, low,
                                   width, radix, spans)
    return count


def _line_events(line, offset, base, box_lo, box_hi, d2, g2, inner2, outer2):
    """The sorted span events of the given lines, and how to read their lines back.

    Row j is a run's line line[j], its representative's last-axis offset and
    base cell, the last-axis ends of its key box, and the squared distances
    in cell units to the line from the representative, d2, and from the box,
    g2.  Each row has an outer span about the box and, within the inner
    radius, an inner span about the representative, which the outer span
    holds.  A row whose outer span equals its inner span adds no band cell
    and emits its inner events only.  An event's key is (slot*width +
    position) * 4 + kind, where a cell's position is its last index - low,
    so the key sorts it into its line.  A line's slot is its offset line -
    first from the pass's least line, a monotone relabelling of its rank:
    every span ends inside its line's width, so the coverage between two
    lines is 0 and the slots left empty count nothing.  Only where the keys
    could reach 2^63, (line range) * width * 4 > 2^63 (n = 3, lines spread
    over most of the cube at k >= 17 or so), is the slot the line's rank
    among the pass's distinct lines, which `lines` then holds; otherwise
    `lines` is None and slot s is line first + s.  The events fill one
    preallocated array.  `spans` holds the other rows, the banded ones: the
    first and last cell key, slot*width + position, of each outer span, and
    the row.
    """
    lo_o, hi_o = _span(box_lo, box_hi, g2, outer2)
    inside = np.flatnonzero(d2 <= inner2)
    lo_i, hi_i = _span(offset[inside], offset[inside], d2[inside], inner2)
    low = int((base + lo_o).min())
    width = int((base + hi_o).max()) - low + 2
    first = int(line.min())
    if (int(line.max()) - first + 1) * width * 4 <= 1 << 63:
        lines, at = None, line - first
    else:
        lines, at = np.unique(line, return_inverse=True)
    at *= width
    at += base - low
    inner_at = at[inside]
    banded = np.ones(at.size, dtype=bool)
    banded[inside] = (lo_o[inside] != lo_i) | (hi_o[inside] != hi_i)
    banded = np.flatnonzero(banded)
    at, lo_o, hi_o = at[banded], lo_o[banded], hi_o[banded]
    spans = at + lo_o, at + hi_o, banded
    no, ni = at.size, inner_at.size
    events = np.empty(2 * (no + ni), dtype=np.int64)
    np.add(at, lo_o, out=events[:no])
    np.add(inner_at, lo_i, out=events[no:no + ni])
    np.add(inner_at, hi_i + 1, out=events[no + ni:no + 2 * ni])
    np.add(at, hi_o + 1, out=events[no + 2 * ni:])
    events <<= 2
    events[no:no + ni] |= 1
    events[no + ni:no + 2 * ni] |= 2
    events[no + 2 * ni:] |= 3
    events.sort()
    return events, first, lines, low, width, spans


def _count_events(sample, bounds, reach, cell, events, first, lines, low, width, radix,
                  spans):
    """Cells counted on sorted span events: the cells of the inner spans'
    union, and the band cells, in the outer spans' union only, within reach
    of some point.

    A point within reach of a band cell lies in a run whose outer span on
    the cell's line holds the cell, since the span holds every cell within
    reach of the run's key box.  That row is banded: were its outer span
    its inner span, the cell would lie in the inner union.  So each band
    cell is tested against the points of the banded rows' runs whose outer
    spans hold it, found by binary search in the band's sorted keys, with
    each distance formed as cKDTree.query forms it: squared differences
    summed in axis order, then sqrt, compared with reach.  The count is
    therefore the one of the exact query on the KD-tree of the sample,
    which is not built."""
    coverage = _EVENT_STEPS[events & 3]
    np.cumsum(coverage, out=coverage)
    events >>= 2
    lengths = np.diff(events)
    coverage = coverage[:-1]
    inner = int(lengths[coverage >= (1 << 32)].sum())
    band = np.flatnonzero((coverage > 0) & (coverage < (1 << 32)) & (lengths > 0))
    _, keys = _expand(events[band], lengths[band], 1)
    if not keys.size:
        return inner
    at, last = np.divmod(keys, width)
    key = at + first if lines is None else lines[at]
    n = sample.model
    cells = np.empty((at.size, n))
    cells[:, -1] = last + low
    for axis in range(n - 2, -1, -1):
        key, cells[:, axis] = np.divmod(key, radix)
    cells[:, :-1] -= radix // 2
    centers = (cells + 0.5) * cell
    # (span, band cell) pairs, then the points of each span's run
    span_lo, span_hi, run = spans
    lo = np.searchsorted(keys, span_lo)
    span, cell_at = _expand(lo, np.searchsorted(keys, span_hi, side="right") - lo, 1)
    run = run[span]
    pair, rows = _expand(bounds[run], bounds[run + 1] - bounds[run], 1)
    cell_at = cell_at[pair]
    d2 = _sum_squares(centers[cell_at] - sample.points[sample.dyadic_index.order[rows]])
    near = np.zeros(keys.size, dtype=bool)
    near[cell_at[np.sqrt(d2) <= reach]] = True
    return inner + int(np.count_nonzero(near))


def neighborhood_volume(sample, r, radius=None):
    """Grid volume of a closed neighborhood of the sample at cell size r = 2^-k.

    The neighborhood radius defaults to r itself (the box-counting case);
    passing `radius` measures a fatter or thinner neighborhood on the same
    grid, up to the radius whose ball about one point alone needs 2^53
    cells.  Returns a DyadicScaleRecord; volume = cell_count * r^n exactly.
    """
    r = float(r)
    m, e = math.frexp(r)
    if m != 0.5 or not 1 <= 1 - e <= 24:
        raise UsageError(f"scale must be 2^-k with 1 <= k <= 24, got {r:.6g}")
    radius = r if radius is None else float(radius)
    if not 0.0 < radius < math.inf:
        raise UsageError(f"neighborhood radius must be positive and finite, got {radius}")
    k = 1 - e
    n = sample.model
    # the cells that meet the ball of `radius` about one point cover it, and all
    # count: past 2^53 cells the count's float volume is no longer exact
    if radius > r * float(2.0 ** 53 / ball_volumes(1.0, n)) ** (1.0 / n):
        raise UsageError(f"neighborhood radius {radius:.6g} at scale {r:.6g} "
                         "needs more than 2^53 cells")
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


def check_window(k_range):
    """The window (k_min, k_max) as ints: 1 <= k_min < k_max <= 24, k_max - k_min >= 3."""
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if not (1 <= k_min < k_max <= 24 and k_max - k_min >= 3):
        raise UsageError(f"need 1 <= k_min < k_max <= 24 spanning >= 3, got {k_range}")
    return k_min, k_max


def box_dimension_estimate(sample, k_range=K_RANGE):
    """Upper box dimension of the sample across the dyadic scales of `check_window(k_range)`.

    The estimate is the least-squares slope of log cell_count against
    k*log 2, clamped to [0, n]; the local slopes between neighboring scales
    ride along, and their minimum, a liminf proxy, is quoted in the note.
    The note flags a nearest-neighbor spacing above 2^-k_max, which may mean
    an under-resolved sample; its spacing is that of an exact nearest-point
    query of every point, read from the dyadic index (`_alone_spacing`).
    """
    k_min, k_max = check_window(k_range)
    spacing = _alone_spacing(sample, k_max) if len(sample) > 1 else None
    note_bits = []
    if spacing is not None and spacing > 2.0 ** -k_max:
        note_bits.append(
            f"nearest-neighbor spacing {spacing:.3g} exceeds scale 2^-{k_max}; "
            "sample may under-resolve, enumerate deeper"
        )
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


def _alone_spacing(sample, k_max):
    """The note's nearest-neighbor spacing, or None when it is at most 2^-k_max.

    Only a point alone in its cell of side 2^-(k_max+1) can lie farther than
    2^-k_max from every other point.  Its distance u to its neighbors in
    index order bounds its spacing; where u > 2^-k_max, the point is joined
    to the 3^n cells about its own of side 2^-k_max, then, where they hold no
    point within 2^-k_max, of the first side 2^-k > u*(1 + 1e-9), k >= -1,
    which hold every point within u (`_cell_nearest`)."""
    index = sample.dyadic_index
    shift = _INDEX_BITS - k_max
    starts = index.parting > shift - 1  # cells of side 2^-(k_max+1)
    alone = np.flatnonzero(starts & np.append(starts[1:], True))
    last = len(starts) - 1
    # each alone row and its two neighbors, the ends' missing ones reflected inward
    at = sample.points[index.order[[alone, np.abs(alone - 1), last - np.abs(last - 1 - alone)]]]
    u = np.sqrt(np.minimum(_sum_squares(at[0] - at[1]), _sum_squares(at[0] - at[2])))
    far = u > 2.0 ** -k_max
    if far.any():
        u[far] = np.minimum(u[far], np.sqrt(_cell_nearest(sample, alone[far], shift)))
        far = u > 2.0 ** -k_max
    if not far.any():
        return None
    # 2^-k = 2^e > u*(1 + 1e-9) >= 2^(e-1), frexp's exponent e, and at most 2^1
    k = np.maximum(-np.frexp(u[far] * (1.0 + 1e-9))[1], -1)
    return float(np.sqrt(_cell_nearest(sample, alone[far], _INDEX_BITS - k)).max())


def _cell_nearest(sample, rows, shifts):
    """Squared distance (`_sum_squares`) from each index row to the nearest other
    point in the 3^n cells of side 2^(s - _INDEX_BITS) about its own, s its
    shift (one, or one per row), or inf.  A cell's key is two int64 words, its
    shift and first index, then its other indices, each plus one in _KEY_BITS
    + 1 bits; one lexsort of the keys joins the cells about each row to the
    occupied cells, runs of the index."""
    index = sample.dyadic_index
    n = sample.model
    shifts = np.broadcast_to(np.asarray(shifts, dtype=np.int64), rows.shape)
    around = np.indices((3,) * n).reshape(n, -1).T - 1  # the 3^n offsets of a cell's neighbors
    levels = np.unique(shifts)
    bounds = [np.append(np.flatnonzero(index.parting > s), len(index.order)) for s in levels]
    first, end = np.concatenate([b[:-1] for b in bounds]), np.concatenate([b[1:] for b in bounds])
    m = first.size
    level = np.concatenate([np.repeat(levels, [b.size - 1 for b in bounds]),
                            np.repeat(shifts, len(around))])
    near = (index.keys[rows] >> shifts[:, None])[:, None, :] + around
    cells = np.concatenate([index.keys[first] >> level[:m, None], near.reshape(-1, n)]) + 1
    hi, lo = (level << (_KEY_BITS + 1)) | cells[:, 0], cells[:, 1]
    for axis in range(2, n):
        lo = (lo << (_KEY_BITS + 1)) | cells[:, axis]
    order = np.lexsort((lo, hi))  # stable: an occupied cell precedes its queries
    # the latest occupied cell at or before each row of the sort
    latest = np.maximum.accumulate(np.where(order < m, np.arange(order.size), -1))
    query = np.flatnonzero((order >= m) & (latest >= 0))
    cell, query = order[latest[query]], order[query]
    same = (hi[cell] == hi[query]) & (lo[cell] == lo[query])
    row, cell = (query[same] - m) // len(around), cell[same]
    pair, other = _expand(first[cell], end[cell] - first[cell], 1)
    row = row[pair]
    keep = other != rows[row]
    row, other = row[keep], other[keep]
    d2 = _sum_squares(sample.points[index.order[rows[row]]] - sample.points[index.order[other]])
    nearest = np.full(rows.size, np.inf)
    np.minimum.at(nearest, row, d2)
    return nearest


# ---------------------------------------------------------------------------
# Euclidean realizations of hyperbolic balls about orbit points.


def euclidean_balls(points, radius, gaps):
    """Centers and Euclidean radii of hyperbolic balls B(w, radius).

    The two diametral points along the radial geodesic through w realize a
    Euclidean diameter of the ball (the realization is a round ball whose
    center sits on that radius by symmetry).  `gaps` are the stable radial
    gaps 1-|w|, which keep deep balls accurate where recomputing 1-|w| from
    the coordinates would cancel.  The radius must be finite and >= 0
    (`check_radius`).

    Returns (centers (N, n), radii (N,)).
    """
    radius = check_radius(radius)
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
class BallContainmentReport:
    """Certified shell constants: every orbit ball lies near the limit-set sample.

    For shell k, c_k is a certified upper bound on the Euclidean distance
    from any point of any closed shell-k ball to the sample, normalized by
    2^-k: every such ball lies inside the closed c_k * 2^-k neighborhood of
    the sample.  A flat c_k across shells witnesses that the balls hug the
    limit set at their own scale.  c_hat is the max over computed shells.
    radii are the Euclidean radii of the balls, shell by shell and in ball
    order within a shell (`ShellRuns.rows`), for a reader that adds their
    volumes.
    """

    shells: np.ndarray  # (m,) nonempty shells k, ascending
    c: np.ndarray       # (m,) c_k = bound on the distance of shell k / 2^-k
    c_hat: float
    radii: np.ndarray = field(repr=False, compare=False)  # (N,) one per ball


def ball_containment_check(orbit, radius, sample, k_max):
    """Certified shell-normalized bounds on the distance from orbit balls to the sample.

    Ball i, about an orbit point in shells 1..k_max, has Euclidean center
    c_i and radius rho_i (`euclidean_balls`); d_i is the exact distance from
    c_i to the sample, one nearest-point query of a KD-tree of the sample
    over every such center at once.  Every point p of the closed ball has
    dist(p, sample) <= |p - c_i| + d_i <= rho_i + d_i, so
    U_i = (d_i + rho_i)(1 + 1e-9) + 1e-15 bounds the true supremum of the
    distance over the closed ball, and c_k = max U_i / 2^-k over shell k,
    taken with `np.ldexp`, exactly.  The margins cover the rounding: the
    1e-15 term the absolute error of coordinates in the closed unit ball,
    and that of rho_i, a few ulps of 1 even where tanh((d0 +- radius)/2)
    cancels; the 1e-9 factor the relative error of the computed distance, a
    square root of a sum of squares, about 1e-16.  This is the containment
    `volume_ok` presumes when it adds the packed volumes inside the
    c_hat * 2^-k neighborhood.  The radius must be finite and >= 0
    (`check_radius`).
    """
    radius = check_radius(radius)
    if sample.model != orbit.model:
        raise UsageError("sample and orbit models differ")
    runs = orbit.shell_runs
    lo, hi = runs.window(1, k_max)
    if lo == hi:
        raise UsageError(f"no orbit elements in shells 1..{k_max}")
    idx = runs.rows(lo, hi)
    centers, radii = euclidean_balls(orbit.points[idx], radius, gaps=orbit.gaps[idx])
    from scipy.spatial import cKDTree  # here, so `import kleindim` does not load it

    center_dist, _ = cKDTree(sample.points).query(centers, k=1)
    bound = (center_dist + radii) * (1.0 + 1e-9) + 1e-15
    shells = runs.shells[lo:hi]
    c = np.ldexp(np.maximum.reduceat(bound, runs.bounds[lo:hi] - runs.bounds[lo]), shells)
    return BallContainmentReport(shells=shells, c=c, c_hat=float(c.max()), radii=radii)
