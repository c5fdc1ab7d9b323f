"""Limit-set sampling, grid volumes, box dimension, and shell diagnostics."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from conftest import identity_only_orbit
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    deep_orbit_sample,
    first_unique_lexsort,
    first_unique_np,
    grid_cell_count_stencil,
    isolated_count,
)
from scipy import spatial, stats

from kleindim import (
    InternalError,
    LimitSample,
    UsageError,
    ball_containment_check,
    ball_volumes,
    box_dimension_estimate,
    cantor_test,
    enumerate_orbit,
    euclidean_balls,
    fixed_points,
    limitset,
    neighborhood_volume,
    origin,
    packing_radius,
    sample_limit_set,
)
from kleindim.geometry import boundary_images
from kleindim.limitset import (
    K_RANGE,
    _SPAN_ROWS,
    _SUBCELL_BITS,
    _first_unique,
    _grid_cell_count,
    _line_events,
    _linear_fit,
)
from kleindim.verify import CHAIN_K_MAX, front

CANTOR_DIM = math.log(2.0) / math.log(3.0)


def _synthetic(points):
    pts = np.asarray(points, dtype=float)
    return LimitSample(points=pts, witnesses=[(i,) for i in range(len(pts))],
                       source="synthetic_test_set")


def _circle_sample(count=4096):
    ang = 2.0 * np.pi * np.arange(count) / count
    return _synthetic(np.column_stack([np.cos(ang), np.sin(ang)]))


def test_sample_validation():
    with pytest.raises(UsageError):
        _synthetic([[0.5, 0.0]])
    with pytest.raises(UsageError):
        LimitSample(points=np.empty((0, 2)), witnesses=[], source="synthetic_test_set")
    for points in ([[math.nan, 0.0]], [[1.0, 0.0], [0.0, math.nan]], [[math.inf, 0.0]]):
        with pytest.raises(UsageError, match="finite"):
            _synthetic(points)


def test_cyclic_sample_is_fixed_pair(cyclic_orbit10, cyclic_h):
    sample = sample_limit_set(cyclic_orbit10, cyclic_h)
    assert len(sample) == 2
    xs = sorted(sample.points[:, 0])
    assert abs(xs[0] + 1.0) < 1e-9 and abs(xs[1] - 1.0) < 1e-9
    assert np.all(np.abs(sample.points[:, 1]) < 1e-9)


def test_schottky_sample_basics(schottky_orbit10, schottky_sample10):
    sample = schottky_sample10
    assert sample.source == "conjugate_fixed_points"
    assert 2 <= len(sample) <= 2 * len(schottky_orbit10)
    norms = np.linalg.norm(sample.points, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9
    assert len(sample.witnesses) == len(sample)


def test_witnesses_are_ball_rows(schottky_orbit10, schottky_h, schottky_sample10):
    sample = schottky_sample10
    entries = schottky_orbit10.ball.entries[sample.witnesses]
    images = [boundary_images(entries, fp.coords) for fp in fixed_points(schottky_h)]
    miss = np.minimum(*(np.linalg.norm(im - sample.points, axis=1) for im in images))
    assert miss.max() < 1e-9


def test_sample_points_accumulate(schottky, schottky_orbit8, schottky_orbit10,
                                  schottky_sample10):
    target = schottky_sample10.points[37]
    dists = []
    for orbit in (enumerate_orbit(schottky, origin(2), 6), schottky_orbit8,
                  schottky_orbit10):
        dists.append(float(np.linalg.norm(orbit.points - target, axis=1).min()))
    assert dists[0] > dists[1] > dists[2]


def test_deep_orbit_sample_agrees(schottky_orbit10, schottky_sample10):
    deep = deep_orbit_sample(schottky_orbit10)
    assert deep.source == "deep_orbit_projection"
    assert np.abs(np.linalg.norm(deep.points, axis=1) - 1.0).max() < 1e-9
    d_deep = box_dimension_estimate(deep).dim_est
    d_conj = box_dimension_estimate(schottky_sample10).dim_est
    assert abs(d_deep - d_conj) <= 0.02


def test_neighborhood_volume_validation():
    sample = _synthetic([[1.0, 0.0]])
    with pytest.raises(UsageError):
        neighborhood_volume(sample, 0.3)
    with pytest.raises(UsageError):
        neighborhood_volume(sample, 1.0)
    with pytest.raises(UsageError):
        neighborhood_volume(sample, 2.0 ** -25)
    with pytest.raises(UsageError):
        neighborhood_volume(sample, 0.25, radius=-0.25)
    for radius in (math.nan, math.inf):
        with pytest.raises(UsageError, match="finite"):
            neighborhood_volume(sample, 0.25, radius=radius)
    # the ball of this radius about the one point alone needs more than 2^53 cells
    for radius in (1e300, 0.25 * math.sqrt(2.0 ** 53 / math.pi) * (1.0 + 1e-9)):
        with pytest.raises(UsageError, match="2\\^53 cells"):
            neighborhood_volume(sample, 0.25, radius=radius)


def test_neighborhood_volume_single_point():
    sample = _synthetic([[1.0, 0.0]])
    rec = neighborhood_volume(sample, 0.25)
    assert rec.k == 2 and rec.r == 0.25
    disc = math.pi * rec.r ** 2
    # the conservative center test (reach r + r sqrt(n)/2) over-counts an
    # isolated point by up to (1 + sqrt(2)/2)^2 before quantization
    assert disc <= rec.volume <= 4.0 * disc


def test_neighborhood_volume_dense_circle():
    sample = _circle_sample(8192)
    for k in (4, 6, 8):
        rec = neighborhood_volume(sample, 2.0 ** -k)
        annulus = 4.0 * math.pi * rec.r
        assert annulus / 2.0 <= rec.volume <= 2.0 * annulus


def test_neighborhood_volume_monotone_with_slack():
    sample = cantor_test(12)
    prev = None
    for k in range(2, 10):
        rec = neighborhood_volume(sample, 2.0 ** -k)
        assert rec.volume == rec.cell_count * rec.r ** 2  # exact dyadic identity
        if prev is not None:
            assert prev >= rec.volume / 2.0
        prev = rec.volume


def test_box_dimension_circle():
    sample = _circle_sample()
    assert abs(box_dimension_estimate(sample, k_range=(3, 9)).dim_est - 1.0) <= 0.05
    assert abs(box_dimension_estimate(sample, k_range=(3, 10)).dim_est - 1.0) <= 0.05


def test_box_dimension_two_points():
    sample = _synthetic([[1.0, 0.0], [-1.0, 0.0]])
    assert abs(box_dimension_estimate(sample, k_range=(3, 9)).dim_est) <= 0.05


def test_cantor_witnesses_are_digit_rows():
    sample = cantor_test(6)
    digits = sample.witnesses
    assert digits.dtype == np.uint8 and digits.shape == (64, 6)
    assert set(np.unique(digits).tolist()) == {0, 2}
    # a point's arc length is the ternary expansion of its digits
    arcs = digits @ 3.0 ** -np.arange(1, 7)
    assert np.abs(np.arctan2(sample.points[:, 1], sample.points[:, 0]) - arcs).max() < 1e-12
    # label words given as a list of tuples are stored as an array too
    assert _synthetic([[1.0, 0.0], [0.0, 1.0]]).witnesses.tolist() == [[0], [1]]


def test_box_dimension_cantor():
    sample = cantor_test(12)
    for k_range in ((3, 9), (3, 10)):
        est = box_dimension_estimate(sample, k_range=k_range)
        assert abs(est.dim_est - CANTOR_DIM) <= 0.05


def test_box_dimension_report_fields(schottky_sample10):
    est = box_dimension_estimate(schottky_sample10)
    assert 0.0 <= est.dim_est <= 2.0
    assert est.fit_window == (3, 9)
    assert [rec.k for rec in est.records] == list(range(3, 10))
    assert est.local_slopes.shape == (6,)
    assert "min local slope" in est.method_note


def test_box_dimension_usage_errors():
    sample = _synthetic([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(UsageError):
        box_dimension_estimate(sample, k_range=(3, 5))
    # two antipodal points under-resolve every scale: the note says so, no error
    note = box_dimension_estimate(sample, k_range=(3, 9)).method_note
    assert "2 of 2 points have no other point within 2^-9" in note


@st.composite
def _fit_inputs(draw):
    """Distinct x on a scaled integer grid; y noisy, constant, or exactly linear in x."""
    n = draw(st.integers(4, 40))
    grid = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
    x = draw(st.floats(1e-3, 1e3)) * np.array(grid, dtype=float) + draw(st.floats(-1e3, 1e3))
    kind = draw(st.sampled_from(["noisy", "constant", "linear"]))
    if kind == "noisy":
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    elif kind == "constant":
        y = np.full(n, draw(st.floats(-1e3, 1e3)))
    else:
        y = draw(st.floats(-10.0, 10.0)) * x + draw(st.floats(-1e3, 1e3))
    return x, y


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_fit_inputs())
@example((np.arange(3, 10) * math.log(2.0), np.log([10.0, 21, 40, 83, 170, 331, 660])))
@example((np.arange(5.0), np.full(5, 0.1)))
@example((np.arange(5.0), 2.0 * np.arange(5.0) + 1.0))
def test_linear_fit_matches_linregress(xy):
    x, y = xy
    ref = stats.linregress(x, y)
    got = _linear_fit(x, y)
    expected = (ref.slope, ref.intercept, ref.rvalue, ref.stderr)
    # nan == nan: a constant y has no correlation in either
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, expected))


def test_euclidean_ball_at_origin():
    centers, radii = euclidean_balls(np.array([[0.0, 0.0]]), 1.0, gaps=np.array([1.0]))
    assert np.linalg.norm(centers[0]) < 1e-12
    assert abs(radii[0] - math.tanh(0.5)) < 1e-12


def test_ball_volumes_formulas():
    r = np.array([0.5, 0.25])
    v2 = ball_volumes(r, 2)
    v3 = ball_volumes(r, 3)
    assert np.allclose(v2, math.pi * r ** 2)
    assert np.allclose(v3, 4.0 / 3.0 * math.pi * r ** 3)


def test_volume_ratio_identity_example():
    orbit = identity_only_orbit()
    _, radii = euclidean_balls(orbit.points, 1.0, orbit.gaps)
    ratios = ball_volumes(radii, orbit.model) / orbit.gaps ** orbit.model
    expected = math.pi * math.tanh(0.5) ** 2
    assert abs(ratios.min() - expected) < 1e-9
    assert abs(ratios.max() - expected) < 1e-9


def test_volume_ratio_spread_stable(schottky_orbit8, schottky_orbit10):
    spreads = []
    for orbit in (schottky_orbit8, schottky_orbit10):
        _, radii = euclidean_balls(orbit.points, packing_radius(orbit).radius, orbit.gaps)
        ratios = ball_volumes(radii, orbit.model) / orbit.gaps ** orbit.model
        spreads.append(ratios.max() / ratios.min())
    spread8, spread10 = spreads
    assert spread10 <= 100.0
    assert spread10 <= 2.0 * spread8


def test_deep_ball_diameter_comparable_to_gap(schottky_orbit10):
    pk = packing_radius(schottky_orbit10)
    _, radii = euclidean_balls(schottky_orbit10.points, pk.radius,
                               gaps=schottky_orbit10.gaps)
    nontrivial = schottky_orbit10.word_lengths > 0
    ratio = 2.0 * radii[nontrivial] / schottky_orbit10.gaps[nontrivial]
    assert ratio.min() >= 1.5 and ratio.max() <= 3.5


def test_containment_cyclic_stable(cyclic_orbit10, cyclic_h):
    sample = sample_limit_set(cyclic_orbit10, cyclic_h)
    pk = packing_radius(cyclic_orbit10)
    report = ball_containment_check(cyclic_orbit10, pk.radius, sample, k_max=10)
    cs = report.c[(report.shells >= 2) & (report.shells <= 10)].tolist()
    assert len(cs) >= 3
    assert max(cs) / min(cs) <= 4.0


def test_containment_schottky_constancy(schottky_orbit10, schottky_sample10):
    pk = packing_radius(schottky_orbit10)
    report = ball_containment_check(schottky_orbit10, pk.radius, schottky_sample10, CHAIN_K_MAX)
    cs = report.c
    assert report.c_hat == cs.max()
    assert np.all(cs <= 4.0 * np.median(cs))
    ks = report.shells.astype(float)
    slope = stats.linregress(ks, np.log(cs)).slope
    assert abs(slope) <= 0.2


def test_containment_negative_control(schottky_orbit10):
    far = _synthetic([[0.0, -1.0]])
    pk = packing_radius(schottky_orbit10)
    report = ball_containment_check(schottky_orbit10, pk.radius, far, k_max=10)
    ks = report.shells.astype(float)
    cs = report.c
    slope = stats.linregress(ks, np.log2(cs)).slope
    assert 0.9 <= slope <= 1.1  # c_k doubles per shell: containment has failed


def _sphere_points(seed, count, n, clusters):
    """Unit vectors, spread out or bunched around a few random directions."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, n))
    if clusters:
        centers = rng.normal(size=(clusters, n))
        pts = centers[rng.integers(clusters, size=count)] + 0.02 * pts
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2 ** 32 - 1),
    count=st.integers(1, 150),
    clusters=st.integers(0, 4),
    k=st.integers(1, 12),
    factor=st.sampled_from([0.5, 1.0, 2.0, 2.66, 5.43]) | st.floats(0.05, 6.0),
)
@example(n=2, seed=0, count=150, clusters=0, k=12, factor=2.66)
@example(n=3, seed=1, count=150, clusters=2, k=9, factor=2.66)
def test_grid_count_matches_stencil_oracle(n, seed, count, clusters, k, factor):
    pts = _sphere_points(seed, count, n, clusters)
    cell = 2.0 ** -k
    assert _grid_cell_count(_synthetic(pts), factor * cell, cell) == grid_cell_count_stencil(
        pts, factor * cell, cell)
    # the same sort helper dedups samples, keeping first occurrences
    repeated = np.concatenate([pts, pts[::-2], pts[1::3]])
    np.testing.assert_array_equal(_first_unique(repeated), first_unique_np(repeated))


def _assert_matches_oracle(pts, radius, cell):
    assert _grid_cell_count(_synthetic(pts), radius, cell) == grid_cell_count_stencil(
        pts, radius, cell), (radius, cell)


@pytest.mark.parametrize("n", [2, 3])
def test_grid_count_points_on_cell_faces(n):
    # every coordinate of +-e_i is a multiple of every dyadic cell side
    pts = np.concatenate([np.eye(n), -np.eye(n)])
    for k in range(1, 13):
        cell = 2.0 ** -k
        for factor in (0.25, 1.0, 2.66, 5.43):
            _assert_matches_oracle(pts, factor * cell, cell)


@pytest.mark.parametrize("n", [2, 3])
def test_grid_count_stencil_edge_within_ulps(n):
    # radii that put reach/cell + 1/2 a few ulps from the integer m, where the
    # stencil half-width h = floor(reach/cell + 1/2) steps
    pts = np.concatenate([np.eye(n), -np.eye(n), _sphere_points(7, 20, n, 2)])
    for k in (3, 9):
        cell = 2.0 ** -k
        for m in (2, 3):
            radius = (m - 0.5 - 0.5 * math.sqrt(n)) * cell
            for direction in (-np.inf, np.inf):
                r = radius
                for _ in range(4):
                    edge = (r + 0.5 * math.sqrt(n) * cell) / cell + 0.5
                    assert abs(edge - m) < 1e-14
                    _assert_matches_oracle(pts, r, cell)
                    r = np.nextafter(r, direction)


def _center_bound_point(n, axis, cell, rng):
    """A unit vector whose coordinates but `axis` are cell centers."""
    p = (np.floor(rng.uniform(-0.6, 0.6, size=n) / cell) + 0.5) * cell
    p[axis] = 0.0
    p[axis] = rng.choice([-1.0, 1.0]) * math.sqrt(1.0 - p @ p)
    return p


@pytest.mark.parametrize("n", [2, 3])
def test_grid_count_span_edges_within_ulps(n):
    # A point whose coordinates but one are cell centers, and radii that put
    # a target cell center within ulps of reach, of the inner span's radius
    # reach*(1 - 1e-9), or of the outer span's (reach + e)*(1 + 1e-9), where
    # e = 0 for the point alone and the sub-cell diagonal for the point twice.
    # A target straight across a leading axis lies on a tangent line (w = 0);
    # across the last axis it ends a span on a cell-center index; a target
    # off the point's lines ends a span within ulps of an index elsewhere.
    rng = np.random.default_rng(40 + n)
    diagonal = math.sqrt(n) / 2 ** _SUBCELL_BITS
    for k in (4, 9, 14, 24):
        cell = 2.0 ** -k
        for axis in range(n):
            p = _center_bound_point(n, axis, cell, rng)
            for across in (0, 1):
                q = np.floor(p / cell) + 0.5
                q[axis] += rng.choice([-3, 2])
                if across:
                    q[(axis + 1) % n] += 1
                dist = float(np.linalg.norm(q * cell - p))
                for pts, e in ((p[None, :], 0.0), (np.stack([p, p]), diagonal * cell)):
                    for reach in (dist, dist / (1.0 - 1e-9), dist / (1.0 + 1e-9) - e):
                        radius = reach - 0.5 * math.sqrt(n) * cell
                        for direction in (-np.inf, np.inf):
                            r = radius
                            for _ in range(4):
                                _assert_matches_oracle(pts, r, cell)
                                r = np.nextafter(r, direction)


def _fat_radii_points(n, k):
    """The axis ends, points a few cells of side 2^-k from them, and a few clusters."""
    turn = np.array([3.0, 7.5, 40.25]) * 2.0 ** -k
    near_end = np.zeros((3, n))
    near_end[:, 0], near_end[:, -1] = np.cos(turn), np.sin(turn)
    return np.concatenate([np.eye(n), -np.eye(n), near_end, -near_end,
                           _sphere_points(k, 12, n, 2)])


@pytest.mark.parametrize("n", [2, 3])
def test_grid_count_fat_radii_deep(n):
    # radii of 6 to 8 cells at k = 20..24, where a float cell index near 2^24
    # would round by 2^-28 cells; the axis ends, and points a few cells from
    # them, put the indices there
    for k in (20, 22, 24):
        cell = 2.0 ** -k
        for factor in (6.0, 6.93, 8.0):
            _assert_matches_oracle(_fat_radii_points(n, k), factor * cell, cell)


def _key_paths(monkeypatch):
    """Record, per pass of the grid count that holds lines, whether its
    events are keyed by line offsets (True) or by line ranks (False)."""
    paths = []

    def recorded(line, *args):
        events = _line_events(line, *args)
        paths.append(events[2] is None)
        return events

    monkeypatch.setattr(limitset, "_line_events", recorded)
    return paths


# pass budgets of the grid count: one line of the estimate per pass, a few
# dozen, and the default
_PASS_BUDGETS = (1, 64, _SPAN_ROWS)


def _assert_every_budget(monkeypatch, pts, radius, cell, budgets=_PASS_BUDGETS):
    """The count at each pass budget equals the oracle's; below the default
    the lines split into several passes by first-index residue."""
    expected = grid_cell_count_stencil(pts, radius, cell)
    sample = _synthetic(pts)
    paths = _key_paths(monkeypatch)
    for rows in budgets:
        monkeypatch.setattr(limitset, "_SPAN_ROWS", rows)
        paths.clear()
        assert _grid_cell_count(sample, radius, cell) == expected, (rows, radius, cell)
        assert rows == _SPAN_ROWS or len(paths) > 1, (rows, radius, cell)


@pytest.mark.parametrize("n, k", [(2, 12), (3, 9)])
def test_grid_count_pass_budgets(monkeypatch, n, k):
    # a budget of 1 runs one pass per line of the estimate, so a pass that
    # lost a residue class, or a line split between passes, shows here
    pts = np.concatenate([_sphere_points(n, 150, n, 0), _sphere_points(n + 1, 150, n, 3)])
    cell = 2.0 ** -k
    for factor in (0.5, 1.0, 2.66):
        _assert_every_budget(monkeypatch, pts, factor * cell, cell)


def test_grid_count_column_dense_sample(monkeypatch):
    # 40,000 points on an arc within two cells of x = 1 at k = 24: the lines
    # split into passes by first index, and most passes hold no line.  At a
    # budget of 1 the estimate's 10^5 passes would be as many sweeps of the
    # rows, so that budget runs on the arc's first 2,000 points
    turn = np.linspace(0.0, 4.5e-4, 40000)
    pts = np.column_stack([np.cos(turn), np.sin(turn)])
    _assert_every_budget(monkeypatch, pts, 2.0 ** -24, 2.0 ** -24, _PASS_BUDGETS[1:])
    _assert_every_budget(monkeypatch, pts[:2000], 2.0 ** -24, 2.0 ** -24, _PASS_BUDGETS[:1])


def test_grid_count_key_paths(monkeypatch):
    # offset keys where the lines' range times 4*width fits int64: the circle
    # at k = 24 and the sphere at k <= 9; ranked lines for the sphere at
    # k >= 20, whose lines spread over most of the cube.  A second point a
    # twentieth of a cell from each gives the sub-cells a diagonal, so each
    # count has band cells, which read their lines back from the keys
    rng = np.random.default_rng(4)
    paths = _key_paths(monkeypatch)
    for n, ks, offsets in ((2, (12, 24), True), (3, (6, 9), True), (3, (20, 22, 24), False)):
        for k in ks:
            cell = 2.0 ** -k
            pts = _fat_radii_points(n, k)
            pts = np.concatenate([pts, pts + 0.05 * cell * rng.normal(size=pts.shape)])
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            for factor in (1.0, 6.0):
                paths.clear()
                _assert_matches_oracle(pts, factor * cell, cell)
                assert paths and all(path == offsets for path in paths), (n, k, factor)


@pytest.mark.parametrize("span", [1 << 60, (1 << 60) + 1])
def test_line_events_key_fits_int64(span):
    # two rows of width 2 on lines span - 1 apart: the largest key is
    # 4*2*span - 1, so at span = 2^60 it is 2^63 - 1 and the offsets still fit.
    # Their outer spans, about the key box [0, 1/2], hold cell 0 and their
    # inner spans, about the representative at 1/2, none.  A third row, on a
    # line between them, has both spans at cell 0, so it emits inner events only
    line = np.array([7, 7 + span - 1, 7 + span // 2], dtype=np.int64)
    offset = np.array([0.5, 0.5, 0.0])
    zeros = np.zeros(3)
    events, first, lines, low, width, spans = _line_events(
        line, offset, np.zeros(3, dtype=np.int64), zeros, offset, zeros, zeros, 0.01, 0.0121)
    assert (first, low, width) == (7, 0, 2)
    assert (lines is None) == (span == 1 << 60)
    assert events.min() >= 0 and np.all(np.diff(events) >= 0)
    slot, position = np.divmod(events >> 2, width)
    slots = line - first if lines is None else np.array([0, 2, 1])
    np.testing.assert_array_equal(slot, np.repeat(slots[[0, 2, 1]], [4, 2, 4]))
    np.testing.assert_array_equal(position, [0, 1, 1, 1] + [0, 1] + [0, 1, 1, 1])
    np.testing.assert_array_equal(events & 3, [0, 1, 2, 3] + [1, 2] + [0, 1, 2, 3])
    assert set((events & 3)[slot == slots[2]].tolist()) == {1, 2}  # no outer events
    # the banded rows' outer spans, cell 0 of their lines, are the band's candidates
    span_lo, span_hi, banded = spans
    np.testing.assert_array_equal(banded, [0, 1])
    np.testing.assert_array_equal(span_lo, slots[:2] * width)
    np.testing.assert_array_equal(span_hi, slots[:2] * width)


def test_grid_count_memory_bound(monkeypatch):
    # the circle's 4,096 points at k = 12 and radius 6 cells: an estimate of
    # about 55,000 lines, run in 4 passes.  Their tracemalloc peak measured
    # 2.89 MB; one pass of every line peaks at 8.4 MB.  The bound may be
    # tightened, not loosened
    sample = _circle_sample()
    sample.dyadic_index  # shared by every count, so built beforehand
    cell = 2.0 ** -12
    paths = _key_paths(monkeypatch)
    count = _grid_cell_count(sample, 6.0 * cell, cell)
    assert len(paths) >= 4
    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert _grid_cell_count(sample, 6.0 * cell, cell) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2e6


def _cluster_points(n, k):
    """2,400 points in 300 clusters of 8, each a fraction of a sub-cell of
    the grid of side 2^-k wide."""
    rng = np.random.default_rng(10 * n + k)
    cell = 2.0 ** -k
    pts = np.repeat(rng.normal(size=(300, n)), 8, axis=0)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts += 0.02 * cell * rng.normal(size=pts.shape)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [3, 6, 9])
def test_grid_count_dense_clusters(monkeypatch, n, k):
    # sub-cells hold several points, and past a cluster's rim the distance to
    # its representative and to its nearest point differ.  A budget of 1 runs
    # at k = 3 only, where the estimate is a few thousand lines
    cell = 2.0 ** -k
    pts = _cluster_points(n, k)
    sub_cells = np.unique(np.floor(pts / (cell / 2 ** _SUBCELL_BITS)), axis=0)
    assert len(sub_cells) <= len(pts) // 2
    budgets = _PASS_BUDGETS if k == 3 else _PASS_BUDGETS[1:]
    for factor in (0.25, 1.0, 2.66):
        _assert_every_budget(monkeypatch, pts, factor * cell, cell, budgets)


@pytest.mark.parametrize("group, depth", [("ball_schottky", 6), ("lattice", 10)])
def test_grid_count_pipeline_samples(request, monkeypatch, group, depth):
    """Box counts over K_RANGE and every chain c_hat * 2^-k neighborhood, at
    pass budgets of 64 and the default, and of 1 for the box counts at k <= 4."""
    held = front(request.getfixturevalue(group), depth)
    orbit, sample = held.orbit, held.sample
    for k in range(K_RANGE[0], K_RANGE[1] + 1):
        budgets = _PASS_BUDGETS if k <= 4 else _PASS_BUDGETS[1:]
        _assert_every_budget(monkeypatch, sample.points, 2.0 ** -k, 2.0 ** -k, budgets)
    containment = ball_containment_check(orbit, packing_radius(orbit).radius, sample, CHAIN_K_MAX)
    for k in containment.shells.tolist():
        _assert_every_budget(monkeypatch, sample.points, containment.c_hat * 2.0 ** -k,
                             2.0 ** -k, _PASS_BUDGETS[1:])


@pytest.mark.parametrize("n", [2, 3])
def test_grid_count_every_scale_from_one_index(n):
    # one sample object, so every count reads the same cached dyadic index;
    # +-e_i put coordinates exactly on -1, 0 and 1, and the last point sits
    # below -1, at the low end of the index keys
    low = np.zeros((1, n))
    low[0, 0] = -1.0 - 5e-10
    pts = np.concatenate([np.eye(n), -np.eye(n), _sphere_points(5, 40, n, 3), low])
    sample = _synthetic(pts)
    ks = np.random.default_rng(n).permutation(np.arange(1, 25))
    for k in ks:
        cell = 2.0 ** -int(k)
        for factor in (1.0, 2.65, 3.0):
            rec = neighborhood_volume(sample, cell, radius=factor * cell)
            assert rec.cell_count == grid_cell_count_stencil(pts, factor * cell, cell), (k, factor)


_KEY = 2.0 ** -limitset._INDEX_BITS  # side of an index key's box


def _on_sphere(pts, snap):
    """Rows scaled onto the unit sphere; with `snap`, every coordinate but
    the last is then truncated onto a key boundary, a multiple of _KEY, and
    the last solved from the sphere's equation."""
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    if snap:
        pts[:, :-1] = np.trunc(pts[:, :-1] / _KEY) * _KEY
        last = np.sqrt(np.maximum(1.0 - (pts[:, :-1] ** 2).sum(axis=1), 0.0))
        pts[:, -1] = np.where(pts[:, -1] < 0.0, -last, last)
    return pts


@st.composite
def _key_box_cases(draw):
    """Clusters of 2 to 6 points, each from 2^-30 of a sub-cell wide up to a
    whole sub-cell, at a scale 2^-k up to the finest, some on key boundaries.

    Fine scales and wide clusters are drawn more often: there a key is a
    sizable part of a cell, so a padding one key short misses cells."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 24) | st.integers(20, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clusters = draw(st.integers(1, 6))
    size = draw(st.integers(2, 6))
    width = 2.0 ** (draw(st.integers(-30, 0) | st.integers(-3, 0)) - k - _SUBCELL_BITS)
    snap = draw(st.booleans())
    factor = draw(st.sampled_from([0.25, 1.0, 2.66]) | st.floats(0.05, 6.0))
    centers = rng.normal(size=(clusters, n))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    pts = np.repeat(centers, size, axis=0) + width * rng.uniform(-0.5, 0.5, (clusters * size, n))
    return k, _on_sphere(pts, snap), factor


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_key_box_cases())
def test_grid_count_key_box_clusters(case):
    # a run's band padding is the diagonal of its key box, (max - min + 1)
    # keys per axis; a point's key kappa places it in [kappa, kappa + 1) *
    # _KEY - 2, so a padding one key short per axis misses the run's far points
    k, pts, factor = case
    _assert_matches_oracle(pts, factor * 2.0 ** -k, 2.0 ** -k)


def _corner_run(n, k):
    """Points on the sphere, all in one sub-cell of side 2^-(k + _SUBCELL_BITS),
    whose keys reach both ends of the sub-cell's key range on every axis.

    For n = 3 the sphere cuts a sub-cell near (1, 1, 1)/sqrt(3) almost in a
    plane, which meets all six faces when it passes near the sub-cell's
    center; each face gives a point.  For n = 2 a circle meets all four
    sides only through opposite corners, so the columns near 45 degrees are
    searched for one whose circle enters the top key of a row at the
    column's left edge and leaves through the bottom key of the same row at
    its right edge.
    """
    side = 2.0 ** -(k + _SUBCELL_BITS)
    top = side - 2.0 ** -40  # the last offset inside a sub-cell's last key
    if n == 2:
        x = (np.floor(0.7071 / side) - np.arange(1 << 18)) * side
        y_in, y_out = np.sqrt(1.0 - x ** 2), np.sqrt(1.0 - (x + top) ** 2)
        row = np.floor(y_in / side)
        hit = ((np.floor(y_out / side) == row) & (np.floor(y_out / _KEY) * _KEY == row * side)
               & (np.floor(y_in / _KEY) * _KEY == row * side + side - _KEY))
        at = int(np.argmax(hit))
        runs = [np.array([[x[at], y_in[at]], [x[at] + top, y_out[at]]])]
    else:
        # the sub-cells near (1, 1, 1)/sqrt(3) whose centers lie nearest the sphere
        steps = np.arange(-8, 9)
        lows = (np.floor(1.0 / math.sqrt(3.0) / side) + np.stack(
            np.meshgrid(steps, steps, steps), axis=-1).reshape(-1, 3)) * side
        miss = np.abs(np.linalg.norm(lows + 0.5 * side, axis=1) - 1.0)
        runs = []
        for low in lows[np.argsort(miss)[:20]]:
            pts = []
            for axis in range(3):
                b, c = (axis + 1) % 3, (axis + 2) % 3
                for edge in (0.0, top):
                    # along the face, the middle of the points whose solved
                    # third coordinate lies in the sub-cell
                    p = np.tile(low, (257, 1))
                    p[:, axis] += edge
                    p[:, b] += np.linspace(0.0, top, 257)
                    p[:, c] = 0.0
                    p[:, c] = np.sqrt(np.maximum(1.0 - (p * p).sum(axis=1), 0.0))
                    inside = np.flatnonzero((p[:, c] >= low[c]) & (p[:, c] < low[c] + side))
                    pts.append(p[inside[inside.size // 2]] if inside.size else p[0])
            runs.append(np.array(pts))
    for pts in runs:
        keys = np.floor(pts / _KEY)
        if (np.all(np.floor(pts / side) == np.floor(pts[0] / side))
                and np.all(keys.max(axis=0) - keys.min(axis=0) + 1 == side / _KEY)):
            return pts
    raise AssertionError(f"no corner run found for n = {n}, k = {k}")


@pytest.mark.parametrize("n, ks", [(2, (18, 20, 23, 24)), (3, (4, 12, 20, 24))])
def test_grid_count_corner_runs(n, ks):
    # runs whose key box is their whole sub-cell, the padding the count used
    # for every run before it read the key boxes; the axis ends and a few
    # clusters put other runs beside them
    for k in ks:
        pts = np.concatenate([_corner_run(n, k), np.eye(n), _sphere_points(k, 8, n, 2)])
        for factor in (0.25, 1.0, 2.66):
            _assert_matches_oracle(pts, factor * 2.0 ** -k, 2.0 ** -k)


def _chord_run(n, k, rng):
    """Two sphere points, the ends of the longest of a few great-circle chords
    through one sub-cell of side 2^-(k + _SUBCELL_BITS); each chord passes
    through a random point of the sphere."""
    side = 2.0 ** -(k + _SUBCELL_BITS)
    theta = np.linspace(-2.0, 2.0, 4097) * side * math.sqrt(n)
    best = None
    for _ in range(8):
        u, t = rng.normal(size=(2, n))
        u /= np.linalg.norm(u)
        t -= (t @ u) * u
        t /= np.linalg.norm(t)
        arc = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * t
        inside = np.flatnonzero(np.all(np.floor(arc / side) == np.floor(u / side), axis=1))
        run = arc[[inside[0], inside[-1]]]
        if best is None or np.linalg.norm(run[1] - run[0]) > np.linalg.norm(best[1] - best[0]):
            best = run
    return best


@st.composite
def _chord_cases(draw):
    """1 to 4 chord runs at a scale 2^-k, k = 3..24, and a radius factor."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    runs = np.stack([_chord_run(n, k, rng) for _ in range(draw(st.integers(1, 4)))])
    return k, runs, draw(st.floats(0.25, 8.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_chord_cases())
def test_grid_count_chord_runs(case):
    # Runs whose key box spans most of its sub-cell, with the representative
    # at one end.  The count is the oracle's at the drawn radius, and at one
    # that puts a target cell within reach of the first run's far end but
    # beyond reach of its representative and of every other run, so only the
    # outer span about the run's key box finds that cell
    k, runs, factor = case
    n, cell = runs.shape[2], 2.0 ** -k
    _assert_matches_oracle(runs.reshape(-1, n), factor * cell, cell)
    rank = np.argsort(_synthetic(runs.reshape(-1, n)).dyadic_index.order)
    rep, far = runs[0] if rank[0] < rank[1] else runs[0][::-1]
    # among the cells near the drawn reach beyond the far end, the one whose
    # distances from the two ends differ most
    half = 0.5 * math.sqrt(n) * cell
    aim = far + (factor * cell + half) * (far - rep) / np.linalg.norm(far - rep)
    steps = np.stack(np.meshgrid(*[np.arange(-2, 3)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    centers = (np.floor(aim / cell) + 0.5 + steps) * cell
    to_far = np.linalg.norm(centers - far, axis=1)
    to_rep = np.linalg.norm(centers - rep, axis=1)
    target = np.argmax(np.where(to_far >= half + 0.25 * cell, to_rep - to_far, -np.inf))
    reach = 0.5 * (to_far[target] + to_rep[target])
    assert to_far[target] * (1.0 + 1e-6) < reach < to_rep[target] / (1.0 + 1e-6)
    others = runs[1:][np.all(np.linalg.norm(runs[1:] - centers[target], axis=2)
                             > reach * (1.0 + 1e-6), axis=1)]
    _assert_matches_oracle(np.concatenate([runs[0], *others]), reach - half, cell)


def _fresh_copy(sample):
    """The sample's points in a new LimitSample, with no structure built yet."""
    return LimitSample(points=sample.points, witnesses=sample.witnesses, source=sample.source)


@pytest.mark.parametrize("group, depth, bound", [("ball_schottky", 8, 310), ("schottky", 9, 90)])
def test_grid_count_band_size(request, monkeypatch, group, depth, bound):
    # band cells of one K_RANGE box estimate on the seed-0 samples, each
    # decided from the points of its covering runs: 310 for the n = 3 group
    # at depth 8 and 90 for schottky_f2 at depth 9, where outer spans about
    # the representatives, padded by the key box's diagonal, held 2,068 and
    # 435.  Neither the counts nor the under-resolution check build a
    # KD-tree.  The bound may be tightened, not loosened
    sample = _fresh_copy(front(request.getfixturevalue(group), depth).sample)
    builds = _tree_builds(monkeypatch)
    band = []
    count_events = limitset._count_events

    def counted(sample, bounds, reach, cell, events, *rest):
        coverage = np.cumsum(limitset._EVENT_STEPS[events & 3])[:-1]
        lengths = np.diff(events >> 2)
        band.append(int(lengths[(coverage > 0) & (coverage < 1 << 32)].sum()))
        return count_events(sample, bounds, reach, cell, events, *rest)

    monkeypatch.setattr(limitset, "_count_events", counted)
    box_dimension_estimate(sample)
    assert 0 < sum(band) <= bound, band
    assert builds == []


def _tree_builds(monkeypatch):
    """The point counts of the KD-trees built from here on, a list that grows."""
    builds = []

    class Counted(spatial.cKDTree):
        def __init__(self, data, *args, **kwargs):
            builds.append(len(data))
            super().__init__(data, *args, **kwargs)

    # kleindim imports cKDTree from scipy.spatial where it builds each tree
    monkeypatch.setattr(spatial, "cKDTree", Counted)
    return builds


def test_spacing_note_builds_no_tree(lattice, monkeypatch):
    # the seed-0 lattice at depth 14 has points farther than 2^-9 from every
    # other, so the note fires, read from the dyadic index alone; the
    # containment check then builds the one tree of its query
    held = front(lattice, 14)
    sample = _fresh_copy(held.sample)
    builds = _tree_builds(monkeypatch)
    note = box_dimension_estimate(sample).method_note
    assert "points have no other point within 2^-9" in note
    assert builds == []
    ball_containment_check(held.orbit, packing_radius(held.orbit).radius, sample, k_max=CHAIN_K_MAX)
    assert builds == [len(sample)]


@pytest.mark.parametrize("k_max", [9, 12])
def test_spacing_matches_full_query_on_the_lattice(lattice, k_max):
    # 159 and 3,134 of the seed-0 sample's points join the cells about their
    # own, and 58 and 2,910 of them have no other point within 2^-k_max
    sample = front(lattice, 14).sample
    count = isolated_count(sample.points, k_max)
    assert count == {9: 58, 12: 2910}[k_max]
    assert limitset._isolated_count(sample, k_max) == count


@st.composite
def _spacing_cases(draw):
    """Isolated points, near-duplicate pairs about 2^-k_max apart, and exact duplicates."""
    n = draw(st.sampled_from([2, 3]))
    k_max = draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    isolated = draw(st.integers(0, 6))
    gaps = draw(st.lists(st.floats(-3.0, 3.0), max_size=4))  # log2 of pair distance / 2^-k_max
    duplicates = draw(st.integers(0, 3))
    count = max(1, isolated + len(gaps) + duplicates)
    pts = rng.normal(size=(count, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    rows = [pts]
    for i, gap in enumerate(gaps):
        p = pts[i]
        t = rng.normal(size=n)
        t -= (t @ p) * p
        q = p + 2.0 ** (gap - k_max) * t / np.linalg.norm(t)
        rows.append((q / np.linalg.norm(q))[None, :])
    rows.append(pts[count - duplicates:])
    pts = np.concatenate(rows)
    return k_max, pts[rng.permutation(len(pts))]


def _arc_pair(n, k_max, factor, start=0.01):
    """Two points factor * 2^-k_max apart along a great circle, from angle `start`."""
    ang = np.array([start, start + factor * 2.0 ** -k_max])
    pts = np.zeros((2, n))
    pts[:, 0], pts[:, -1] = np.sin(ang), np.cos(ang)
    return pts


def _corner_pair(k_max):
    """Two n = 3 points 2^-k_max/sqrt(2) apart, in diagonal cells of side 2^-k_max:
    (-e, -e, z) and (e, e, z) with e = 2^-k_max / 4."""
    e = 2.0 ** -k_max / 4.0
    z = math.sqrt(1.0 - 2.0 * e * e)
    return np.array([[-e, -e, z], [e, e, z]])


def _straddle_pair(k_max):
    """Two planar points exactly 2^-k_max apart, (-h, y) and (h, y) with h = 2^-(k_max+1)."""
    h = 2.0 ** -(k_max + 1)
    y = math.sqrt(1.0 - h * h)
    return np.array([[-h, y], [h, y]])


def _rounding_pair(k_max):
    """Planar points (-2^-(k_max+60), 1) and (2^-k_max, 1), two cells of side
    2^-k_max apart, whose computed distance rounds to exactly 2^-k_max, and a
    far pair 1e-3 radians apart that lies between them in index order."""
    ang = np.array([0.3, 0.3 + 1e-3])
    return np.concatenate([[[-2.0 ** -(k_max + 60), 1.0], [2.0 ** -k_max, 1.0]],
                           np.column_stack([np.sin(ang), np.cos(ang)])])


def _tangent_pair(p, factor, k_max):
    """p and a point about factor * 2^-k_max from it along a tangent, both unit."""
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    t = np.cross(p, [0.0, 0.0, 1.0])
    q = p + factor * 2.0 ** -k_max * t / np.linalg.norm(t)
    return np.array([p, q / np.linalg.norm(q)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_spacing_cases())
# the only neighbor within 2^-k_max of each point lies in a diagonal cell
@example((10, _corner_pair(10)))
# a neighbor at exactly 2^-k_max, which the note does not flag
@example((4, _straddle_pair(4)))
@example((24, _straddle_pair(24)))
# a pair whose coordinates differ by more than 2^-k_max, at a computed 2^-k_max,
# which the cells of side 2^-k_max about each point would not hold
@example((15, _rounding_pair(15)))
@example((24, _rounding_pair(24)))
# n = 3 pairs at k_max = 24, whose cell indices need 3 * 26 bits together
@example((24, _tangent_pair([0.6, 0.48, 0.64], 0.9, 24)))
@example((24, _tangent_pair([-0.6, 0.48, -0.64], 1.5, 24)))
# a lone pair a little over 2^-k_max apart, inside one cell of side 2^-(k_max-1)
@example((4, _arc_pair(2, 4, 1.5)))
@example((10, _arc_pair(3, 10, 1.2)))
# a lone pair 1.1 * 2^-4 apart in one cell of side 2^-4
@example((4, _arc_pair(2, 4, 1.1, start=0.524)))
@example((4, np.array([[1.0, 0.0]])))
@example((24, np.array([[0.0, 1.0, 0.0]])))
@example((4, np.array([[1.0, 0.0], [-1.0, 0.0]])))
@example((24, np.array([[0.6, 0.8], [0.6, 0.8]])))
@example((24, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])))
def test_spacing_note_matches_full_query(case):
    k_max, pts = case
    sample = _synthetic(pts)
    msg = None
    count = isolated_count(pts, k_max) if len(pts) > 1 else 0
    if count:
        msg = (f"{count} of {len(pts)} points have no other point within 2^-{k_max}; "
               "sample may under-resolve, enumerate deeper")
    k_range = (k_max - 3, k_max)
    with pytest.MonkeyPatch.context() as patch:
        builds = _tree_builds(patch)
        note = box_dimension_estimate(sample, k_range=k_range).method_note
    assert builds == []
    if msg is None:
        assert "no other point" not in note
    else:
        assert f"; {msg}" in note and note.count("no other point") == 1
    if len(pts) > 1:
        assert limitset._isolated_count(sample, k_max) == count


def _seam_pair(k_max):
    """A planar pair 2^-(k_max+1) apart across x = 0, where the Z curve parts them,
    and four far points, each with a twin 1e-6 radians on so that it is not alone."""
    h = 2.0 ** -(k_max + 2)
    y = math.sqrt(1.0 - h * h)
    ang = np.arctan2([0.8, 0.8, -0.8, -0.6], [-0.6, 0.6, 0.6, -0.8])
    ang = np.concatenate([ang, ang + 1e-6])
    return np.concatenate([[[-h, y], [h, y]], np.column_stack([np.cos(ang), np.sin(ang)])])


@pytest.mark.parametrize("k_max, pts, joins, count", [
    # the pair's neighbors in index order lie across the sphere, so both join
    # the cells about their own, where each finds the other
    (9, _seam_pair(9), [([0, 1], limitset._INDEX_BITS - 7, [2.0 ** -10] * 2)], 0),
    # antipodal points: u = 2, and the cells about each hold no other point
    (4, np.array([[1.0, 0.0], [-1.0, 0.0]]),
     [([1, 0], limitset._INDEX_BITS - 2, [math.inf] * 2)], 2),
])
def test_spacing_joins(monkeypatch, k_max, pts, joins, count):
    # the one join's sample rows, shift and nearest distances, at cells of
    # side 2^-(k_max-2)
    sample = _synthetic(pts)
    calls = []
    cell_nearest = limitset._cell_nearest

    def logged(sample, rows, shift):
        nearest = cell_nearest(sample, rows, shift)
        calls.append((sample.dyadic_index.order[rows].tolist(), shift, np.sqrt(nearest).tolist()))
        return nearest

    monkeypatch.setattr(limitset, "_cell_nearest", logged)
    assert limitset._isolated_count(sample, k_max) == count
    assert calls == joins


_EDGE_COORDS = [-1.0 - 1e-9, -1.0, -0.5e-9, -0.0, 0.0, 0.5e-9, 1.0, 1.0 + 1e-9]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2 ** 32 - 1),
    count=st.integers(1, 150),
    edges=st.booleans(),
)
def test_first_unique_matches_lexsort_oracle(n, seed, count, edges):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (count, n))
    # exact copies, copies within a rounding cell, and points on either side of
    # a cell boundary (half-integer multiples of 1e-9)
    half = (np.round(base / 1e-9) + 0.5) * 1e-9
    parts = [base, -base, base[rng.integers(0, count, count)],
             base + rng.uniform(-0.4e-9, 0.4e-9, (count, n)),
             half, np.nextafter(half, -np.inf), np.nextafter(half, np.inf), half[::-1]]
    if edges:
        grid = np.array(np.meshgrid(*[_EDGE_COORDS] * n, indexing="ij")).reshape(n, -1).T
        parts += [grid, grid[::-1]]
    pts = np.concatenate(parts)
    pts = pts[rng.permutation(len(pts))]
    got = _first_unique(pts)
    np.testing.assert_array_equal(got, first_unique_lexsort(pts))
    # one index per rounding cell, the first that lands in it
    first = {}
    for i, key in enumerate(map(tuple, np.round(pts / 1e-9).astype(np.int64).tolist())):
        first.setdefault(key, i)
    assert got.tolist() == sorted(first.values())


def test_first_unique_rejects_points_off_the_key_range():
    with pytest.raises(InternalError, match="rounding key range"):
        _first_unique(np.array([[0.5, 0.5], [3.0, 0.0]]))
    assert _first_unique(np.zeros((0, 2))).tolist() == []


def _logged_queries(monkeypatch):
    """The (k, rows) of each KD-tree query from here on, a list that grows."""
    calls = []

    class Logged(spatial.cKDTree):
        def query(self, x, k=1, **kwargs):
            calls.append((k, len(x)))
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(spatial, "cKDTree", Logged)
    return calls


@pytest.mark.parametrize("group, depth", [("lattice", 14), ("schottky", 10), ("ball_schottky", 8)])
def test_containment_queries_each_centre_once(request, monkeypatch, group, depth):
    # one nearest-point query of every shelled ball's center, and no other
    held = front(request.getfixturevalue(group), depth)
    sample = _fresh_copy(held.sample)
    calls = _logged_queries(monkeypatch)
    orbit = held.orbit
    ball_containment_check(orbit, packing_radius(orbit).radius, sample, k_max=CHAIN_K_MAX)
    shelled = int(np.count_nonzero((orbit.shells >= 1) & (orbit.shells <= CHAIN_K_MAX)))
    assert shelled > 0
    assert calls == [(1, shelled)], calls
