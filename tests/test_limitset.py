"""Limit-set sampling, grid volumes, box dimension, and shell diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_unique_np, grid_cell_count_stencil
from scipy import stats
from scipy.spatial import cKDTree

from kleindim import (
    GroupBall,
    GroupElement,
    GroupPresentation,
    LimitSample,
    MoebiusMap,
    OrbitSet,
    ResolutionError,
    UsageError,
    ball_containment_check,
    ball_volumes,
    box_dimension_estimate,
    cantor_test,
    deep_orbit_sample,
    enumerate_orbit,
    euclidean_balls,
    fixed_points,
    neighborhood_volume,
    origin,
    packing_radius,
    sample_limit_set,
    schottky_f2,
    volume_ratio_report,
)
from kleindim.geometry import boundary_images
from kleindim.limitset import K_RANGE, _SUBCELL_BITS, _first_unique, _grid_cell_count
from kleindim.verify import sampling_front

CANTOR_DIM = math.log(2.0) / math.log(3.0)


def _boost(t):
    return MoebiusMap(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t), model=2)


def _identity_only_orbit():
    pres = GroupPresentation([_boost(0.5)], model=2)
    ball = GroupBall(pres, np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex),
                     np.array([-1]), np.array([0]), np.array([0]), 1)
    return OrbitSet(ball, origin(2))


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
    images = [boundary_images(entries, fp.coords) for fp in fixed_points(schottky_h.map)]
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


def test_box_dimension_cantor():
    sample = cantor_test(12)
    for k_range in ((3, 9), (3, 10)):
        est = box_dimension_estimate(sample, k_range=k_range)
        assert abs(est.dim_est - CANTOR_DIM) <= 0.05


def test_box_dimension_report_fields(schottky_sample10):
    est = box_dimension_estimate(schottky_sample10)
    assert 0.0 <= est.dim_est <= 2.0
    assert est.fit_window == (3, 9)
    ks = [k for k, _ in est.per_scale_slopes]
    assert ks == list(range(3, 9))
    assert "min local slope" in est.method_note


def test_box_dimension_usage_errors():
    sample = _synthetic([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(UsageError):
        box_dimension_estimate(sample, k_range=(3, 5))
    with pytest.raises(ResolutionError):
        box_dimension_estimate(sample, k_range=(3, 9), require_resolved=True)


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
    rep = volume_ratio_report(_identity_only_orbit(), 1.0)
    expected = math.pi * math.tanh(0.5) ** 2
    assert abs(rep.min_ratio - expected) < 1e-9
    assert abs(rep.max_ratio - expected) < 1e-9


def test_volume_ratio_spread_stable(schottky_orbit8, schottky_orbit10):
    rep8 = volume_ratio_report(schottky_orbit8, packing_radius(schottky_orbit8).radius)
    rep10 = volume_ratio_report(schottky_orbit10, packing_radius(schottky_orbit10).radius)
    spread8 = rep8.max_ratio / rep8.min_ratio
    spread10 = rep10.max_ratio / rep10.min_ratio
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
    cs = [c for k, _, c in report.records if 2 <= k <= 10]
    assert len(cs) >= 3
    assert max(cs) / min(cs) <= 4.0


def test_containment_schottky_constancy(schottky_orbit10, schottky_sample10):
    pk = packing_radius(schottky_orbit10)
    report = ball_containment_check(schottky_orbit10, pk.radius, schottky_sample10)
    cs = np.asarray(report.c_values())
    assert report.c_hat == cs.max()
    assert np.all(cs <= 4.0 * np.median(cs))
    ks = np.asarray([k for k, _, _ in report.records], dtype=float)
    slope = stats.linregress(ks, np.log(cs)).slope
    assert abs(slope) <= 0.2


def test_containment_negative_control(schottky_orbit10):
    far = _synthetic([[0.0, -1.0]])
    pk = packing_radius(schottky_orbit10)
    report = ball_containment_check(schottky_orbit10, pk.radius, far, k_max=10)
    ks = np.asarray([k for k, _, _ in report.records], dtype=float)
    cs = np.asarray([c for _, _, c in report.records])
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [3, 6, 9])
def test_grid_count_dense_clusters(n, k):
    # 2,400 points in 300 clusters of 8, each cluster a fraction of a prefilter
    # sub-cell wide: sub-cells hold several points, and past a cluster's rim
    # the distance to its representative and to its nearest point differ
    rng = np.random.default_rng(10 * n + k)
    cell = 2.0 ** -k
    pts = np.repeat(rng.normal(size=(300, n)), 8, axis=0)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts += 0.02 * cell * rng.normal(size=pts.shape)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    sub_cells = np.unique(np.floor(pts / (cell / 2 ** _SUBCELL_BITS)), axis=0)
    assert len(sub_cells) <= len(pts) // 2
    for factor in (0.25, 1.0, 2.66):
        _assert_matches_oracle(pts, factor * cell, cell)


@pytest.mark.parametrize("group, depth, chain_shells", [
    ("ball_schottky", 6, 2),  # the n = 3 oracle's full stencil is slow at c_hat ~ 5.4
    ("lattice", 10, None),
])
def test_grid_count_pipeline_samples(request, group, depth, chain_shells):
    """Box counts over K_RANGE and the chain's c_hat * 2^-k neighborhoods."""
    orbit, sample = sampling_front(request.getfixturevalue(group), depth)
    for k in range(K_RANGE[0], K_RANGE[1] + 1):
        _assert_matches_oracle(sample.points, 2.0 ** -k, 2.0 ** -k)
    containment = ball_containment_check(orbit, packing_radius(orbit).radius, sample)
    for k, _, _ in containment.records[:chain_shells]:
        _assert_matches_oracle(sample.points, containment.c_hat * 2.0 ** -k, 2.0 ** -k)
