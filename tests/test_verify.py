"""End-to-end inequality verification and the shell-by-shell bound chain."""

from __future__ import annotations

import dataclasses
import math
import sys
import weakref

import numpy as np
import pytest
import scipy.spatial

from kleindim import (
    GroupPresentation,
    InsufficientDataError,
    MoebiusMap,
    PackingCheck,
    StageFailure,
    UsageError,
    compose,
    fuchsian_lattice,
    inverse,
    schottky_f2,
    series_chain_report,
    truncated_series,
    verify_inequality,
)
from kleindim import group, limitset, verify
from kleindim.group import ball_key
from kleindim.limitset import ball_volumes
from kleindim.verify import front


def _ball_schottky():
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    return GroupPresentation([g1, g2], model=3, name="schottky_ball")


def test_verify_cyclic_divergence_scan(cyclic):
    report = verify_inequality(cyclic, 10, exponent_method="divergence_scan")
    assert report.delta_est <= 0.05
    assert report.dim_est <= 0.05
    assert report.passed
    assert report.sample_size == 2


def test_verify_cyclic_counting_fit(verify_cyclic10, cyclic):
    report, _ = verify_cyclic10
    assert report.passed == (report.margin >= -report.tolerance)
    assert report.passed  # the 1/T decay of the log-slope is inside 0.1 by depth 10
    # at depth 8 the same estimator misses the default tolerance: the report
    # must say so rather than pass
    report8 = verify_inequality(cyclic, 8)
    assert report8.margin < -report8.tolerance
    assert not report8.passed


def test_verify_schottky(verify_schottky10):
    report, _ = verify_schottky10
    assert report.passed
    assert report.margin >= -0.05
    assert abs(report.delta_est - report.dim_est) <= 0.15
    assert report.orbit_size == 118097


def test_verify_lattice(verify_lattice10, lattice):
    report, _ = verify_lattice10
    assert report.passed
    assert 0.85 <= report.delta_est <= 1.0
    # the depth-10 sample (754 points) under-resolves the fine scales; the
    # full-circle dimension needs a deeper sample to enter its band
    report14 = verify_inequality(lattice, 14)
    assert 0.9 <= report14.dim_est <= 1.05
    assert report14.passed


def test_verify_cross_model_agreement(schottky):
    planar = verify_inequality(schottky, 6)
    ball = verify_inequality(_ball_schottky(), 6)
    assert planar.passed and ball.passed
    # identical matrices acting in either chart produce the same distances
    assert abs(planar.delta_est - ball.delta_est) <= 1e-9
    assert abs(planar.dim_est - ball.dim_est) <= 0.01


def test_verify_usage_errors(cyclic, ball_builds):
    with pytest.raises(UsageError):
        verify_inequality(cyclic, 5)
    with pytest.raises(UsageError):
        verify_inequality(cyclic, 10, tolerance=0.0)
    for tolerance in (math.nan, math.inf):
        with pytest.raises(UsageError, match="finite"):
            verify_inequality(cyclic, 10, tolerance=tolerance)
    # an unknown estimator is a usage error before the front, not a failed stage
    with pytest.raises(UsageError, match="unknown exponent method 'bogus'"):
        verify_inequality(cyclic, 10, exponent_method="bogus")
    assert ball_builds == []


def test_verify_stage_failure_names_stage():
    parabolic = GroupPresentation([MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)], model=3)
    with pytest.raises(StageFailure) as exc:
        verify_inequality(parabolic, 6)
    msg = str(exc.value)
    assert "loxodromic_search" in msg
    assert "elementary" in msg


def test_divergence_scan_raises_when_the_horizon_leaves_too_few_shells(lattice):
    # at depth 10 only shells 1..4 of the lattice lie within the horizon cut;
    # summing the cut-off shells reads as convergence at s = 0, a false PASS
    with pytest.raises(StageFailure) as exc:
        verify_inequality(lattice, 10, exponent_method="divergence_scan")
    assert exc.value.stage == "exponent_estimate"
    assert isinstance(exc.value.original, InsufficientDataError)
    assert "horizon cut k <= 4" in str(exc.value)


def test_chain_schottky(schottky_orbit10, chain_schottky10):
    rep = chain_schottky10
    assert rep.chain_ok
    assert rep.radial_ok and rep.volume_ok and rep.packing_ok and rep.tail_ok
    for c in (rep.c1, rep.c2, rep.c3):
        assert math.isfinite(c) and c > 0.0
    # quantization slack on the volume comparison is the cell-count factor 2^n
    assert rep.c2 <= 2.0 ** schottky_orbit10.model * (1.0 + 1e-9)
    s_minus_t = rep.s - rep.t
    geometric_bound = 1.0 / (2.0 ** s_minus_t - 1.0) + 1.0
    assert rep.tail_partial_sum <= geometric_bound
    assert abs(rep.tail_partial_sum - rep.tail_closed_form) <= 1e-9 * rep.tail_closed_form


def test_chain_rows_positive_and_ordered(chain_schottky10):
    rep = chain_schottky10
    assert rep.k.size
    ks = rep.k.tolist()
    assert ks == sorted(ks)
    assert np.all(rep.count > 0)
    for column in (rep.series_partial, rep.lhs, rep.mid, rep.rhs, rep.tail):
        assert column.shape == rep.k.shape
        assert np.all(column > 0.0)


def test_chain_columns_match_the_orbit(schottky, chain_schottky10):
    rep = chain_schottky10
    orbit = front(schottky, rep.depth).orbit
    series = truncated_series(orbit, rep.s)
    partial = dict(zip(orbit.shell_runs.shells.tolist(), series.partials.tolist()))
    assert rep.k.tolist() == [k for k in range(1, 13) if np.any(orbit.shells == k)]
    for k, count, series_partial, lhs, tail in zip(
        rep.k.tolist(), rep.count.tolist(), rep.series_partial.tolist(), rep.lhs.tolist(),
        rep.tail.tolist(),
    ):
        in_shell = orbit.shells == k
        assert count == np.count_nonzero(in_shell)
        assert series_partial == partial[k]
        assert lhs == pytest.approx(math.fsum((orbit.gaps[in_shell] ** rep.s).tolist()),
                                    rel=1e-12, abs=0.0)
        assert tail == 2.0 ** (-k * (rep.s - rep.t))
    assert rep.c1 == max(rep.lhs / rep.mid)
    assert rep.c2 == max(rep.mid / rep.rhs)
    assert rep.c3 == max(rep.rhs / rep.tail)


def test_chain_constants_stable_in_depth(schottky, chain_schottky10):
    deep = chain_schottky10
    shallow = series_chain_report(schottky, 8, deep.s, deep.t)
    for attr in ("c1", "c2", "c3"):
        lo, hi = getattr(shallow, attr), getattr(deep, attr)
        assert hi / lo < 2.0 and lo / hi < 2.0


def test_chain_cyclic_two_per_shell(cyclic):
    rep = series_chain_report(cyclic, 10, 0.4, 0.2)
    assert rep.chain_ok
    for k, count, lhs in zip(rep.k.tolist(), rep.count.tolist(), rep.lhs.tolist()):
        assert count <= 2
        predicted = 2.0 * 2.0 ** (-k * rep.s)
        assert 0.5 * predicted <= lhs <= 2.5 * predicted


def test_chain_fails_when_balls_overlap(schottky, monkeypatch):
    overlap = PackingCheck(ok=False, pair=(0, 1), distance=0.0)
    monkeypatch.setattr(verify, "check_packing_disjoint", lambda orbit, radius: overlap)
    rep = series_chain_report(schottky, 8, 1.06, 0.86)
    assert rep.radial_ok and rep.volume_ok and rep.tail_ok
    assert not rep.packing_ok and not rep.chain_ok


def test_chain_builds_one_sample_tree(schottky, monkeypatch):
    samples, trees = [], []
    real_sample = verify.sample_limit_set

    def recording_sample(*args):
        samples.append(real_sample(*args))
        return samples[-1]

    monkeypatch.setattr(verify, "sample_limit_set", recording_sample)
    real_tree = scipy.spatial.cKDTree

    def recording_tree(data, *args, **kwargs):
        trees.append(np.array(data, dtype=float))
        return real_tree(data, *args, **kwargs)

    # kleindim imports cKDTree from scipy.spatial where it builds each tree
    monkeypatch.setattr(scipy.spatial, "cKDTree", recording_tree)
    series_chain_report(schottky, 8, 1.06, 0.86)
    assert len(samples) == 1
    over_sample = [t for t in trees if np.array_equal(t, samples[0].points)]
    assert len(over_sample) == 1


def test_chain_maps_its_balls_once(lattice, monkeypatch):
    calls = []
    real = limitset.euclidean_balls

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kleindim") and getattr(module, "euclidean_balls", None) is real:
            monkeypatch.setattr(module, "euclidean_balls", counted)
    rep = series_chain_report(lattice, 14, 1.4, 1.2)
    orbit = front(lattice, 14).orbit
    runs = orbit.shell_runs
    lo, hi = runs.window(1, verify.CHAIN_K_MAX)
    rows = runs.rows(lo, hi)
    assert calls == [rows.size]  # the containment check's balls, read again by the chain
    _, radii = real(orbit.points[rows], rep.packing_radius, gaps=orbit.gaps[rows])
    packed = runs.window_sums(ball_volumes(radii, 2), lo, hi)
    assert rep.mid.tolist() == [2.0 ** (-k * (rep.s - 2)) * v
                                for k, v in zip(rep.k.tolist(), packed.tolist())]


def test_chain_usage_errors(schottky, cyclic, ball_builds, monkeypatch):
    packing_checks = []
    monkeypatch.setattr(verify, "check_packing_disjoint",
                        lambda *args: packing_checks.append(args))
    with pytest.raises(UsageError):
        series_chain_report(cyclic, 7, 0.4, 0.2)
    with pytest.raises(UsageError) as exc:
        series_chain_report(schottky, 8, 0.7, 0.5)
    assert "box-dimension estimate" in str(exc.value)
    # t <= dim_est is known once the box estimate is in, before the packing check
    assert len(ball_builds) == 1 and packing_checks == []
    ball_builds.clear()
    for s, t in ((0.2, 0.4), (0.4, 0.4)):
        with pytest.raises(UsageError, match="s > t"):
            series_chain_report(cyclic, 8, s, t)
    assert ball_builds == []
    for s, t in ((math.inf, 0.4), (math.nan, 0.4), (0.6, math.nan)):
        with pytest.raises(UsageError, match="finite"):
            series_chain_report(cyclic, 8, s, t)
    for k_max in (0, -3):
        with pytest.raises(UsageError, match="^chain k_max must be at least 1"):
            series_chain_report(cyclic, 8, 0.4, 0.2, k_max=k_max)
    # the grids stop at 2^-24, whatever shells the orbit reaches
    with pytest.raises(UsageError, match="^chain k_max must be at most 24, got 25$"):
        series_chain_report(cyclic, 8, 0.4, 0.2, k_max=25)
    assert ball_builds == []


def test_chain_runs_at_the_finest_k_max(lattice):
    # k_max = 24 is the finest grid scale; the lattice's shells stop at 10
    rep = series_chain_report(lattice, 10, 1.5, 1.3, k_max=24)
    assert rep.k.tolist() == list(range(1, 11)) and rep.chain_ok


@pytest.mark.parametrize("gap", [2e-9, 1e-9])
def test_chain_tail_closed_form_at_a_tiny_gap(lattice, gap):
    # q = 2^-(s - t) lies within 1.4e-9 of 1, where q(1 - q^K)/(1 - q) in plain
    # subtractions cancels past the 1e-9 tail test
    rep = series_chain_report(lattice, 8, 1.3, 1.3 - gap)
    assert rep.radial_ok and rep.volume_ok and rep.packing_ok
    assert rep.tail_ok and rep.chain_ok
    assert abs(rep.tail_partial_sum - rep.tail_closed_form) <= 1e-12 * rep.tail_closed_form


def _assert_same_bits(a, b, name="report"):
    """Every field of two reports equal bit for bit, arrays with their dtypes."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), name
        for f in dataclasses.fields(a):
            _assert_same_bits(getattr(a, f.name), getattr(b, f.name), f"{name}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), name
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_bits(x, y, f"{name}[{i}]")
    elif isinstance(a, (np.ndarray, float, np.floating)):
        x, y = np.asarray(a), np.asarray(b)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    else:
        assert a == b, name


@pytest.mark.parametrize("make, depth", [
    (schottky_f2, 8),
    (fuchsian_lattice, 12),
    (_ball_schottky, 8),
])
def test_chain_after_verify_reuses_the_report_front(make, depth, ball_builds):
    G = make()
    report = verify_inequality(G, depth)
    s, t = report.dim_est + 0.4, report.dim_est + 0.2
    ball_builds.clear()
    # a presentation with the same entries shares the front the report was computed from
    shared = series_chain_report(make(), depth, s, t)
    assert ball_builds == []
    assert shared.dim_estimate is report.dim_estimate
    held = front(G, depth)
    assert held.orbit is report.orbit and held.sample is report.sample
    assert held.key == ball_key(G, depth)
    # an emptied slot rebuilds once, with the same bits
    verify._held = None
    fresh = series_chain_report(G, depth, s, t)
    assert len(ball_builds) == 1
    _assert_same_bits(shared, fresh)


def test_repeated_verify_reuses_the_front(ball_builds):
    report = verify_inequality(schottky_f2(), 8)
    ball = weakref.ref(report.orbit.ball)
    del report
    # the process holds the front, not the report
    again = verify_inequality(schottky_f2(), 8, exponent_method="divergence_scan")
    assert len(ball_builds) == 1 and again.orbit.ball is ball()
    verify._held = None
    fresh = verify_inequality(schottky_f2(), 8, exponent_method="divergence_scan")
    assert len(ball_builds) == 2
    for name in ("delta_estimate", "dim_estimate", "margin", "passed"):
        _assert_same_bits(getattr(again, name), getattr(fresh, name), name)


def test_verify_on_another_key_drops_the_held_front(schottky, monkeypatch):
    first = weakref.ref(verify_inequality(schottky, 7).orbit.ball)
    assert verify_inequality(schottky, 7, tolerance=0.2).orbit.ball is first()
    alive = []
    real = verify.build_ball

    def build_after_drop(*args):
        alive.append(first() is not None)
        return real(*args)

    monkeypatch.setattr(verify, "build_ball", build_after_drop)
    verify_inequality(schottky, 6)
    # the first front was dropped before its successor was built
    assert alive == [False] and first() is None


def test_front_reuse_misses_other_keys(schottky, ball_builds, monkeypatch):
    report = verify_inequality(schottky, 8)
    s, t = report.dim_est + 0.4, report.dim_est + 0.2
    half = complex(math.cos(0.3), math.sin(0.3))
    turn = MoebiusMap(half, 0.0, 0.0, half.conjugate(), model=2)
    rotated = GroupPresentation(
        [compose(compose(inverse(turn), g), turn) for g in schottky.generators], model=2)
    for presentation, depth in ((rotated, 8), (schottky, 9)):
        ball_builds.clear()
        series_chain_report(presentation, depth, s, t)
        assert len(ball_builds) == 1, (presentation, depth)
    for name, value in (("DEDUP_TOL", 2 * group.DEDUP_TOL), ("ORBIT_CAP", group.ORBIT_CAP - 1)):
        ball_builds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(group, name, value)
            orbit = front(schottky, 8).orbit
        assert len(ball_builds) == 1 and orbit is not report.orbit, name
