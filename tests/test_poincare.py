"""Truncated series, orbital counting, exponent estimators, basepoint freedom."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import identity_only_orbit
from hypothesis import given, settings
from hypothesis import strategies as st

from kleindim import (
    GroupPresentation,
    InsufficientDataError,
    InteriorPoint,
    MoebiusMap,
    UsageError,
    apply_interior,
    basepoint_independence_check,
    counting_function,
    cyclic_loxodromic,
    enumerate_orbit,
    exponent_estimate,
    fuchsian_lattice,
    hyperbolic_distance,
    origin,
    schottky_f2,
    translation_to_origin,
    truncated_series,
)
from kleindim import poincare
from kleindim.poincare import _available_shells, _clamp_delta

LN9 = math.log(9.0)


def test_series_at_zero_counts_elements(schottky_orbit8):
    ev = truncated_series(schottky_orbit8, 0.0)
    assert abs(ev.value - len(schottky_orbit8)) < 1e-9


def test_series_cyclic_closed_form():
    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 5)
    ev = truncated_series(orbit, 1.0)
    expected = 1.0 + 2.0 * (1.0 - 9.0 ** -5) / 8.0
    assert abs(ev.value - expected) < 1e-9


def test_series_monotone_in_s():
    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 6)
    values = [truncated_series(orbit, s).value for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
    diffs = np.diff(values)
    assert np.all(diffs < 0.0)  # strict: orbit has more than one element


def test_series_monotone_in_depth():
    G = schottky_f2()
    shallow = truncated_series(enumerate_orbit(G, origin(2), 4), 1.0).value
    deep = truncated_series(enumerate_orbit(G, origin(2), 6), 1.0).value
    assert deep >= shallow


def test_series_shell_partials_sum_to_value(schottky_orbit8):
    ev = truncated_series(schottky_orbit8, 0.8)
    total = sum(ev.partials.tolist())
    assert abs(total - ev.value) < 1e-9
    assert schottky_orbit8.shell_runs.shells.shape == ev.partials.shape


def _ball_schottky():
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    return GroupPresentation([g1, g2], model=3, name="schottky_ball")


# group -> basepoints.  The origin is an orbit point of every group.  The
# generator of cyclic_loxodromic, and the first of schottky_f2, moves the
# origin to (0.8, 0), so from there an orbit point lies within rounding of
# the center; on the lattice at depth 2, (-0.2, 0.4) has an image whose
# coordinates are exactly zero but whose stable gap is 1 - 2^-53.
SERIES_GROUPS = {
    "cyclic_loxodromic": (cyclic_loxodromic, [(0.0, 0.0), (0.8, 0.0), (0.1, 0.2)]),
    "schottky_f2": (schottky_f2, [(0.0, 0.0), (0.8, 0.0), (-0.3, 0.05)]),
    "fuchsian_lattice": (fuchsian_lattice, [(0.0, 0.0), (0.3, -0.05), (-0.2, 0.4)]),
    "schottky_ball": (_ball_schottky, [(0.0, 0.0, 0.0), (0.8, 0.0, 0.0), (0.1, 0.2, -0.05)]),
}


def _series_oracle(orbit, s):
    """Per-shell math.fsum of exp(-s d(0, w)), shell k >= 1 where 2^-k <= gap < 2^-k+1.

    Shell 0 holds the orbit points at the center: gap 1 - |w| >= 1, so d(0, w) = 0.
    """
    terms = {}
    for gap in orbit.gaps.tolist():
        k = 0
        if gap < 1.0:
            k = 1
            while not 2.0 ** -k <= gap < 2.0 ** (-k + 1):
                k += 1
        distance = math.log((2.0 - gap) / gap)
        terms.setdefault(k, []).append(math.exp(-s * distance))
    return {k: math.fsum(ts) for k, ts in terms.items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(SERIES_GROUPS)),
    depth=st.integers(1, 6),
    pick=st.integers(0, 2),
    s=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.5),
)
def test_series_shells_and_partials_match_oracle(name, depth, pick, s):
    build, basepoints = SERIES_GROUPS[name]
    orbit = enumerate_orbit(build(), InteriorPoint(basepoints[pick]), depth)
    ev = truncated_series(orbit, s)
    expected = _series_oracle(orbit, s)
    shells = orbit.shell_runs.shells.tolist()
    assert shells == sorted(set(shells)) == sorted(expected)
    # shell 0 points sit at the center, and the identity keeps the origin there
    assert np.linalg.norm(orbit.points[orbit.shells == 0], axis=1).max(initial=0.0) < 1e-15
    if pick == 0:
        assert shells[0] == 0
    for k, partial in zip(shells, ev.partials.tolist()):
        assert partial == pytest.approx(expected[k], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(SERIES_GROUPS))
@pytest.mark.parametrize("depth", [4, 6, 8])
def test_divergence_scan_reads_the_shells_inside_the_horizon(name, depth):
    build, basepoints = SERIES_GROUPS[name]
    for z in basepoints:
        orbit = enumerate_orbit(build(), InteriorPoint(z), depth)
        # the horizon: the widest gap among the words of the final length
        widest = float(orbit.gaps[orbit.word_lengths == depth].max())
        k_cut = math.floor(math.log((2.0 - widest) / widest) / math.log(2.0)) - 1
        shells = [k for k in sorted(set(orbit.shells.tolist())) if 1 <= k <= k_cut]
        diagnostics = {}
        if len(shells) < 5:
            with pytest.raises(InsufficientDataError):
                _available_shells(orbit, diagnostics)
            continue
        at = _available_shells(orbit, diagnostics)
        assert orbit.shell_runs.shells[at].tolist() == shells
        assert diagnostics == {"horizon_shell_cut": k_cut, "shells_used": (shells[0], shells[-1])}


@pytest.mark.parametrize("name", sorted(SERIES_GROUPS))
@pytest.mark.parametrize("bin_width", [0.5, 0.37, 1.0, 3.0])
def test_counting_function_matches_brute_force(name, bin_width, monkeypatch):
    # counting_function reads the module's BIN_WIDTH when it is called
    monkeypatch.setattr(poincare, "BIN_WIDTH", bin_width)
    build, basepoints = SERIES_GROUPS[name]
    orbit = enumerate_orbit(build(), InteriorPoint(basepoints[-1]), 5)
    cf = counting_function(orbit)
    assert cf.thresholds.shape == cf.counts.shape
    brute = [np.count_nonzero(orbit.displacements <= t) for t in cf.thresholds.tolist()]
    assert cf.counts.tolist() == brute
    assert cf.counts[-1] == len(orbit)


@pytest.mark.parametrize("s", [-0.5, math.nan, math.inf])
def test_series_rejects_bad_exponent(schottky_orbit8, s):
    with pytest.raises(UsageError, match="finite and nonnegative"):
        truncated_series(schottky_orbit8, s)


def test_series_radial_form_matches_distance_form():
    # exp(-s d(z', g(z))) equals the radial form of g(z) translated so that
    # z' sits at the origin -- the identity behind reading the series off
    # radial gaps
    rng = np.random.default_rng(21)
    orbit = enumerate_orbit(schottky_f2(), origin(2), 3)
    for _ in range(5):
        v = rng.normal(size=2)
        zp = InteriorPoint(v / np.linalg.norm(v) * rng.uniform(0.0, 0.5))
        move = translation_to_origin(zp)
        for s in (0.5, 1.0, 1.7):
            for point in map(InteriorPoint, orbit.points):
                direct = math.exp(-s * hyperbolic_distance(zp, point))
                w = np.linalg.norm(apply_interior(move, point).coords)
                radial = ((1.0 - w) / (1.0 + w)) ** s
                assert abs(direct - radial) < 1e-9


def test_series_from_shifted_basepoint_within_translation_bound():
    # series evaluated on an orbit enumerated from z differs from the origin
    # series by at most e^{s d(0,z)} termwise
    G = schottky_f2()
    z = InteriorPoint([0.2, -0.1])
    s = 1.0
    v0 = truncated_series(enumerate_orbit(G, origin(2), 4), s).value
    vz = truncated_series(enumerate_orbit(G, z, 4), s).value
    bound = math.exp(s * hyperbolic_distance(origin(2), z))
    assert vz / v0 <= bound * (1.0 + 1e-9)
    assert vz / v0 >= (1.0 / bound) * (1.0 - 1e-9)


def test_counting_identity_only():
    cf = counting_function(identity_only_orbit())
    assert all(n == 1 for n in cf.counts)


def test_counting_cyclic_formula(cyclic_orbit10):
    cf = counting_function(cyclic_orbit10)
    for t, n in zip(cf.thresholds.tolist(), cf.counts.tolist()):
        assert n == 1 + 2 * math.floor(t / LN9)


def test_counting_nondecreasing(schottky_orbit8):
    ns = counting_function(schottky_orbit8).counts
    assert np.all(np.diff(ns) >= 0)
    assert ns[0] >= 1


def test_counting_fit_nonnegative_and_capped(schottky_orbit8, cyclic_orbit10):
    for orbit in (schottky_orbit8, cyclic_orbit10):
        est = exponent_estimate(orbit, method="counting_fit")
        assert 0.0 <= est.delta_est <= orbit.model - 0.5
        assert est.slope_stderr >= 0.0
        assert est.fit_window[0] < est.fit_window[1]


@pytest.mark.parametrize("model, value, expected, note", [
    (2, -0.25, 0.0, "below zero"),
    (2, 1.7, 1.5, "above sanity cap 1.5"),
    (3, 2.6, 2.5, "above sanity cap 2.5"),
    (2, 1.5, 1.5, None),
    (2, 0.0, 0.0, None),
])
def test_clamp_delta_records_the_clamp(model, value, expected, note):
    # an estimate outside [0, n - 0.5] is clamped to the nearer end and says which
    diagnostics = {}
    assert _clamp_delta(value, model, diagnostics) == expected
    assert diagnostics == ({} if note is None else {"clamped": note})


def test_counting_fit_log_linear_on_free_group(schottky_orbit8):
    est = exponent_estimate(schottky_orbit8, method="counting_fit")
    assert est.diagnostics["r_value"] >= 0.99
    assert est.diagnostics["bins_used"] >= 5


def test_cyclic_exponent_shrinks_with_depth(cyclic_orbit10):
    G = cyclic_loxodromic()
    est8 = exponent_estimate(enumerate_orbit(G, origin(2), 8), method="counting_fit")
    est10 = exponent_estimate(cyclic_orbit10, method="counting_fit")
    # the true exponent is 0; the log-slope of a linear count decays like 1/T
    assert est10.delta_est < est8.delta_est < 0.16
    assert est10.delta_est < 0.10


def test_cyclic_divergence_scan_certifies_convergence(cyclic_orbit10):
    G = cyclic_loxodromic()
    for orbit in (enumerate_orbit(G, origin(2), 8), cyclic_orbit10):
        est = exponent_estimate(orbit, method="divergence_scan")
        assert est.delta_est <= 0.05
        assert est.diagnostics.get("converges_at_zero") is True


def test_methods_agree_on_schottky(schottky_orbit10):
    fit = exponent_estimate(schottky_orbit10, method="counting_fit")
    scan = exponent_estimate(schottky_orbit10, method="divergence_scan")
    assert abs(fit.delta_est - scan.delta_est) <= 0.1
    assert "horizon_shell_cut" in scan.diagnostics


def test_lattice_exponent_near_one(lattice, lattice_basepoint):
    orbit = enumerate_orbit(lattice, lattice_basepoint, 10)
    est = exponent_estimate(orbit, method="counting_fit")
    assert 0.85 <= est.delta_est <= 1.0


def test_insufficient_data_errors():
    G = schottky_f2()
    shallow = enumerate_orbit(G, origin(2), 1)
    with pytest.raises(InsufficientDataError):
        exponent_estimate(shallow, method="counting_fit")
    sparse = enumerate_orbit(cyclic_loxodromic(), origin(2), 2)
    with pytest.raises(InsufficientDataError):
        exponent_estimate(sparse, method="divergence_scan")


def test_unknown_method_rejected(cyclic_orbit10):
    with pytest.raises(Exception):
        exponent_estimate(cyclic_orbit10, method="oracle")


def test_basepoint_identical_points(schottky):
    z = InteriorPoint([0.05, -0.1])
    report = basepoint_independence_check(schottky, z, z, 4)
    assert report.estimate_gap == 0.0
    assert report.within_bounds
    assert abs(report.ratio_low - 1.0) < 1e-12
    assert abs(report.ratio_high - 1.0) < 1e-12


def test_basepoint_shift_bounded_gap(schottky):
    z1 = origin(2)
    z2 = InteriorPoint([0.1, 0.0])
    report = basepoint_independence_check(schottky, z1, z2, 8)
    assert report.estimate_gap <= 0.05
    assert report.within_bounds
    lo = math.exp(-report.separation) * (1.0 - 1e-9)
    hi = math.exp(report.separation) * (1.0 + 1e-9)
    assert lo <= report.ratio_low <= report.ratio_high <= hi


def test_basepoint_termwise_bound_random_pairs():
    rng = np.random.default_rng(22)
    G = cyclic_loxodromic()
    for _ in range(1000):
        pts = []
        for _ in range(2):
            v = rng.normal(size=2)
            pts.append(InteriorPoint(v / np.linalg.norm(v) * rng.uniform(0.0, 0.6)))
        report = basepoint_independence_check(G, pts[0], pts[1], 6)
        assert report.within_bounds
