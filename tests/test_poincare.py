"""Truncated series, orbital counting, exponent estimators, basepoint freedom."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kleindim import (
    apply_interior,
    translation_to_origin,
    GroupBall,
    GroupElement,
    GroupPresentation,
    InsufficientDataError,
    InteriorPoint,
    MoebiusMap,
    OrbitSet,
    basepoint_independence_check,
    counting_function,
    cyclic_loxodromic,
    enumerate_orbit,
    exponent_estimate,
    hyperbolic_distance,
    origin,
    schottky_f2,
    truncated_series,
)

LN9 = math.log(9.0)


def _boost(t):
    return MoebiusMap(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t), model=2)


def _identity_only_orbit():
    pres = GroupPresentation([_boost(0.5)], model=2)
    ball = GroupBall(pres, np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex),
                     np.array([-1]), np.array([0]), np.array([0]), 1)
    return OrbitSet(ball, origin(2))


def test_series_at_zero_counts_elements(schottky_orbit8):
    ev = truncated_series(schottky_orbit8, 0.0)
    assert abs(ev.value - len(schottky_orbit8)) < 1e-9


def test_series_cyclic_closed_form():
    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 5)
    ev = truncated_series(orbit, 1.0)
    expected = 1.0 + 2.0 * (1.0 - 9.0 ** -5) / 8.0
    assert abs(ev.value - expected) < 1e-9
    assert ev.truncation_word_length == 5


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
    total = ev.unshelled + sum(p for _, p in ev.shell_partials)
    assert abs(total - ev.value) < 1e-9
    k0, p0 = ev.shell_partials[0]
    assert ev.partial_for(k0) == p0


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
            for el in orbit.elements:
                direct = math.exp(-s * hyperbolic_distance(zp, el.orbit_point))
                w = np.linalg.norm(apply_interior(move, el.orbit_point).coords)
                radial = ((1.0 - w) / (1.0 + w)) ** s
                assert abs(direct - radial) < 1e-9


def test_series_reference_point_gives_displacement_form():
    G = schottky_f2()
    z = InteriorPoint([0.15, 0.25])
    orbit = enumerate_orbit(G, z, 3)
    for s in (0.5, 1.3):
        ev = truncated_series(orbit, s, reference=z)
        direct = sum(
            math.exp(-s * hyperbolic_distance(z, el.orbit_point))
            for el in orbit.elements
        )
        assert abs(ev.value - direct) < 1e-9


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
    cf = counting_function(_identity_only_orbit())
    assert all(n == 1 for n in cf.values())


def test_counting_cyclic_formula(cyclic_orbit10):
    cf = counting_function(cyclic_orbit10)
    for t, n in cf.counts:
        assert n == 1 + 2 * math.floor(t / LN9)


def test_counting_nondecreasing(schottky_orbit8):
    ns = np.asarray(counting_function(schottky_orbit8).values())
    assert np.all(np.diff(ns) >= 0)
    assert ns[0] >= 1


def test_counting_fit_nonnegative_and_capped(schottky_orbit8, cyclic_orbit10):
    for orbit in (schottky_orbit8, cyclic_orbit10):
        est = exponent_estimate(orbit, method="counting_fit")
        assert 0.0 <= est.delta_est <= orbit.model - 0.5
        assert est.slope_stderr >= 0.0
        assert est.fit_window[0] < est.fit_window[1]


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
