"""End-to-end acceptance checks.

One test per shipped guarantee, each asserting the stated tolerance and
printing one PASS/FAIL summary line with the measured numbers (shown with
pytest -s, or in the captured output of a failing run).  Expensive runs are
shared through the session fixtures in conftest.py, which also record wall
time so the runtime budget is checked against the real verification call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import stats

from kleindim import (
    InteriorPoint,
    LimitSample,
    MoebiusMap,
    apply_interior,
    ball_containment_check,
    ball_volumes,
    basepoint_independence_check,
    box_dimension_estimate,
    cantor_test,
    check_packing_disjoint,
    choose_basepoint,
    cyclic_loxodromic,
    enumerate_orbit,
    euclidean_balls,
    find_loxodromic,
    fuchsian_lattice,
    hyperbolic_distance,
    origin,
    packing_radius,
    schottky_f2,
    truncated_series,
)

CANTOR_DIM = math.log(2.0) / math.log(3.0)


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _random_map(rng, model):
    if model == 2:
        t = rng.uniform(0.1, 2.0)
        a = math.cosh(t) * cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        b = math.sinh(t) * cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return MoebiusMap(a, b, b.conjugate(), a.conjugate(), model=2)
    a = complex(rng.normal(), rng.normal())
    if abs(a) < 0.3:
        a += 1.0
    b = complex(rng.normal(), rng.normal())
    c = complex(rng.normal(), rng.normal())
    return MoebiusMap(a, b, c, (1.0 + b * c) / a, model=3)


def _random_interior(rng, n, max_norm=0.9):
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    return InteriorPoint(v * max_norm * rng.uniform(0.0, 1.0) ** (1.0 / n))


def _synthetic(points):
    pts = np.asarray(points, dtype=float)
    return LimitSample(points=pts, witnesses=[(i,) for i in range(len(pts))],
                       source="synthetic_test_set")


def test_main_inequality_all_fixtures(verify_cyclic10, verify_schottky10,
                                      verify_lattice10):
    runs = [verify_cyclic10, verify_schottky10, verify_lattice10]
    ok = True
    parts = []
    for report, seconds in runs:
        good = report.passed and report.tolerance == 0.1 and seconds <= 60.0
        ok = ok and good
        parts.append(
            f"{report.group_name} delta={report.delta_est:.4f} "
            f"dim={report.dim_est:.4f} margin={report.margin:+.4f} "
            f"time={seconds:.1f}s"
        )
    _report("exponent <= dimension + 0.1 at depth 10, each under 60s",
            ok, "; ".join(parts))


def test_schottky_two_sided_agreement(verify_schottky10):
    report, _ = verify_schottky10
    gap = abs(report.delta_est - report.dim_est)
    _report("schottky_f2 estimates agree within 0.15 at depth 10",
            gap <= 0.15,
            f"delta={report.delta_est:.4f} dim={report.dim_est:.4f} gap={gap:.4f}")


def test_cyclic_series_closed_form(cyclic):
    orbit = enumerate_orbit(cyclic, origin(2), 5)
    value = truncated_series(orbit, 1.0).value
    expected = 1.0 + 2.0 * (1.0 - 9.0 ** -5) / 8.0
    err = abs(value - expected)
    _report("cyclic series at s=1, depth 5 matches closed form within 1e-9",
            err <= 1e-9, f"value={value:.12f} expected={expected:.12f} err={err:.2e}")


def test_distance_formula_and_isometry_invariance():
    d = hyperbolic_distance(origin(2), InteriorPoint([0.5, 0.0]))
    anchor_err = abs(d - math.log(3.0))
    rng = np.random.default_rng(2026)
    worst = 0.0
    for model in (2, 3):
        for _ in range(5000):
            g = _random_map(rng, model)
            p = _random_interior(rng, model)
            q = _random_interior(rng, model)
            moved = hyperbolic_distance(apply_interior(g, p), apply_interior(g, q))
            worst = max(worst, abs(moved - hyperbolic_distance(p, q)))
    _report("distance anchor ln 3 within 1e-12; invariance over 10^4 maps within 1e-8",
            anchor_err <= 1e-12 and worst <= 1e-8,
            f"anchor_err={anchor_err:.2e} worst_invariance_err={worst:.2e}")


def test_dimension_estimator_oracles():
    ang = 2.0 * np.pi * np.arange(4096) / 4096
    circle = box_dimension_estimate(
        _synthetic(np.column_stack([np.cos(ang), np.sin(ang)])), k_range=(3, 9)
    ).dim_est
    two = box_dimension_estimate(
        _synthetic([[1.0, 0.0], [-1.0, 0.0]]), k_range=(3, 9)
    ).dim_est
    cantor = box_dimension_estimate(cantor_test(), k_range=(3, 9)).dim_est
    ok = (abs(circle - 1.0) <= 0.05 and abs(two) <= 0.05
          and abs(cantor - CANTOR_DIM) <= 0.05)
    _report("box-dimension oracles within 0.05 on scales k in [3, 9]", ok,
            f"circle={circle:.4f} two_point={two:.4f} "
            f"cantor={cantor:.4f} (target {CANTOR_DIM:.4f})")


def test_packing_disjointness_and_negative_control():
    parts = []
    ok = True
    for G in (cyclic_loxodromic(), schottky_f2(), fuchsian_lattice()):
        bp = choose_basepoint(find_loxodromic(G, 6), G, 6)
        orbit = enumerate_orbit(G, bp, 10)
        pk = packing_radius(orbit)
        result = check_packing_disjoint(orbit, pk.radius)
        ok = ok and result.ok
        parts.append(f"{G.name} a={pk.radius:.4f} disjoint={result.ok}")

    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 8)
    pk = packing_radius(orbit)
    doubled = 2.0 * pk.radius
    assert doubled > pk.min_displacement / 2.0
    violated = check_packing_disjoint(orbit, doubled)
    ok = ok and not violated.ok
    parts.append(f"cyclic doubled a={doubled:.4f} disjoint={violated.ok}")
    _report("orbit balls at computed radius are disjoint at depth 10; doubled radius overlaps",
            ok, "; ".join(parts))


def test_volume_ratio_constancy(schottky_orbit8, schottky_orbit10):
    spreads = []
    for orbit in (schottky_orbit8, schottky_orbit10):
        # ball volume over gap^n, elementwise, at the packing radius
        _, radii = euclidean_balls(orbit.points, packing_radius(orbit).radius, orbit.gaps)
        ratios = ball_volumes(radii, orbit.model) / orbit.gaps ** orbit.model
        spreads.append(ratios.max() / ratios.min())
    spread8, spread10 = spreads
    ok = spread10 <= 100.0 and spread10 < 2.0 * spread8
    _report("ball-volume/gap^n ratio spread <= 100 and stable from depth 8 to 10",
            ok, f"spread8={spread8:.3f} spread10={spread10:.3f}")


def test_ball_containment_constancy(schottky_orbit10, schottky_sample10):
    pk = packing_radius(schottky_orbit10)
    report = ball_containment_check(schottky_orbit10, pk.radius,
                                    schottky_sample10, k_max=12)
    cs = report.c[(report.shells >= 2) & (report.shells <= 12)]
    bounded = len(cs) > 0 and np.all(cs <= 4.0 * np.median(cs))

    far = _synthetic([[0.0, -1.0]])
    bad = ball_containment_check(schottky_orbit10, pk.radius, far, k_max=10)
    ks = bad.shells.astype(float)
    bad_cs = bad.c
    slope = stats.linregress(ks, np.log2(bad_cs)).slope
    exploding = 0.9 <= slope <= 1.1
    _report("containment constants c_k <= 4x median on shells k in [2, 12]; "
            "bogus sample doubles per shell",
            bounded and exploding,
            f"c_k range [{cs.min():.3f}, {cs.max():.3f}] median={np.median(cs):.3f}; "
            f"negative-control log2 slope={slope:.3f}")


def test_series_chain_finiteness(chain_schottky10):
    rep = chain_schottky10
    dim = rep.dim_estimate.dim_est
    exponents_ok = (abs(rep.s - (dim + 0.4)) < 1e-12
                    and abs(rep.t - (dim + 0.2)) < 1e-12)
    constants = (rep.c1, rep.c2, rep.c3, rep.c_hat)
    finite = all(math.isfinite(c) and c > 0.0 for c in constants)
    flags = (rep.radial_ok and rep.volume_ok and rep.packing_ok and rep.tail_ok
             and rep.chain_ok)
    tail_err = abs(rep.tail_partial_sum - rep.tail_closed_form)
    bound = 1.0 / (2.0 ** (rep.s - rep.t) - 1.0) + 1.0
    ok = (exponents_ok and finite and flags
          and tail_err <= 1e-9 and rep.tail_partial_sum <= bound)
    _report("shell-by-shell chain holds at s=dim+0.4, t=dim+0.2 with finite constants; "
            "tail sum matches geometric closed form within 1e-9",
            ok,
            f"C1={rep.c1:.4f} C2={rep.c2:.4f} C3={rep.c3:.4f} c_hat={rep.c_hat:.4f} "
            f"tail={rep.tail_partial_sum:.6f} closed={rep.tail_closed_form:.6f} "
            f"err={tail_err:.2e} bound={bound:.4f}")


def test_basepoint_independence(schottky):
    report = basepoint_independence_check(
        schottky, origin(2), InteriorPoint([0.1, 0.0]), 8
    )
    ok = report.estimate_gap <= 0.05 and report.within_bounds
    _report("basepoints 0.1 apart: estimates agree within 0.05 and every term "
            "obeys the triangle-inequality ratio bound",
            ok,
            f"gap={report.estimate_gap:.4f} separation={report.separation:.4f} "
            f"ratios=[{report.ratio_low:.4f}, {report.ratio_high:.4f}] "
            f"elements={report.n_elements}")
