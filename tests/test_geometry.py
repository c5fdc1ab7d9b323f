"""Moebius-map action, classification, fixed points, and the distance formula."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from oracles import apply_boundary, hyperbolic_distance

from kleindim import (
    BoundaryGeodesic,
    BoundaryPoint,
    InteriorPoint,
    MapClass,
    MoebiusMap,
    UsageError,
    apply_interior,
    classify,
    compose,
    fixed_points,
    halfplane_to_disc,
    inverse,
    origin,
    translation_to_origin,
)
from kleindim.errors import ModelMismatchError

LN3 = math.log(3.0)


def _random_disc_map(rng):
    t = rng.uniform(0.1, 2.0)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    beta = rng.uniform(0.0, 2.0 * np.pi)
    a = math.cosh(t) * cmath.exp(1j * alpha)
    b = math.sinh(t) * cmath.exp(1j * beta)
    return MoebiusMap(a, b, b.conjugate(), a.conjugate(), model=2)


def _random_halfspace_map(rng):
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    c = complex(rng.normal(), rng.normal())
    if abs(a) < 0.3:
        a += 1.0
    d = (1.0 + b * c) / a
    return MoebiusMap(a, b, c, d, model=3)


def _random_map(rng, model):
    return _random_disc_map(rng) if model == 2 else _random_halfspace_map(rng)


def _random_interior(rng, n, max_norm=0.9):
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    return InteriorPoint(v * max_norm * rng.uniform(0.0, 1.0) ** (1.0 / n))


def test_interior_point_rejects_boundary_and_exterior():
    with pytest.raises(UsageError):
        InteriorPoint([1.0, 0.0])
    with pytest.raises(UsageError):
        InteriorPoint([0.9, 0.9])
    with pytest.raises(UsageError):
        InteriorPoint([0.3, 0.4, 0.5, 0.6])


def test_boundary_point_renormalizes():
    p = BoundaryPoint([3.0, 4.0])
    assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-15


def test_origin_models():
    assert origin(2).coords.shape == (2,)
    assert origin(3).coords.shape == (3,)
    assert np.all(origin(3).coords == 0.0)


def test_disc_form_validation():
    # c must be conj(b) and d conj(a) in the disc chart
    with pytest.raises(UsageError):
        MoebiusMap(1.0, 1.0, 0.0, 1.0, model=2)


def test_determinant_renormalization():
    g = MoebiusMap.from_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]), model=3)
    assert g.is_identity()


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(11)
    for model in (2, 3):
        for _ in range(20):
            g = _random_map(rng, model)
            ident = MoebiusMap(1.0, 0.0, 0.0, 1.0, model)
            assert compose(g, ident).entry_distance(g) < 1e-12
            assert compose(g, inverse(g)).is_identity()
            assert inverse(inverse(g)).entry_distance(g) < 1e-9


def test_compose_diagonal_translations():
    t, s = 0.7, 0.4
    f = MoebiusMap(math.exp(t), 0.0, 0.0, math.exp(-t), model=3)
    g = MoebiusMap(math.exp(s), 0.0, 0.0, math.exp(-s), model=3)
    fg = compose(f, g)
    assert abs(fg.a - math.exp(t + s)) < 1e-12
    assert abs(fg.d - math.exp(-t - s)) < 1e-12


def test_compose_model_mismatch():
    with pytest.raises(ModelMismatchError):
        compose(MoebiusMap(1.0, 0.0, 0.0, 1.0, 2), MoebiusMap(1.0, 0.0, 0.0, 1.0, 3))


def test_inverse_parabolic_shift():
    g = MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)
    gi = inverse(g)
    assert abs(gi.a - 1.0) < 1e-12 and abs(gi.b + 1.0) < 1e-12
    assert abs(gi.c) < 1e-12 and abs(gi.d - 1.0) < 1e-12


def test_composition_associative():
    rng = np.random.default_rng(12)
    for model in (2, 3):
        for _ in range(50):
            f, g, h = (_random_map(rng, model) for _ in range(3))
            left = compose(compose(f, g), h)
            right = compose(f, compose(g, h))
            assert left.entry_distance(right) < 1e-9


def test_apply_interior_identity_and_example():
    z = InteriorPoint([0.3, -0.2])
    assert np.allclose(apply_interior(MoebiusMap(1.0, 0.0, 0.0, 1.0, 2), z).coords, z.coords)
    g = MoebiusMap(math.cosh(LN3), math.sinh(LN3), math.sinh(LN3), math.cosh(LN3), model=2)
    w = apply_interior(g, origin(2))
    assert np.allclose(w.coords, [0.8, 0.0], atol=1e-12)
    assert abs(hyperbolic_distance(origin(2), w) - 2.0 * LN3) < 1e-9


def test_apply_interior_inverse_round_trip():
    rng = np.random.default_rng(13)
    for model in (2, 3):
        for _ in range(50):
            g = _random_map(rng, model)
            z = _random_interior(rng, model)
            back = apply_interior(inverse(g), apply_interior(g, z))
            assert np.linalg.norm(back.coords - z.coords) < 1e-9


def test_apply_boundary_identity_and_fixed_point():
    x = BoundaryPoint([0.6, 0.8])
    assert np.allclose(apply_boundary(MoebiusMap(1.0, 0.0, 0.0, 1.0, 2), x).coords, x.coords)
    g = MoebiusMap(math.cosh(0.5), math.sinh(0.5), math.sinh(0.5), math.cosh(0.5), model=2)
    assert np.allclose(apply_boundary(g, BoundaryPoint([1.0, 0.0])).coords, [1.0, 0.0])


def test_apply_boundary_preserves_circle_before_renormalization():
    rng = np.random.default_rng(14)
    for _ in range(200):
        g = _random_disc_map(rng)
        zeta = cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        w = (g.a * zeta + g.b) / (g.c * zeta + g.d)
        assert abs(abs(w) - 1.0) < 1e-9


def test_apply_boundary_injective_spot_check():
    rng = np.random.default_rng(15)
    for model in (2, 3):
        g = _random_map(rng, model)
        pts = []
        for i in range(3):
            v = rng.normal(size=model)
            pts.append(apply_boundary(g, BoundaryPoint(v / np.linalg.norm(v))))
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(pts[i].coords - pts[j].coords) > 1e-9


def test_classify_examples():
    assert classify(MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)) is MapClass.PARABOLIC
    assert classify(MoebiusMap(3.0, 0.0, 0.0, 1.0 / 3.0, model=3)) is MapClass.LOXODROMIC
    rot = MoebiusMap(cmath.exp(1j * np.pi / 4), 0.0, 0.0, cmath.exp(-1j * np.pi / 4), model=2)
    assert classify(rot) is MapClass.ELLIPTIC
    assert classify(MoebiusMap(1.0, 0.0, 0.0, 1.0, 2)) is MapClass.IDENTITY


def test_classify_conjugation_invariant():
    rng = np.random.default_rng(16)
    specimens = [
        MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3),
        MoebiusMap(2.0, 0.0, 0.0, 0.5, model=3),
        MoebiusMap(cmath.exp(0.3j), 0.0, 0.0, cmath.exp(-0.3j), model=3),
    ]
    for h in specimens:
        cls = classify(h)
        for _ in range(20):
            g = _random_halfspace_map(rng)
            assert classify(compose(compose(g, h), inverse(g))) is cls


def test_fixed_points_disc_hyperbolic():
    g = MoebiusMap(math.cosh(0.8), math.sinh(0.8), math.sinh(0.8), math.cosh(0.8), model=2)
    pts = sorted(fixed_points(g), key=lambda p: p.coords[0])
    assert np.allclose(pts[0].coords, [-1.0, 0.0], atol=1e-9)
    assert np.allclose(pts[1].coords, [1.0, 0.0], atol=1e-9)


def test_fixed_points_parabolic_infinity():
    g = MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)
    pts = fixed_points(g)
    assert len(pts) == 1
    # infinity in the half-space chart is the top of the sphere
    assert np.allclose(pts[0].coords, [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("g, expected", [
    # z -> z + 1 on the half-plane fixes infinity, which is 1 on the disc: a
    # disc parabolic with c != 0
    (halfplane_to_disc([[1, 1], [0, 1]]), [[1.0, 0.0]]),
    # a spatial loxodromic that fixes infinity, the north pole, and 0, the south pole
    (MoebiusMap(2.0, 0.0, 0.0, 0.5, model=3), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
], ids=["disc-parabolic", "spatial-loxodromic-fixing-infinity"])
def test_fixed_points_are_fixed_by_their_map(g, expected):
    pts = fixed_points(g)
    assert np.allclose([p.coords for p in pts], expected, atol=1e-12)
    for p in pts:
        assert np.allclose(apply_boundary(g, p).coords, p.coords, atol=1e-12)


def test_fixed_points_rejects_elliptic():
    rot = MoebiusMap(cmath.exp(0.4j), 0.0, 0.0, cmath.exp(-0.4j), model=2)
    with pytest.raises(UsageError):
        fixed_points(rot)


def test_fixed_points_conjugation_equivariance():
    rng = np.random.default_rng(17)
    h = MoebiusMap(math.cosh(0.9), math.sinh(0.9), math.sinh(0.9), math.cosh(0.9), model=2)
    base = fixed_points(h)
    for _ in range(50):
        g = _random_disc_map(rng)
        moved = fixed_points(compose(compose(g, h), inverse(g)))
        expected = [apply_boundary(g, p) for p in base]
        for q in moved:
            err = min(np.linalg.norm(q.coords - e.coords) for e in expected)
            assert err < 1e-7


def test_distance_examples():
    assert hyperbolic_distance(origin(2), origin(2)) == 0.0
    d = hyperbolic_distance(origin(2), InteriorPoint([0.5, 0.0]))
    assert abs(d - LN3) < 1e-12
    d2 = hyperbolic_distance(InteriorPoint([0.5, 0.0]), InteriorPoint([-0.5, 0.0]))
    assert abs(d2 - 2.0 * LN3) < 1e-9


def test_distance_symmetry_positivity():
    rng = np.random.default_rng(18)
    for model in (2, 3):
        for _ in range(100):
            x = _random_interior(rng, model)
            y = _random_interior(rng, model)
            dxy = hyperbolic_distance(x, y)
            assert dxy >= 0.0
            assert abs(dxy - hyperbolic_distance(y, x)) < 1e-12
        assert hyperbolic_distance(x, x) == 0.0


def test_distance_isometry_invariance():
    rng = np.random.default_rng(19)
    for model in (2, 3):
        for _ in range(2000):
            g = _random_map(rng, model)
            x = _random_interior(rng, model)
            y = _random_interior(rng, model)
            before = hyperbolic_distance(x, y)
            after = hyperbolic_distance(apply_interior(g, x), apply_interior(g, y))
            assert abs(after - before) < 1e-8


def test_translation_to_origin():
    rng = np.random.default_rng(20)
    for model in (2, 3):
        for _ in range(50):
            z = _random_interior(rng, model)
            t = translation_to_origin(z)
            assert np.linalg.norm(apply_interior(t, z).coords) < 1e-7


def test_geodesic_apex_examples():
    diam = BoundaryGeodesic(BoundaryPoint([1.0, 0.0]), BoundaryPoint([-1.0, 0.0]))
    assert np.linalg.norm(diam.apex.coords) < 1e-12
    vert = BoundaryGeodesic(BoundaryPoint([0.0, 1.0]), BoundaryPoint([0.0, -1.0]))
    assert np.linalg.norm(vert.apex.coords) < 1e-12
    arc = BoundaryGeodesic(BoundaryPoint([1.0, 0.0]), BoundaryPoint([0.0, 1.0]))
    apex = arc.apex
    assert abs(np.linalg.norm(apex.coords) - (math.sqrt(2.0) - 1.0)) < 1e-12
    assert abs(apex.coords[0] - apex.coords[1]) < 1e-12


def test_geodesic_point_at_endpoints():
    arc = BoundaryGeodesic(BoundaryPoint([1.0, 0.0]), BoundaryPoint([0.0, 1.0]))
    assert np.allclose(arc.point_at(0.0).coords, arc.apex.coords, atol=1e-12)
    near_q = arc.point_at(20.0)
    near_p = arc.point_at(-20.0)
    ends = {tuple(np.round(near_p.coords, 3)), tuple(np.round(near_q.coords, 3))}
    assert ends == {(1.0, 0.0), (0.0, 1.0)} or len(ends) == 2
    assert np.linalg.norm(near_q.coords) < 1.0
