"""Orbit enumeration, loxodromic search, basepoint choice, and packing."""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from oracles import packing_brute_force
from scipy.spatial import cKDTree

from kleindim import (
    GroupBall,
    GroupElement,
    GroupPresentation,
    InteriorPoint,
    LoxodromicNotFoundError,
    MapClass,
    MoebiusMap,
    OrbitSet,
    ResourceLimitError,
    UsageError,
    apply_interior,
    build_ball,
    check_packing_disjoint,
    choose_basepoint,
    classify,
    compose,
    cyclic_loxodromic,
    enumerate_orbit,
    find_loxodromic,
    fixed_points,
    fuchsian_lattice,
    hyperbolic_distance,
    inverse,
    origin,
    packing_radius,
    schottky_f2,
    shell_index_of,
    translation_to_origin,
)
from kleindim.errors import DegenerateBasepointError
from kleindim.group import DEDUP_TOL

LN9 = math.log(9.0)


def _free_count(depth):
    return 1 + sum(4 * 3 ** (m - 1) for m in range(1, depth + 1))


def _boost(t, model=2):
    return MoebiusMap(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t), model=model)


def _pi_rotation_about(center):
    rot = MoebiusMap(1j, 0.0, 0.0, -1j, model=2)
    t = translation_to_origin(InteriorPoint(center))
    return compose(compose(inverse(t), rot), t)


def _identity_only_orbit(model=2):
    pres = GroupPresentation([_boost(0.5, model) if model == 2 else _boost(0.5, 3)], model=model)
    ball = GroupBall(pres, np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex),
                     np.array([-1]), np.array([0]), np.array([0]), 1)
    return OrbitSet(ball, origin(model))


def test_presentation_validation():
    with pytest.raises(UsageError):
        GroupPresentation([], model=2)
    with pytest.raises(UsageError):
        GroupPresentation([MoebiusMap.identity(2)], model=2)
    with pytest.raises(UsageError):
        GroupPresentation([_boost(0.5, model=3)], model=2)
    with pytest.raises(UsageError):
        GroupPresentation([_boost(0.5), _boost(0.5)], model=2)


def test_free_group_counts_per_word_length(schottky_orbit8):
    lengths = schottky_orbit8.word_lengths
    assert int((lengths == 0).sum()) == 1
    for m in range(1, 9):
        assert int((lengths == m).sum()) == 4 * 3 ** (m - 1)
    assert len(schottky_orbit8) == _free_count(8)


def test_cyclic_counts():
    G = cyclic_loxodromic()
    for depth in (1, 3, 6):
        orbit = enumerate_orbit(G, origin(2), depth)
        assert len(orbit) == 2 * depth + 1


def test_duplicate_relation_deduplicates():
    g1 = _boost(0.5)
    g2 = _boost(1.0)  # g2 = g1^2: the word g2 collides with g1 g1
    G = GroupPresentation([g1, g2], model=2)
    depth = 4
    orbit = enumerate_orbit(G, origin(2), depth)
    assert len(orbit) == 4 * depth + 1
    assert len(orbit) < _free_count(depth)


def test_breadth_first_order_and_prefix_closure():
    G = schottky_f2()
    orbit = enumerate_orbit(G, origin(2), 4)
    lengths = orbit.word_lengths
    assert np.all(np.diff(lengths) >= 0)
    words = {el.word for el in orbit.elements}
    for el in orbit.elements:
        if el.word:
            assert el.word[:-1] in words


def test_word_matrix_consistency():
    G = schottky_f2()
    orbit = enumerate_orbit(G, origin(2), 3)
    gens = {1: G.generators[0], 2: G.generators[1],
            -1: inverse(G.generators[0]), -2: inverse(G.generators[1])}
    for el in orbit.elements:
        m = MoebiusMap.identity(2)
        for letter in el.word:
            m = compose(m, gens[letter])
        assert m.entry_distance(el.map) < 1e-9


def test_shell_index_law(schottky_orbit8):
    shelled = schottky_orbit8.shells > 0
    ks = schottky_orbit8.shells[shelled]
    gaps = schottky_orbit8.gaps[shelled]
    assert np.all(2.0 ** (-ks.astype(float)) <= gaps)
    assert np.all(gaps < 2.0 ** (-ks.astype(float) + 1))
    # identity sits in no shell
    assert schottky_orbit8.shells[0] == 0
    assert shell_index_of(1.0) is None
    assert shell_index_of(0.25) == 2
    with pytest.raises(UsageError):
        shell_index_of(0.0)


def test_dedup_soundness_pairwise():
    G = schottky_f2()
    orbit = enumerate_orbit(G, origin(2), 3)
    vecs = [el.map.entry_vector() for el in orbit.elements]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert np.abs(vecs[i] - vecs[j]).max() > DEDUP_TOL


def _sequential_reference(G, depth):
    """Naive enumeration: one compose per child, pairwise dedup, first kept."""
    alphabet = []
    for i, g in enumerate(G.generators, start=1):
        alphabet += [(i, g), (-i, inverse(g))]
    words = [()]
    maps = [MoebiusMap.identity(G.model)]
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for idx in frontier:
            for letter, gen in alphabet:
                if words[idx] and letter == -words[idx][-1]:
                    continue
                child = compose(maps[idx], gen)
                if any(child.entry_distance(m) <= DEDUP_TOL for m in maps):
                    continue
                next_frontier.append(len(maps))
                words.append(words[idx] + (letter,))
                maps.append(child)
        frontier = next_frontier
    return words, np.array([[m.a, m.b, m.c, m.d] for m in maps])


def test_ball_matches_sequential_reference():
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    cases = [
        (fuchsian_lattice(), 8),
        (GroupPresentation([g1, g2], model=3), 4),
        (GroupPresentation([_pi_rotation_about([0.0, 0.0]), _pi_rotation_about([0.5, 0.0])],
                           model=2), 4),
    ]
    for G, depth in cases:
        ball = build_ball(G, depth)
        words, entries = _sequential_reference(G, depth)
        assert ball.words == words
        err = np.abs(ball.entries - entries).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(entries).max(axis=1))


def test_cyclic_gaps_match_closed_form_at_depth():
    # exp(-d(0, h^n 0)) = 9^-|n|; renormalizing each product by sqrt(det)
    # would cost ~1e-3 here, from the eps |a|^2 error of the determinant
    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 14)
    ratio = orbit.gaps / (2.0 - orbit.gaps)
    expected = 9.0 ** -orbit.word_lengths.astype(float)
    assert np.abs(ratio / expected - 1.0).max() <= 1e-10


def test_cyclic_displacements_match_closed_form_at_depth():
    # d(0, h^n 0) = |n| ln 9; taking 1 - |w|^2 from the coordinates instead
    # of the stable gaps costs ~3e-3 here
    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 14)
    err = np.abs(orbit.displacements - orbit.word_lengths * LN9)
    assert err.max() <= 1e-10


def test_resource_cap():
    G = schottky_f2()
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_orbit(G, origin(2), 8, cap=100)
    assert "word length" in str(exc.value)


def test_find_loxodromic_schottky(schottky, schottky_h):
    assert schottky_h.word == (1,)
    assert classify(schottky_h.map) is MapClass.LOXODROMIC


def test_find_loxodromic_elliptic_pair():
    G = GroupPresentation([_pi_rotation_about([0.0, 0.0]), _pi_rotation_about([0.5, 0.0])],
                          model=2, name="elliptic_pair")
    for g in G.generators:
        assert classify(g) is MapClass.ELLIPTIC
    h = find_loxodromic(G, 4)
    assert h.word_length == 2
    assert classify(h.map) is MapClass.LOXODROMIC


def test_find_loxodromic_parabolic_only():
    G = GroupPresentation([MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)], model=3)
    with pytest.raises(LoxodromicNotFoundError) as exc:
        find_loxodromic(G, 6)
    assert "elementary" in str(exc.value)


def test_choose_basepoint_axis_apex():
    G = cyclic_loxodromic()
    h = find_loxodromic(G, 2)
    pts = fixed_points(h.map)
    xs = sorted(p.coords[0] for p in pts)
    assert abs(xs[0] + 1.0) < 1e-9 and abs(xs[1] - 1.0) < 1e-9
    bp = choose_basepoint(h, G, 2)
    assert np.linalg.norm(bp.coords) < 1e-12


def test_choose_basepoint_tilted_axis():
    m = MoebiusMap(1.0 - 0.5j, 0.5j, -0.5j, 1.0 + 0.5j, model=2)
    h = compose(compose(m, _boost(LN9 / 2)), inverse(m))
    G = GroupPresentation([h], model=2, name="tilted")
    bp = choose_basepoint(find_loxodromic(G, 2), G, 2)
    assert abs(np.linalg.norm(bp.coords) - (math.sqrt(2.0) - 1.0)) < 1e-9
    assert abs(bp.coords[0] - bp.coords[1]) < 1e-9


def test_choose_basepoint_slides_off_elliptic_fixed_point():
    G = GroupPresentation([_boost(LN9 / 2), _pi_rotation_about([0.0, 0.0])], model=2)
    h = find_loxodromic(G, 2)
    bp = choose_basepoint(h, G, 2)
    # the apex (origin) is fixed by the rotation generator; the choice must move
    assert np.linalg.norm(bp.coords) > 1e-3
    assert abs(bp.coords[1]) < 1e-9  # still on the axis of h
    rot = G.generators[1]
    assert hyperbolic_distance(bp, apply_interior(rot, bp)) > 1e-9


def test_packing_radius_cyclic_exact(cyclic_orbit10):
    pk = packing_radius(cyclic_orbit10)
    assert abs(pk.min_displacement - LN9) < 1e-9
    assert abs(pk.radius - 0.49 * LN9) < 1e-9
    assert pk.safety_factor == 0.98


def test_packing_radius_depth_monotone(schottky):
    a1 = packing_radius(enumerate_orbit(schottky, origin(2), 1)).radius
    a6 = packing_radius(enumerate_orbit(schottky, origin(2), 6)).radius
    assert 0.0 < a6 <= a1


def test_packing_radius_degenerate_basepoint():
    G = GroupPresentation([_pi_rotation_about([0.0, 0.0])], model=2)
    orbit = enumerate_orbit(G, origin(2), 3)
    with pytest.raises(DegenerateBasepointError):
        packing_radius(orbit)


def test_packing_disjoint_all_fixtures_depth6():
    for G in (cyclic_loxodromic(), schottky_f2(), fuchsian_lattice()):
        # mirror the verification pipeline: basepoint away from elliptic fixed
        # points (the lattice inversion fixes the origin itself)
        bp = choose_basepoint(find_loxodromic(G, 6), G, 6)
        orbit = enumerate_orbit(G, bp, 6)
        pk = packing_radius(orbit)
        result = check_packing_disjoint(orbit, pk.radius)
        assert result.ok, f"{G.name}: pair {result.pair} at distance {result.distance}"


def test_packing_negative_control():
    orbit = enumerate_orbit(cyclic_loxodromic(), origin(2), 6)
    pk = packing_radius(orbit)
    result = check_packing_disjoint(orbit, pk.min_displacement)
    assert not result.ok
    assert result.pair is not None
    assert abs(result.distance - pk.min_displacement) < 1e-9


def test_packing_singleton_vacuous():
    orbit = _identity_only_orbit()
    result = check_packing_disjoint(orbit, 1.0)
    assert result.ok and result.pair is None


def test_left_invariance_up_to_horizon(schottky):
    depth = 5
    orbit_z = enumerate_orbit(schottky, origin(2), depth)
    g0 = schottky.generators[0]
    orbit_moved = enumerate_orbit(schottky, apply_interior(g0, origin(2)), depth)
    tree = cKDTree(orbit_z.points)
    mask = orbit_moved.word_lengths <= depth - 1
    dists, _ = tree.query(orbit_moved.points[mask])
    assert dists.max() < 1e-7


def test_two_generator_warning_fires_on_near_identity_pair():
    theta = 0.1
    small = MoebiusMap(np.exp(1j * theta / 2), 0.0, 0.0, np.exp(-1j * theta / 2), model=2)
    t = translation_to_origin(InteriorPoint([0.1, 0.0]))
    small2 = compose(compose(inverse(t), small), t)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GroupPresentation([small, small2], model=2)
    assert len(caught) == 1
    assert "non-discrete" in str(caught[0].message)


def test_two_generator_warning_quiet_on_fixtures():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        schottky_f2()
        fuchsian_lattice()
        cyclic_loxodromic()
        GroupPresentation([_pi_rotation_about([0.0, 0.0]), _pi_rotation_about([0.5, 0.0])],
                          model=2)
    assert caught == []


def _ball_schottky():
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    return GroupPresentation([g1, g2], model=3, name="schottky_ball")


PACKING_GROUPS = {
    "cyclic_loxodromic": cyclic_loxodromic,
    "schottky_f2": schottky_f2,
    "fuchsian_lattice": fuchsian_lattice,
    "schottky_ball": _ball_schottky,
}
NAMED_RADII = {
    "radius": lambda pk: pk.radius,
    "min_displacement": lambda pk: pk.min_displacement,
    "1.5 radius": lambda pk: 1.5 * pk.radius,
    # the closest pair sits exactly on the threshold, up to rounding
    "half min_displacement": lambda pk: 0.5 * pk.min_displacement,
}


@functools.lru_cache(maxsize=None)
def _packing_orbit(name, depth, offset):
    """Orbit at the pipeline's axis basepoint (offset None) or at `offset`."""
    G = PACKING_GROUPS[name]()
    if offset is None:
        z = choose_basepoint(find_loxodromic(G, 6), G, 6)
    else:
        z = InteriorPoint(offset[:G.model])
    return enumerate_orbit(G, z, depth)


@functools.lru_cache(maxsize=None)
def _brute_packing(name, depth, offset, radius):
    return packing_brute_force(_packing_orbit(name, depth, offset), radius)


def _with_depth8_cases(test):
    """Every fixture at depth 8 on its axis basepoint, at the named radii."""
    for name in PACKING_GROUPS:
        for which in NAMED_RADII:
            test = example(name=name, depth=8, offset=None, which=which)(test)
    return test


@_with_depth8_cases
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(PACKING_GROUPS)),
    depth=st.integers(1, 6),
    offset=st.none() | st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    which=st.sampled_from(sorted(NAMED_RADII)) | st.floats(0.25, 3.0),
)
def test_packing_matches_brute_force_oracle(name, depth, offset, which):
    orbit = _packing_orbit(name, depth, offset)
    try:
        pk = packing_radius(orbit)
    except DegenerateBasepointError:
        reject()  # a random basepoint on an elliptic fixed point
    radius = NAMED_RADII[which](pk) if isinstance(which, str) else which * pk.radius
    assert check_packing_disjoint(orbit, radius) == _brute_packing(name, depth, offset, radius)
