"""Orbit enumeration, loxodromic search, basepoint choice, and packing."""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import warnings
import zlib

import numpy as np
import pytest
from conftest import identity_only_orbit
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from oracles import (
    ball_words,
    build_ball_reference,
    canonical_entries_reference,
    containment_exhaustive,
    containment_mesh,
    fresh_pairwise,
    nearest_distances,
    jorgensen_lhs,
    packing_brute_force,
    stacked_products,
)
from scipy.spatial import cKDTree

from kleindim import (
    GroupPresentation,
    InteriorPoint,
    LoxodromicNotFoundError,
    MapClass,
    MoebiusMap,
    ResourceLimitError,
    UsageError,
    apply_interior,
    ball_containment_check,
    build_ball,
    check_packing_disjoint,
    choose_basepoint,
    classify,
    compose,
    cyclic_loxodromic,
    enumerate_orbit,
    euclidean_balls,
    find_loxodromic,
    fixed_points,
    fuchsian_lattice,
    hyperbolic_distance,
    inverse,
    origin,
    packing_radius,
    sample_limit_set,
    schottky_f2,
    translation_to_origin,
)
from kleindim import group
from kleindim.errors import DegenerateBasepointError, InternalError
from kleindim.geometry import canonical_entries, classify_entries, product_entries
from kleindim.group import (
    _DEDUP_WEIGHTS,
    DEDUP_TOL,
    OrbitSet,
    PackingCheck,
    _fresh,
    _shell_indices,
)
from kleindim.limitset import SOURCE_SYNTHETIC, LimitSample
from kleindim.verify import CHAIN_K_MAX, verify_inequality

LN9 = math.log(9.0)


def _free_count(depth):
    return 1 + sum(4 * 3 ** (m - 1) for m in range(1, depth + 1))


def _boost(t, model=2):
    return MoebiusMap(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t), model=model)


def _pi_rotation_about(center):
    rot = MoebiusMap(1j, 0.0, 0.0, -1j, model=2)
    t = translation_to_origin(InteriorPoint(center))
    return compose(compose(inverse(t), rot), t)


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


def _rotation(angle):
    return MoebiusMap(np.exp(0.5j * angle), 0.0, 0.0, np.exp(-0.5j * angle), model=2)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    rank=st.integers(2, 3),
    depth=st.integers(1, 5),
    angles=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
    lengths=st.tuples(*[st.floats(1.8, 2.5)] * 3),
)
def test_random_free_group_level_counts(rank, depth, angles, lengths):
    # boosts along diameters pi/rank apart, jittered by at most 0.05 rad; the
    # pairing disks of a boost with cosh(t) on the diagonal span atan(1/sinh t)
    # < 0.33 rad about each end for t >= 1.8, so the 2 * rank disks are
    # disjoint and the group is a free Schottky group
    gens = []
    for i in range(rank):
        turn = _rotation(i * math.pi / rank + angles[i])
        gens.append(compose(compose(turn, _boost(lengths[i])), inverse(turn)))
    ball = build_ball(GroupPresentation(gens, model=2), depth)
    levels = np.bincount(ball.word_lengths, minlength=depth + 1)
    expected = [1] + [2 * rank * (2 * rank - 1) ** (m - 1) for m in range(1, depth + 1)]
    assert levels.tolist() == expected


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
    words = ball_words(orbit.ball.parents, orbit.ball.letters)
    for word in words:
        if word:
            assert word[:-1] in words


def test_word_matrix_consistency():
    G = schottky_f2()
    orbit = enumerate_orbit(G, origin(2), 3)
    gens = {1: G.generators[0], 2: G.generators[1],
            -1: inverse(G.generators[0]), -2: inverse(G.generators[1])}
    for i, word in enumerate(ball_words(orbit.ball.parents, orbit.ball.letters)):
        m = MoebiusMap.identity(2)
        for letter in word:
            m = compose(m, gens[letter])
        assert m.entry_distance(orbit.ball.map(i)) < 1e-9


def test_shell_index_law(schottky_orbit8):
    shelled = schottky_orbit8.shells > 0
    ks = schottky_orbit8.shells[shelled]
    gaps = schottky_orbit8.gaps[shelled]
    assert np.all(2.0 ** (-ks.astype(float)) <= gaps)
    assert np.all(gaps < 2.0 ** (-ks.astype(float) + 1))
    # identity sits in no shell
    assert schottky_orbit8.shells[0] == 0
    # gap 1 is the ball center (no shell); 2^-k itself opens shell k
    gaps = np.array([1.0, 0.25, 0.5, np.nextafter(0.5, 0.0)])
    assert _shell_indices(gaps).tolist() == [0, 2, 1, 2]


def test_dedup_soundness_pairwise():
    G = schottky_f2()
    vecs = build_ball(G, 3).entries.view(float)  # re, im interleaved: 8 reals per element
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert np.abs(vecs[i] - vecs[j]).max() > DEDUP_TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kept=st.integers(1, 30),
    spread=st.integers(0, 30),
    planted=st.integers(0, 30),
    chains=st.integers(0, 4),
    level=st.integers(0, 12),
    scale=st.sampled_from([1.0, 1e2, 1e4]) | st.floats(0.5, 1e4),
)
@example(seed=0, kept=10, spread=10, planted=30, chains=4, level=12, scale=1e4)
@example(seed=1, kept=1, spread=0, planted=0, chains=0, level=12, scale=1.0)
def test_fresh_matches_pairwise_oracle(seed, kept, spread, planted, chains, level, scale):
    rng = np.random.default_rng(seed)
    base = scale * (rng.normal(size=(kept + spread, 4)) + 1j * rng.normal(size=(kept + spread, 4)))

    def phase(size):
        return np.exp(2j * np.pi * rng.random(size))

    # near-duplicates: every entry moved by under 0.9 DEDUP_TOL, then one
    # entry moved by exactly (1 -+ 1e-3) DEDUP_TOL instead
    src = base[rng.integers(base.shape[0], size=planted)]
    near = src + 0.9 * DEDUP_TOL * rng.random((planted, 4)) * phase((planted, 4))
    row, col = np.arange(planted), rng.integers(4, size=planted)
    factor = 1.0 + 1e-3 * rng.choice([-1.0, 1.0], size=planted)
    near[row, col] = src[row, col] + factor * DEDUP_TOL * phase(planted)
    # every entry moved by (1 -+ 1e-3) DEDUP_TOL along its pair of weights:
    # the largest change of sort key that a duplicate can have
    toward = _DEDUP_WEIGHTS[0::2] + 1j * _DEDUP_WEIGHTS[1::2]
    far = base[rng.integers(base.shape[0], size=planted)]
    far += factor[:, None] * DEDUP_TOL * toward / np.abs(toward)
    # chains: steps of 0.6 DEDUP_TOL, so neighbors are duplicates and rows two apart are not
    steps = np.arange(5)[None, :, None] * (0.6 * DEDUP_TOL * phase((chains, 1, 4)))
    chain = (base[rng.integers(base.shape[0], size=chains)][:, None, :] + steps).reshape(-1, 4)
    # equal sort key, different entries: a move along w_j e_i - w_i e_j of the real parts
    flat = base[rng.integers(base.shape[0], size=level)].copy()
    parts = flat.view(float)
    for r, size in zip(parts, rng.choice([0.5, 0.99, 1.01, 3.0, 1e3], size=level)):
        i, j = rng.choice(8, size=2, replace=False)
        t = size * DEDUP_TOL / max(_DEDUP_WEIGHTS[i], _DEDUP_WEIGHTS[j])
        r[i] += t * _DEDUP_WEIGHTS[j]
        r[j] -= t * _DEDUP_WEIGHTS[i]
    candidates = np.concatenate([base[kept:], near, far, chain, flat])
    candidates = candidates[rng.permutation(candidates.shape[0])]
    np.testing.assert_array_equal(_fresh(base[:kept], candidates),
                                  fresh_pairwise(base[:kept], candidates))


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
        assert ball_words(ball.parents, ball.letters) == words
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


@pytest.mark.parametrize("depth", [18, 40])
def test_cyclic_ball_entries_at_depth(depth):
    # h^n has entries cosh(nT), sinh(nT) with T = ln 3; from depth 18 they
    # pass 10^8 and the computed ad - bc cancels to anything near 1
    ball = build_ball(cyclic_loxodromic(), depth)
    assert len(ball) == 2 * depth + 1
    t = ball.word_lengths * math.log(3.0)
    sign = np.sign(ball.letters)
    ch, sh = np.cosh(t), sign * np.sinh(t)
    expected = np.column_stack([ch, sh, sh, ch])
    np.testing.assert_allclose(ball.entries.real, expected, rtol=1e-12, atol=0.0)
    assert np.all(ball.entries.imag == 0.0)


def test_product_entries_rejects_non_finite():
    big = np.array([[1e200, 0.0, 0.0, 1e-200]], dtype=complex)  # unit determinant
    with pytest.raises(UsageError, match="non-finite"):
        product_entries(big, big, 2)
    singular = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(UsageError):
        product_entries(singular, np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex), 2)


def test_resource_cap(monkeypatch):
    G = schottky_f2()
    monkeypatch.setattr(group, "ORBIT_CAP", 100)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_orbit(G, origin(2), 8)
    assert "word length" in str(exc.value)


def _capped_build(monkeypatch, presentation, cap, depth):
    """build_ball under ORBIT_CAP = cap: the error (or None) and the rows of each product batch."""
    batches = []

    def recorded(left, right, model):
        batches.append(left.shape[0])
        return product_entries(left, right, model)

    monkeypatch.setattr(group, "ORBIT_CAP", cap)
    monkeypatch.setattr(group, "product_entries", recorded)
    try:
        build_ball(presentation, depth)
    except ResourceLimitError as err:
        return str(err), batches
    return None, batches


@pytest.mark.parametrize("cap", [4, 5, 16, 17, 100, 160, 161, 484, 485])
def test_resource_cap_free_group_before_the_products(monkeypatch, cap):
    # reduced words of length <= L in F2: 1 + 2(3^L - 1); dedup drops none
    sizes = [1 + 2 * (3 ** length - 1) for length in range(6)]
    error, batches = _capped_build(monkeypatch, schottky_f2(), cap, 5)
    over = [length for length, size in enumerate(sizes) if size > cap]
    if over:
        assert error == f"orbit enumeration exceeded {cap} elements at word length {over[0]}"
    else:
        assert error is None
    # the last batch multiplied out is the last level that fits
    assert batches == [sizes[n] - sizes[n - 1] for n in range(1, over[0] if over else 6)]
    assert max(batches, default=0) <= cap


@pytest.mark.parametrize("cap", [50, 400, 3000])
def test_resource_cap_with_relations_before_the_products(monkeypatch, lattice, cap):
    # the uncapped ball has the capped build's levels up to where it stops
    levels = np.bincount(build_ball(lattice, 14).word_lengths).tolist()
    kept = np.cumsum(levels).tolist()  # kept[L - 1]: elements before word length L
    candidates = [2 * len(lattice.generators)] + [
        (2 * len(lattice.generators) - 1) * n for n in levels[1:]]  # per word length 1, 2, ...
    error, batches = _capped_build(monkeypatch, lattice, cap, 14)
    stop = next(L for L in range(1, 15) if kept[L - 1] + candidates[L - 1] > cap)
    assert error == f"orbit enumeration exceeded {cap} elements at word length {stop}"
    assert batches == candidates[:stop - 1]
    assert all(kept[L - 1] + batch <= cap for L, batch in enumerate(batches, 1))


def test_find_loxodromic_schottky(schottky, schottky_h):
    ball = build_ball(schottky, 6)
    i = ball.first_loxodromic()
    assert ball_words(ball.parents, ball.letters)[i] == (1,)
    assert ball.map(i).entry_distance(schottky_h) == 0.0
    assert classify(schottky_h) is MapClass.LOXODROMIC


def test_find_loxodromic_elliptic_pair():
    G = GroupPresentation([_pi_rotation_about([0.0, 0.0]), _pi_rotation_about([0.5, 0.0])],
                          model=2, name="elliptic_pair")
    for g in G.generators:
        assert classify(g) is MapClass.ELLIPTIC
    ball = build_ball(G, 4)
    i = ball.first_loxodromic()
    assert len(ball_words(ball.parents, ball.letters)[i]) == 2
    h = find_loxodromic(G, 4)
    assert h.entry_distance(ball.map(i)) == 0.0
    assert classify(h) is MapClass.LOXODROMIC


def test_find_loxodromic_parabolic_only():
    G = GroupPresentation([MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)], model=3)
    with pytest.raises(LoxodromicNotFoundError) as exc:
        find_loxodromic(G, 6)
    assert "elementary" in str(exc.value)


def test_choose_basepoint_axis_apex():
    G = cyclic_loxodromic()
    h = find_loxodromic(G, 2)
    pts = fixed_points(h)
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


def test_head_is_the_shallower_ball(lattice):
    deep = build_ball(lattice, 9)
    for length in (1, 5, 9):
        head, fresh = deep.head(length), build_ball(lattice, length)
        assert head.max_word_length == fresh.max_word_length == length
        for name in ("entries", "parents", "letters", "word_lengths"):
            a, b = getattr(head, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (length, name)
    for length in (0, 10):
        with pytest.raises(UsageError, match="head length"):
            deep.head(length)


def test_harness_stages_read_a_live_deeper_ball(lattice, ball_builds):
    report = verify_inequality(lattice, 12)
    ball_builds.clear()
    h = find_loxodromic(lattice, 6)
    z = choose_basepoint(h, lattice, 6)
    orbit = enumerate_orbit(lattice, z, 11)
    assert ball_builds == []
    assert np.shares_memory(orbit.ball.entries, report.orbit.ball.entries)
    # the same bytes as the stages on new balls
    ball6 = build_ball(lattice, 6)
    h6 = ball6.map(ball6.first_loxodromic())
    z6 = ball6.basepoint_on_axis(h6, 6)
    fresh = OrbitSet(build_ball(lattice, 11), z6)
    assert [h.a, h.b, h.c, h.d] == [h6.a, h6.b, h6.c, h6.d]
    assert z.coords.tobytes() == z6.coords.tobytes()
    for a, b in ((orbit, fresh), (orbit.ball, fresh.ball)):
        for name in vars(b):
            if isinstance(getattr(b, name), np.ndarray):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_harness_stages_share_nothing_they_build(lattice, ball_builds):
    # a rotated lattice has no shared ball; each call builds its own and shares none
    turn = _rotation(0.4)
    rotated = GroupPresentation(
        [compose(compose(inverse(turn), g), turn) for g in lattice.generators], model=2)
    orbit = enumerate_orbit(rotated, origin(2), 6)
    h = find_loxodromic(rotated, 6)
    choose_basepoint(h, rotated, 6)
    assert len(ball_builds) == 3
    assert orbit.ball.max_word_length == 6


def test_shared_arrays_are_read_only(schottky_orbit10, schottky_sample10):
    ball, orbit = schottky_orbit10.ball, schottky_orbit10
    arrays = [ball.entries, ball.parents, ball.letters, ball.word_lengths, orbit.points,
              orbit.gaps, orbit.shells, orbit.displacements, schottky_sample10.points]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(ValueError, match="read-only"):
        ball.head(4).entries[0] = 0.0
    # a caller's own array is not frozen in place
    points = np.array([[1.0, 0.0], [0.0, 1.0]])
    LimitSample(points=points, witnesses=np.array([[0], [1]]), source=SOURCE_SYNTHETIC)
    assert points.flags.writeable


def test_packing_radius_cyclic_exact(cyclic_orbit10):
    pk = packing_radius(cyclic_orbit10)
    assert abs(pk.min_displacement - LN9) < 1e-9
    assert abs(pk.radius - 0.49 * LN9) < 1e-9


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


@pytest.mark.parametrize("factor", [-1.0, -3.0, math.nan, math.inf])
def test_hyperbolic_radius_checked_first(schottky_orbit10, schottky_sample10, factor):
    orbit = schottky_orbit10
    radius = factor * packing_radius(orbit).radius
    with pytest.raises(UsageError, match="hyperbolic radius"):
        check_packing_disjoint(orbit, radius)
    with pytest.raises(UsageError, match="hyperbolic radius"):
        euclidean_balls(orbit.points, radius, gaps=orbit.gaps)
    with pytest.raises(UsageError, match="hyperbolic radius"):
        ball_containment_check(orbit, radius, schottky_sample10, CHAIN_K_MAX)


def test_packing_singleton_vacuous():
    orbit = identity_only_orbit()
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


def _jorgensen_warns(ga, gb):
    """Whether building the presentation of ga and gb warns (one warning at most)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GroupPresentation([ga, gb], model=ga.model)
    assert len(caught) <= 1
    return bool(caught)


def _near_parabolic_pairs(count=400):
    """Pairs (A, B) in SL(2, C), model 3: A = C [[1 + e, 1], [0, 1 / (1 + e)]] C^-1 with
    |e| = 0.05 at a seeded angle, C and B seeded with unit determinant."""
    rng = np.random.default_rng(3)

    def unimodular():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return m / np.sqrt(np.linalg.det(m))

    pairs = []
    for _ in range(count):
        e = 0.05 * np.exp(2j * np.pi * rng.random())
        c = unimodular()
        a = c @ np.array([[1.0 + e, 1.0], [0.0, 1.0 / (1.0 + e)]]) @ np.linalg.inv(c)
        pairs.append((MoebiusMap.from_matrix(a, 3), MoebiusMap.from_matrix(unimodular(), 3)))
    return pairs


def _jorgensen_cases():
    theta = 0.1
    small = MoebiusMap(np.exp(1j * theta / 2), 0.0, 0.0, np.exp(-1j * theta / 2), model=2)
    t = translation_to_origin(InteriorPoint([0.1, 0.0]))
    fixtures = [schottky_f2().generators, fuchsian_lattice().generators,
                _ball_schottky().generators,
                [_pi_rotation_about([0.0, 0.0]), _pi_rotation_about([0.5, 0.0])],
                [small, compose(compose(inverse(t), small), t)]]
    return [tuple(pair) for pair in fixtures] + _near_parabolic_pairs()


def test_jorgensen_check_matches_the_raw_product():
    # schottky_f2: tr^2 A - 4 = 64/9 and tr[A, B] = -862/81, so |tr[A, B] - 2| is not 862/81 - 2
    assert jorgensen_lhs(*schottky_f2().generators) == pytest.approx(64 / 9 + 2 + 862 / 81,
                                                                     rel=1e-12)
    decided = warned = 0
    for ga, gb in _jorgensen_cases():
        lhs = jorgensen_lhs(ga, gb)
        assert group._jorgensen_lhs(ga, gb) == pytest.approx(lhs, rel=1e-9, abs=1e-12)
        if abs(lhs - 1.0) < 1e-6:
            continue  # equality, as for the lattice: rounding may fall either side
        assert _jorgensen_warns(ga, gb) == (lhs < 1.0 - 1e-9)
        decided += 1
        warned += lhs < 1.0
    assert decided >= 400 and 10 <= warned <= decided - 10


def test_presentation_forms_no_product(monkeypatch):
    cases = _jorgensen_cases()

    def forbidden(*args, **kwargs):
        raise AssertionError("GroupPresentation formed a product of maps")

    for name, module in list(sys.modules.items()):
        if name.startswith("kleindim"):
            for attr in ("compose", "inverse", "product_entries"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    for ga, gb in cases:
        _jorgensen_warns(ga, gb)


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
    "zero": lambda pk: 0.0,
    # tanh(20) rounds to 1: every ball is the whole model ball
    "twenty": lambda pk: 20.0,
    "negative radius": lambda pk: -pk.radius,
    "negative min_displacement": lambda pk: -pk.min_displacement,
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
    """Every fixture at depth 8 on its axis basepoint, and at depth 6 on the
    centre (the identity's point at gap 1), at the named radii.  The lattice
    is left out at the centre, which its inversion fixes."""
    for name in PACKING_GROUPS:
        for which in NAMED_RADII:
            test = example(name=name, depth=8, offset=None, which=which)(test)
            if name != "fuchsian_lattice":
                test = example(name=name, depth=6, offset=(0.0, 0.0, 0.0), which=which)(test)
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
    if radius < 0.0:  # the oracle reads -r as r; the check rejects it
        with pytest.raises(UsageError, match="hyperbolic radius"):
            check_packing_disjoint(orbit, radius)
        return
    assert check_packing_disjoint(orbit, radius) == _brute_packing(name, depth, offset, radius)


def _with_row_twice(orbit, row, nudge=0.0):
    """The orbit with element `row` repeated right after itself, the repeat
    followed by a boost of length `nudge`: a pair at distance 0 or about nudge."""
    ball = orbit.ball
    at = np.insert(np.arange(len(ball)), row + 1, row)
    entries = ball.entries[at]
    b = _boost(nudge, orbit.model)
    entries[row + 1] = product_entries(entries[row:row + 1], [[b.a, b.b, b.c, b.d]],
                                       orbit.model)[0]
    twice = dataclasses.replace(ball, entries=entries, parents=ball.parents[at],
                                letters=ball.letters[at], word_lengths=ball.word_lengths[at])
    return OrbitSet(twice, orbit.basepoint)


@pytest.mark.parametrize("nudge", [0.0, 1e-9])
@pytest.mark.parametrize("name", sorted(PACKING_GROUPS))
def test_packing_row_twice_matches_brute_force(name, nudge):
    orbit = _packing_orbit(name, 6, None)
    pk = packing_radius(orbit)
    for row in (0, len(orbit) // 2, len(orbit) - 1):
        twice = _with_row_twice(orbit, row, nudge)
        for radius in (0.0, pk.radius, 2.0 * pk.radius):
            result = check_packing_disjoint(twice, radius)
            assert result == packing_brute_force(twice, radius)
            if radius <= pk.radius:
                # at 1e-9 apart the float test rounds the distance to 0 as well
                assert result == PackingCheck(ok=False, pair=(row, row + 1), distance=0.0)


def _closest_pair_distance(orbit):
    """The least distance over all pairs, from the exact test's own float expression."""
    pts, q = orbit.points, orbit.gaps_squared()
    diff = pts[:, None, :] - pts[None, :, :]
    carg = 1.0 + 2.0 * np.einsum("ijk,ijk->ij", diff, diff) / (q[:, None] * q[None, :])
    np.fill_diagonal(carg, np.inf)
    return float(np.arccosh(carg.min()))


@pytest.mark.parametrize("name", sorted(PACKING_GROUPS))
def test_packing_one_ulp_about_closest_pair_matches_brute_force(name):
    orbit = _packing_orbit(name, 5, None)
    half = 0.5 * _closest_pair_distance(orbit)
    for radius in (np.nextafter(half, -np.inf), half, np.nextafter(half, np.inf)):
        radius = float(radius)
        assert check_packing_disjoint(orbit, radius) == packing_brute_force(orbit, radius)
    # a 1e-9 relative step clears the rounding of cosh and arccosh on both sides
    assert check_packing_disjoint(orbit, half * (1.0 - 1e-9)).ok
    assert not check_packing_disjoint(orbit, half * (1.0 + 1e-9)).ok


@functools.lru_cache(maxsize=None)
def _containment_sample(name, depth, offset):
    G = PACKING_GROUPS[name]()
    return sample_limit_set(_packing_orbit(name, depth, offset), find_loxodromic(G, 6))


def _with_containment_cases(test):
    """Every fixture at depth 8, the lattice at 14 and n = 3 at 6, on the axis basepoint."""
    cases = [(name, 8) for name in PACKING_GROUPS] + [("fuchsian_lattice", 14), ("schottky_ball", 6)]
    for name, depth in cases:
        for factor in (0.5, 1.0, 2.0):
            test = example(name=name, depth=depth, offset=None, factor=factor)(test)
    return test


@_with_containment_cases
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(PACKING_GROUPS)),
    depth=st.integers(1, 6),
    offset=st.none() | st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    factor=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 3.0),
)
def test_containment_matches_exhaustive_oracle(name, depth, offset, factor):
    orbit = _packing_orbit(name, depth, offset)
    try:
        radius = factor * packing_radius(orbit).radius
    except DegenerateBasepointError:
        reject()
    sample = _containment_sample(name, depth, offset)
    try:
        expected = containment_exhaustive(orbit, radius, sample)
    except UsageError:
        with pytest.raises(UsageError):
            ball_containment_check(orbit, radius, sample, CHAIN_K_MAX)
        return
    report = ball_containment_check(orbit, radius, sample, CHAIN_K_MAX)
    assert report.shells.tolist() == expected.shells.tolist()
    assert report.c.tolist() == expected.c.tolist()
    assert report.c_hat == expected.c_hat
    assert report.radii.tolist() == expected.radii.tolist()
    skipped = [k for k in range(1, 13) if not np.any(orbit.shells == k)]
    assert sorted(set(range(1, 13)) - set(report.shells.tolist())) == skipped
    # the certified bound never undercuts the sampled mesh definition
    mesh = containment_mesh(orbit, radius, sample)
    assert mesh.shells.tolist() == report.shells.tolist()
    assert np.all(report.c >= mesh.c)


@_with_containment_cases
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(PACKING_GROUPS)),
    depth=st.integers(1, 6),
    offset=st.none() | st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    factor=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 3.0),
)
def test_containment_bound_covers_ball_points(name, depth, offset, factor):
    # points of every shelled ball, on its boundary and inside it, lie
    # within the shell's c_k * 2^-k of the sample, by a brute-force query
    orbit = _packing_orbit(name, depth, offset)
    try:
        radius = factor * packing_radius(orbit).radius
    except DegenerateBasepointError:
        reject()
    sample = _containment_sample(name, depth, offset)
    if not np.any((orbit.shells >= 1) & (orbit.shells <= CHAIN_K_MAX)):
        return  # no shelled ball: the check raises, as the oracle test asserts
    report = ball_containment_check(orbit, radius, sample, CHAIN_K_MAX)
    rng = np.random.default_rng(zlib.crc32(repr((name, depth, offset, factor)).encode()))
    n = orbit.model
    pts, bounds = [], []
    for k, c in zip(report.shells.tolist(), report.c.tolist()):
        idx = np.flatnonzero(orbit.shells == k)
        centers, radii = euclidean_balls(orbit.points[idx], radius, gaps=orbit.gaps[idx])
        dirs = rng.normal(size=(idx.size, 4, n))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        dirs[:, 3] = np.eye(n)[rng.integers(0, n, idx.size)]  # an axis direction
        fractions = rng.uniform(0.0, 1.0, (idx.size, 4))
        fractions[:, ::2] = 1.0  # two boundary points per ball
        pts.append(centers[:, None, :] + (fractions * radii[:, None])[:, :, None] * dirs)
        bounds.append(np.full(4 * idx.size, math.ldexp(c, -k)))
    dist = nearest_distances(np.concatenate(pts).reshape(-1, n), sample.points)
    assert np.all(dist <= np.concatenate(bounds))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(PACKING_GROUPS)),
    depth=st.integers(1, 8),
    offset=st.none() | st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    s=st.floats(0.0, 3.0),
    span=st.integers(0, 6),
)
def test_shell_runs_match_masks(name, depth, offset, s, span):
    orbit = _packing_orbit(name, depth, offset)
    runs = orbit.shell_runs
    shells = runs.shells.tolist()
    assert shells == sorted(set(orbit.shells.tolist()))
    for at, k in enumerate(shells):
        assert runs.rows(at, at + 1).tolist() == np.flatnonzero(orbit.shells == k).tolist()
        assert runs.counts[at] == np.count_nonzero(orbit.shells == k)
        # a window of consecutive shells, shell by shell, as the chain report reads it
        stop = int(np.searchsorted(runs.shells, k + span, side="right"))
        assert runs.window(k, k + span) == (at, stop)
        assert runs.window(k, k - 1 - span) == (at, at)  # an empty window
        window = np.concatenate([runs.rows(w, w + 1) for w in range(at, stop)])
        assert runs.rows(at, stop).tolist() == window.tolist()
        assert sorted(window.tolist()) == np.flatnonzero(
            (orbit.shells >= k) & (orbit.shells <= k + span)).tolist()
    for values in ((orbit.gaps / (2.0 - orbit.gaps)) ** s, orbit.gaps ** s, orbit.displacements):
        masked = np.array([values[orbit.shells == k].sum() for k in shells])
        assert runs.sums(values).view(np.int64).tolist() == masked.view(np.int64).tolist()
        # a window of shells from values on its own rows, as the chain report sums them
        at = min(span, len(shells) - 1)
        window = runs.window_sums(values[runs.rows(at, len(shells))], at, len(shells))
        assert window.view(np.int64).tolist() == masked[at:].view(np.int64).tolist()
    assert orbit.shell_runs is runs


def _elliptic_pair():
    return GroupPresentation([_pi_rotation_about([0.0, 0.0]), _pi_rotation_about([0.5, 0.0])],
                             model=2, name="elliptic_pair")


BALL_GROUPS = {**PACKING_GROUPS, "elliptic_pair": _elliptic_pair}
BALL_DEPTHS = {"cyclic_loxodromic": 40, "schottky_f2": 9, "fuchsian_lattice": 14,
               "schottky_ball": 8, "elliptic_pair": 8}


def _conjugate(G, angle, t, shear):
    """G with each generator g replaced by m^-1 g m: m turns, boosts and, for n = 3, shears."""
    m = compose(_rotation(angle), _boost(t))
    if G.model == 3:
        shearing = MoebiusMap(1.0, shear, 0.0, 1.0, model=3)
        m = compose(MoebiusMap(m.a, m.b, m.c, m.d, model=3), shearing)
    gens = [compose(compose(inverse(m), g), m) for g in G.generators]
    return GroupPresentation(gens, model=G.model, name=G.name)


def _assert_same_bytes(got, want):
    for field in ("entries", "parents", "letters", "word_lengths"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


def _with_ball_depths(test):
    """Every fixture at its benchmark depth (cyclic_loxodromic at 40), unconjugated."""
    for name, depth in BALL_DEPTHS.items():
        test = example(name=name, depth=depth, conj=None)(test)
    return test


@_with_ball_depths
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(BALL_GROUPS)),
    depth=st.integers(1, 8),
    conj=st.none() | st.tuples(st.floats(-math.pi, math.pi), st.floats(0.0, 1.0),
                               st.floats(-1.0, 1.0)),
)
def test_ball_matches_reference_byte_for_byte(name, depth, conj):
    G = BALL_GROUPS[name]()
    if conj is not None:
        G = _conjugate(G, *conj)
    _assert_same_bytes(build_ball(G, depth), build_ball_reference(G, depth))


def test_product_entries_canonicalizes_rows_without_lead_a():
    # leads of either sign, some of zero or near-zero real part, where the imaginary part decides
    leads = [1.0, -1.0, 1j, -1j, 1e-13 + 1j, -1e-13 - 1j, 1e-13 - 2.5j, -2.5, 2.5 - 1e-13j]
    scales = [1.0, -1.0, 1j, -1j, 2.5, -0.4j]
    left, right = [], []
    for u in leads:
        for w in scales:  # a = 0 * w + u * 0 = 0: b = u / w leads
            left.append([0.0, u, -1.0 / u, 0.5])
            right.append([w, 0.3 - 0.2j, 0.0, 1.0 / w])
        for eps in (1e-13, -1e-13, 1e-13j, -1e-13j, 0.0):  # |a| <= _CANON_EPS: b = u leads
            left.append([eps, u, -1.0 / u, 0.0])
            right.append([1.0, 0.0, 0.0, 1.0])
    left, right = np.array(left, dtype=complex), np.array(right, dtype=complex)
    got = product_entries(left, right, 3)
    want = canonical_entries_reference(stacked_products(left, right), 3)
    assert np.all(np.abs(got[:, 0]) <= 1e-12)
    assert got.tobytes() == want.tobytes()
    assert canonical_entries(stacked_products(left, right), 3).tobytes() == want.tobytes()
    with pytest.raises(InternalError, match="zero matrix"):
        canonical_entries([1e-13, 0.0, 0.0, -1e-13j], 3)


@pytest.mark.parametrize("model", [2, 3])
def test_product_entries_canonicalizes_near_imaginary_leads(model):
    # rotations whose angles sum to +-pi/2, within rounding: a is +-i with a tiny real part
    theta = np.linspace(-3.0, 3.0, 41)
    left, right = [], []
    for quarter in (0.5 * math.pi, -0.5 * math.pi):
        for t in theta:
            for nudge in (0.0, 1e-14, -1e-14):
                p, q = np.exp(0.5j * t), np.exp(0.5j * (2.0 * quarter - t + nudge))
                left.append([p, 0.0, 0.0, np.conj(p)])
                right.append([q, 0.0, 0.0, np.conj(q)])
    left, right = np.array(left, dtype=complex), np.array(right, dtype=complex)
    got = product_entries(left, right, model)
    assert np.all(np.abs(got[:, 0].real) < 1e-12)
    assert got.tobytes() == canonical_entries_reference(stacked_products(left, right),
                                                        model).tobytes()


NON_LOXODROMIC = {
    "parabolic": lambda: GroupPresentation([MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)], model=3),
    "pi_rotation": lambda: GroupPresentation([_pi_rotation_about([0.2, -0.1])], model=2),
}


@pytest.mark.parametrize("name", sorted(BALL_GROUPS) + sorted(NON_LOXODROMIC))
def test_first_loxodromic_matches_full_classification(name):
    G = {**BALL_GROUPS, **NON_LOXODROMIC}[name]()
    for depth in range(1, 9):
        ball = build_ball(G, depth)
        lox = np.flatnonzero(classify_entries(ball.entries) == MapClass.LOXODROMIC)
        expected = int(lox[0]) if lox.size else None
        assert ball.first_loxodromic() == expected
        if name in NON_LOXODROMIC:
            assert expected is None
        for length in range(depth + 2):
            rows = np.flatnonzero(ball.word_lengths == length)
            start, stop = ball.level_bounds(length)
            assert list(range(start, stop)) == rows.tolist()
