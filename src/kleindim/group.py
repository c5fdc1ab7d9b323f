"""Finitely generated groups: presentations, the group ball, orbits, packing data.

The group ball holds every reduced word in the generators and their inverses
up to a length, deduplicated as matrices, so relations in the group are
discovered numerically rather than assumed.  The ball evaluates no point:
one ball per run is built and then mapped to each basepoint by array code.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateBasepointError,
    InternalError,
    LoxodromicNotFoundError,
    ResourceLimitError,
    UsageError,
)
from .geometry import (
    CONSTRUCTION_TOL,
    BoundaryGeodesic,
    InteriorPoint,
    MapClass,
    MoebiusMap,
    classify,
    classify_entries,
    compose,
    distances_from,
    fixed_points,
    interior_images,
    inverse,
    origin,
    product_entries,
)

DEDUP_TOL = 1e-6       # entrywise matrix distance under which two words are one element
ORBIT_CAP = 5_000_000  # enumeration resource limit, elements kept
PACKING_SAFETY = 0.98  # the packing radius is this share of half the least displacement
_PACKING_CHUNK = 4096  # query rows per KD-tree call of the packing check


class GroupPresentation:
    """A named list of generating Moebius maps in one model dimension.

    Discreteness is an input contract and is not verified; for two-generator
    inputs a necessary trace inequality is checked and a warning (never an
    error) is emitted when it fails.
    """

    def __init__(self, generators, model, name=""):
        self.model = int(model)
        self.generators = list(generators)
        self.name = str(name)
        if not self.generators:
            raise UsageError("presentation needs at least one generator")
        for g in self.generators:
            if not isinstance(g, MoebiusMap):
                raise UsageError("generators must be MoebiusMap instances")
            if g.model != self.model:
                raise UsageError("generator model does not match the presentation")
            if g.is_identity():
                raise UsageError("identity generators are not allowed")
        for i, g in enumerate(self.generators):
            for h in self.generators[i + 1:]:
                if g.entry_distance(h) <= CONSTRUCTION_TOL:
                    raise UsageError("duplicate generators (after canonicalization)")
        if len(self.generators) == 2:
            self._trace_inequality_warning()

    def _trace_inequality_warning(self):
        # necessary condition for a discrete non-elementary two-generator
        # group; equality is attained by arithmetic examples, hence the slack
        ga, gb = self.generators
        comm = compose(compose(ga, gb), compose(inverse(ga), inverse(gb)))
        lhs = abs(ga.trace * ga.trace - 4.0) + abs(comm.trace - 2.0)
        if lhs < 1.0 - 1e-9:
            warnings.warn(
                f"two-generator trace inequality fails ({lhs:.6g} < 1); "
                "the group may be non-discrete or elementary",
                stacklevel=3,
            )

    def __repr__(self):
        return f"GroupPresentation(name={self.name!r}, model={self.model}, k={len(self.generators)})"


@dataclass
class GroupElement:
    """One enumerated group element with cached orbit data.

    shell_index is the dyadic shell k with 2^-k <= 1-|g(z)| < 2^-k+1, or
    None when the orbit point is the ball center (gap 1).  displacement is
    the hyperbolic distance from the basepoint to the orbit point.
    """

    map: MoebiusMap
    word: tuple
    orbit_point: InteriorPoint
    radial_gap: float
    shell_index: int | None
    displacement: float

    @property
    def word_length(self):
        return len(self.word)


def _shell_indices(gaps):
    _, e = np.frexp(gaps)  # gap = m * 2^e with m in [0.5, 1)
    return np.where(gaps >= 1.0, 0, 1 - e.astype(np.int64))


def shell_index_of(gap):
    """Dyadic shell index: the k >= 1 with 2^-k <= gap < 2^-k+1, else None."""
    if not gap > 0.0:
        raise UsageError(f"radial gap must be positive, got {gap:.3g}")
    return int(_shell_indices(gap)) or None


@dataclass(eq=False)
class GroupBall:
    """Every reduced word up to max_word_length, deduplicated as a matrix.

    Arrays over the elements in breadth-first order, element 0 the identity:
    `entries`, sign-canonical complex rows (a, b, c, d); `parents`, the
    element one letter shorter (-1 for the identity); `letters`, the last
    letter (+i for generator i, -i for its inverse, 0 for the identity).
    """

    presentation: GroupPresentation
    entries: np.ndarray
    parents: np.ndarray
    letters: np.ndarray
    word_lengths: np.ndarray
    max_word_length: int

    def __len__(self):
        return self.entries.shape[0]

    @cached_property
    def words(self):
        """Words of all elements, in ball order, rebuilt from the parent pointers."""
        words = [()] * len(self)
        for i, (p, letter) in enumerate(zip(self.parents.tolist(), self.letters.tolist())):
            if p >= 0:
                words[i] = words[p] + (letter,)
        return words

    def map(self, i):
        """Element i as a MoebiusMap, its entries exactly as stored."""
        return MoebiusMap.from_canonical(self.entries[i], self.presentation.model)

    def first_loxodromic(self):
        """Index of the first loxodromic element in ball order, or None."""
        lox = np.flatnonzero(classify_entries(self.entries) == MapClass.LOXODROMIC)
        return int(lox[0]) if lox.size else None

    def basepoint_on_axis(self, h, max_word_length):
        """Point on the axis of a loxodromic element, clear of elliptic fixed points.

        Starts at the point of the axis closest to the ball center and slides
        along the axis in hyperbolic steps of 0.1 while any elliptic element
        of word length <= max_word_length fixes the candidate (displacement
        below 1e-9).
        """
        m = h.map if isinstance(h, GroupElement) else h
        if classify(m) is not MapClass.LOXODROMIC:
            raise UsageError("basepoint selection needs a loxodromic element")
        geo = BoundaryGeodesic(*fixed_points(m))
        head = self.entries[self.word_lengths <= max_word_length]
        elliptics = head[classify_entries(head) == MapClass.ELLIPTIC]
        z = geo.apex
        for step in range(100):
            images, _ = interior_images(elliptics, z.coords)
            if not np.any(distances_from(z.coords, images) < 1e-9):
                return z
            z = geo.point_at(0.1 * (step + 1))
        raise InternalError("no elliptic-free point found along the axis after 100 steps")


def _fresh(kept, candidates):
    """Mask of the candidates that duplicate no kept or earlier fresh one.

    A Chebyshev KD-tree query (k doubles until no candidate has k neighbors
    within DEDUP_TOL) finds a superset of the earlier rows within DEDUP_TOL
    entrywise; the exact complex-modulus test decides.  Pairs come ordered by
    their later row, so duplicates resolve greedily and the first occurrence
    survives.
    """
    rows = np.concatenate([kept, candidates])
    tree = cKDTree(rows.view(float))
    k = 4
    while True:
        dist, near = tree.query(candidates.view(float), k=k,
                                distance_upper_bound=DEDUP_TOL, p=np.inf)
        if not np.isfinite(dist[:, -1]).any():
            break
        k *= 2
    later = np.repeat(np.arange(kept.shape[0], rows.shape[0]), k)
    earlier = near.ravel()
    hit = earlier < later  # drops the candidate itself and missing neighbors
    hit[hit] = np.abs(rows[earlier[hit]] - rows[later[hit]]).max(axis=1) <= DEDUP_TOL
    fresh = np.ones(rows.shape[0], dtype=bool)
    for i, j in zip(earlier[hit].tolist(), later[hit].tolist()):
        if fresh[i]:
            fresh[j] = False
    return fresh[kept.shape[0]:]


def build_ball(presentation, max_word_length, cap=ORBIT_CAP):
    """Breadth-first reduced-word enumeration with matrix deduplication.

    Parameters
    ----------
    presentation : GroupPresentation
    max_word_length : int >= 1
    cap : kept-element resource limit, checked after each word length.

    Word order is by length, then by parent order, then by letter with the
    generator before its inverse (alphabet g1, g1^-1, g2, g2^-1, ...).
    Words whose matrix lies within DEDUP_TOL entrywise of an earlier element
    are dropped and not expanded; the surviving set of words is closed under
    prefixes.  Each level is one batch of 2x2 products over frontier x
    alphabet.
    """
    max_word_length = int(max_word_length)
    if max_word_length < 1:
        raise UsageError("max_word_length must be at least 1")
    cap = int(cap)

    rank = len(presentation.generators)
    alphabet = np.array([sign * i for i in range(1, rank + 1) for sign in (1, -1)])
    generators = np.array([[m.a, m.b, m.c, m.d]
                           for g in presentation.generators for m in (g, inverse(g))])

    entries = np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex)
    parents, letters, lengths = np.array([-1]), np.array([0]), np.array([0])
    frontier = np.array([0])
    for length in range(1, max_word_length + 1):
        parent = np.repeat(frontier, alphabet.size)
        k = np.tile(np.arange(alphabet.size), frontier.size)
        reduced = alphabet[k] != -letters[parent]  # skip immediate cancellation
        parent, k = parent[reduced], k[reduced]
        children = product_entries(entries[parent], generators[k], presentation.model)
        fresh = _fresh(entries, children)
        frontier = np.arange(entries.shape[0], entries.shape[0] + int(fresh.sum()))
        if entries.shape[0] + frontier.size > cap:
            raise ResourceLimitError(
                f"orbit enumeration exceeded {cap} elements at word length {length}"
            )
        entries = np.concatenate([entries, children[fresh]])
        parents = np.concatenate([parents, parent[fresh]])
        letters = np.concatenate([letters, alphabet[k[fresh]]])
        lengths = np.concatenate([lengths, np.full(frontier.size, length)])
        if not frontier.size:
            break
    return GroupBall(presentation, entries, parents, letters, lengths, max_word_length)


class OrbitSet:
    """A group ball mapped to a basepoint by one vectorized map.

    Flat arrays over the ball's elements, in ball order: points, gaps, shell
    indices, displacements, word lengths.
    """

    def __init__(self, ball, basepoint):
        self.ball = ball
        self.presentation = ball.presentation
        self.model = ball.presentation.model
        if basepoint.model != self.model:
            raise UsageError("basepoint model does not match the presentation")
        self.basepoint = basepoint
        self.word_lengths = ball.word_lengths
        self.max_word_length = ball.max_word_length
        self.points, one_minus_sq = interior_images(ball.entries, basepoint.coords)
        self.gaps = one_minus_sq / (1.0 + np.linalg.norm(self.points, axis=1))
        self.shells = _shell_indices(self.gaps)
        self.displacements = distances_from(basepoint.coords, self.points, self.gaps_squared())

    def __len__(self):
        return len(self.ball)

    def element(self, i):
        """GroupElement view of element i, built from the arrays."""
        return GroupElement(self.ball.map(i), self.ball.words[i], InteriorPoint(self.points[i]),
                            float(self.gaps[i]), int(self.shells[i]) or None,
                            float(self.displacements[i]))

    @property
    def elements(self):
        """Read-only per-element view, rebuilt from the arrays on each access."""
        return tuple(self.element(i) for i in range(len(self)))

    def shell_counts(self):
        """Mapping shell index -> element count, shelled elements only."""
        ks, counts = np.unique(self.shells[self.shells > 0], return_counts=True)
        return dict(zip(ks.tolist(), counts.tolist()))

    def gaps_squared(self):
        """1 - |g(z)|^2 per element, reconstructed from the stable gap."""
        return self.gaps * (2.0 - self.gaps)


def enumerate_orbit(presentation, basepoint, max_word_length, cap=ORBIT_CAP):
    """Orbit of basepoint under the group ball of max_word_length (see build_ball)."""
    return OrbitSet(build_ball(presentation, max_word_length, cap), basepoint)


def find_loxodromic(presentation, search_depth):
    """First loxodromic element in enumeration order, up to search_depth.

    Raises LoxodromicNotFoundError when none exists at that depth; the
    group may be elementary (or generated by parabolics and elliptics only),
    or the search may simply need to go deeper.
    """
    ball = build_ball(presentation, search_depth)
    i = ball.first_loxodromic()
    if i is None:
        raise LoxodromicNotFoundError(
            f"no loxodromic element within word length {search_depth}; "
            "the group may be elementary, or try a deeper search"
        )
    return OrbitSet(ball, origin(presentation.model)).element(i)


def choose_basepoint(h, presentation, search_depth):
    """GroupBall.basepoint_on_axis on the ball of search_depth."""
    return build_ball(presentation, search_depth).basepoint_on_axis(h, search_depth)


@dataclass
class PackingRadius:
    """Half the smallest orbit displacement, shrunk by a safety factor.

    Hyperbolic balls of this radius about distinct orbit points of the
    fully enumerated group are pairwise disjoint; at a finite search depth
    that statement is checkable only for the enumerated elements, so the
    depth travels with the value.
    """

    radius: float
    min_displacement: float
    safety_factor: float
    search_depth: int


def packing_radius(orbit):
    """Packing radius from the smallest nontrivial orbit displacement."""
    disp = orbit.displacements[orbit.word_lengths > 0]
    if disp.size == 0:
        raise UsageError("orbit has no nontrivial elements")
    min_disp = float(disp.min())
    if min_disp < 1e-9:
        raise DegenerateBasepointError(
            f"basepoint is fixed by a nontrivial element (displacement {min_disp:.3g})"
        )
    return PackingRadius(
        radius=0.5 * PACKING_SAFETY * min_disp,
        min_displacement=min_disp,
        safety_factor=PACKING_SAFETY,
        search_depth=orbit.max_word_length,
    )


@dataclass
class PackingCheck:
    """Outcome of the pairwise ball-disjointness oracle."""

    ok: bool
    pair: tuple | None = None
    distance: float | None = None


def check_packing_disjoint(orbit, radius):
    """Verify d(g_i z, g_j z) > 2*radius for all pairs of orbit points.

    Returns the lexicographically first violating pair of element indices,
    with its distance, when the balls are not disjoint: the verdict, pair and
    distance of the exhaustive pairwise scan, found from KD-tree candidates.

    With q = 1 - |.|^2 from the stable gaps, a pair violates when
    1 + 2|x - y|^2 / (q_x q_y) <= cosh 2a, which gives
    |x - y| <= sqrt((cosh 2a - 1) / 2) * max(q_x, q_y).  So a query from the
    endpoint with the larger q, at that radius padded by 1e-9, finds every
    violating pair; the exact test decides on the candidates.  q grows with
    the gap, so the other endpoint is in no shallower dyadic shell; points at
    hyperbolic distance D have q within a factor e^D of each other, so it is
    at most 2a/ln 2 + 2 shells deeper.  Each shell queries a tree of that
    window of shells only, _PACKING_CHUNK rows at a time, which keeps the
    candidates near-linear in the orbit size.
    """
    pts = orbit.points
    qa = orbit.gaps_squared()
    thresh = math.cosh(2.0 * radius)
    reach = qa * (math.sqrt(0.5 * (thresh - 1.0)) * (1.0 + 1e-9))
    span = int(math.ceil(2.0 * abs(radius) / math.log(2.0))) + 2
    shells = orbit.shells
    best = None
    for k in np.unique(shells).tolist():
        rows = np.flatnonzero(shells == k)
        cols = np.flatnonzero((shells >= k) & (shells <= k + span))
        tree = cKDTree(pts[cols])
        for start in range(0, rows.size, _PACKING_CHUNK):
            i = rows[start:start + _PACKING_CHUNK]
            near = tree.query_ball_point(pts[i], reach[i], return_sorted=False)
            i = np.repeat(i, np.fromiter(map(len, near), dtype=np.intp, count=i.size))
            j = cols[np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp, count=i.size)]
            keep = (qa[j] <= qa[i]) & (i != j)
            i, j = np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])
            diff = pts[i] - pts[j]
            carg = 1.0 + 2.0 * np.einsum("ij,ij->i", diff, diff) / (qa[i] * qa[j])
            bad = np.flatnonzero(carg <= thresh)
            if bad.size:
                b = bad[np.lexsort((j[bad], i[bad]))[0]]
                if best is None or (i[b], j[b]) < best[:2]:
                    best = (int(i[b]), int(j[b]), float(carg[b]))
    if best is None:
        return PackingCheck(ok=True)
    i, j, carg = best
    return PackingCheck(ok=False, pair=(i, j), distance=float(np.arccosh(max(carg, 1.0))))
