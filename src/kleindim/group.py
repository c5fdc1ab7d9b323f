"""Finitely generated groups: presentations, the group ball, orbits, packing data.

The group ball holds every reduced word in the generators and their inverses
up to a length, deduplicated as matrices, so relations in the group are
discovered numerically rather than assumed.  The ball evaluates no point:
one ball per run is built and then mapped to each basepoint by array code.
An orbit groups its rows by dyadic shell once, on first use (`ShellRuns`), and
every per-shell stage reads a shell or a window of shells as one slice of it.
The packing check reads no shells: it queries one KD-tree of the whole orbit.

A ball depends only on its key (`ball_key`): the model, the bytes of the
generators' canonical entries, the word length, and the current DEDUP_TOL
and ORBIT_CAP.  The library holds at most one ball per process, that of
`verify.front`.  The benchmark harness's `enumerate_orbit`,
`find_loxodromic` and `choose_basepoint` read it when it is of their group
at their word length or deeper, cut by `GroupBall.head` (breadth-first
levels do not depend on the horizon), and otherwise build a ball that is
not held.  A ball spells its words once, on first use
(`GroupBall.spellings`).  The arrays the library allocates for a ball, an
orbit and an orbit sample are read-only, so no holder can alter what
another reads.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    MapClass,
    MoebiusMap,
    check_radius,
    classify,
    classify_entries,
    compose,
    distances_from,
    fixed_points,
    interior_images,
    inverse,
    product_entries,
)

DEDUP_TOL = 1e-6       # entrywise matrix distance under which two words are one element
ORBIT_CAP = 5_000_000  # enumeration resource limit, elements kept
PACKING_SAFETY = 0.98  # the packing radius is this share of half the least displacement
_PACKING_CHUNK = 4096  # rows per count, and candidates per listing, of the packing check
_DEDUP_WEIGHTS = 0.7549 ** np.arange(8)  # generic weights of the dedup's sort key


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


def _shell_indices(gaps):
    """Dyadic shell index per gap: the k >= 1 with 2^-k <= gap < 2^-k+1, or 0 at gap 1."""
    _, e = np.frexp(gaps)  # gap = m * 2^e with m in [0.5, 1)
    return np.where(gaps >= 1.0, 0, 1 - e.astype(np.int64))


class ShellRuns:
    """An orbit's rows by shell, from one stable sort: occupied shell `shells[i]`
    (ascending) holds the rows order[bounds[i]:bounds[i + 1]], in ball order.
    """

    def __init__(self, shell_indices):
        self.order = np.argsort(shell_indices, kind="stable")
        ordered = shell_indices[self.order]
        self.bounds = np.concatenate([[0], np.flatnonzero(np.diff(ordered)) + 1, [ordered.size]])
        self.shells = ordered[self.bounds[:-1]]
        self.counts = np.diff(self.bounds)

    def window(self, k_lo, k_hi):
        """Positions lo..hi - 1 of the occupied shells k_lo <= k <= k_hi (hi >= lo)."""
        lo, hi = np.searchsorted(self.shells, [k_lo, k_hi + 1]).tolist()
        return lo, max(lo, hi)

    def rows(self, start, stop):
        """Rows of the shells at positions start..stop - 1, shell by shell."""
        return self.order[self.bounds[start]:self.bounds[stop]]

    def sums(self, values):
        """Per-shell sums, one `.sum()` per run: a masked selection's sums, bit for bit."""
        return self.window_sums(values[self.order], 0, self.shells.size)

    def window_sums(self, values, start, stop):
        """`sums` of the shells at positions start..stop - 1, of values aligned with their rows."""
        bounds = (self.bounds[start:stop + 1] - self.bounds[start]).tolist()
        return np.array([values[lo:hi].sum() for lo, hi in itertools.pairwise(bounds)])


def _spell_words(parents, letters):
    """Spelling of every word of a parent-pointer trie, in trie order.

    Row 0 is the identity, spelled "1"; every other row's parent comes
    before it, and its spelling is the parent's plus one token.  A word is
    spelled compactly (a..z generators, A..Z inverses) when every one of its
    letters has |letter| <= 26, otherwise as its letters joined by ".", so
    both spellings are carried down the trie until a wide letter ends the
    compact one.
    """
    parents, letters = parents.tolist(), letters.tolist()
    compact_token = {
        letter: chr(ord("a") + letter - 1) if letter > 0 else chr(ord("A") - letter - 1)
        for letter in set(letters[1:]) if abs(letter) <= 26
    }
    compact, dotted = [""], [""]
    for p, letter in zip(parents[1:], letters[1:]):
        prefix, token = compact[p], compact_token.get(letter)
        compact.append(None if prefix is None or token is None else prefix + token)
        dotted.append(f"{dotted[p]}.{letter}")
    spelled = [d[1:] if c is None else c for c, d in zip(compact, dotted)]
    spelled[0] = "1"
    return spelled


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

    def map(self, i):
        """Element i as a MoebiusMap, its entries exactly as stored."""
        return MoebiusMap.from_canonical(self.entries[i], self.presentation.model)

    def head(self, length):
        """The words of length <= `length` <= max_word_length: build_ball(length), as views."""
        length = int(length)
        if not 1 <= length <= self.max_word_length:
            raise UsageError(f"head length must lie in 1..{self.max_word_length}, got {length}")
        stop = self.level_bounds(length)[1]
        return GroupBall(self.presentation, self.entries[:stop], self.parents[:stop],
                         self.letters[:stop], self.word_lengths[:stop], length)

    @cached_property
    def spellings(self):
        """Every word spelled from the trie (`_spell_words`), built on first use."""
        return _spell_words(self.parents, self.letters)

    def level_bounds(self, length):
        """Rows start..stop - 1, the elements of word length `length` (one run in ball order)."""
        start, stop = np.searchsorted(self.word_lengths, [length, length + 1]).tolist()
        return start, stop

    def first_loxodromic(self):
        """Index of the first loxodromic element in ball order, or None.

        Classifies one word length at a time and stops at the first that holds one.
        """
        for length in range(self.max_word_length + 1):
            start, stop = self.level_bounds(length)
            lox = np.flatnonzero(classify_entries(self.entries[start:stop]) == MapClass.LOXODROMIC)
            if lox.size:
                return start + int(lox[0])
        return None

    def basepoint_on_axis(self, h, max_word_length):
        """Point on the axis of a loxodromic element, clear of elliptic fixed points.

        Starts at the point of the axis closest to the ball center and slides
        along the axis in hyperbolic steps of 0.1 while any elliptic element
        of word length <= max_word_length fixes the candidate (displacement
        below 1e-9).
        """
        if classify(h) is not MapClass.LOXODROMIC:
            raise UsageError("basepoint selection needs a loxodromic element")
        geo = BoundaryGeodesic(*fixed_points(h))
        head = self.entries[:self.level_bounds(max_word_length)[1]]
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

    Two rows within DEDUP_TOL entrywise (complex modulus) have real parts
    within DEDUP_TOL, so their projections onto the fixed weights
    _DEDUP_WEIGHTS differ by at most DEDUP_TOL * |w|_1.  One sort of every
    row's projection therefore yields all such pairs inside a window of that
    width, widened by 1e-14 * |w|_1 times the largest real component in
    absolute value, which bounds the rounding of two 8-term dot products and
    of the window's own sum.
    The exact complex-modulus test decides on the pairs whose later row is a
    candidate.  Duplicates resolve greedily in order of the later row, so the
    first occurrence survives: a row is dropped when an earlier duplicate
    survives, which is settled in rounds, each taking the rows whose earlier
    duplicates are all settled.
    """
    rows = np.concatenate([kept, candidates])
    parts = rows.view(float)
    key = parts @ _DEDUP_WEIGHTS
    window = (DEDUP_TOL + 1e-14 * max(parts.max(), -parts.min())) * _DEDUP_WEIGHTS.sum()
    order = np.argsort(key)
    ordered = key[order]
    # sorted position p pairs with each later q where ordered[q] <= ordered[p] + window;
    # only the positions whose successor qualifies have any
    near = np.flatnonzero(ordered[1:] <= ordered[:-1] + window)
    counts = np.searchsorted(ordered, ordered[near] + window, side="right") - near - 1
    first = np.repeat(near, counts)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    earlier = np.minimum(order[first], order[second])
    later = np.maximum(order[first], order[second])
    pair = later >= kept.shape[0]
    earlier, later = earlier[pair], later[pair]
    hit = np.abs(rows[earlier] - rows[later]).max(axis=1) <= DEDUP_TOL
    earlier, later = earlier[hit], later[hit]
    fresh = np.ones(rows.shape[0], dtype=bool)
    pending = np.zeros(rows.shape[0], dtype=bool)
    pending[later] = True
    while later.size:
        ready = pending.copy()
        ready[later[pending[earlier]]] = False
        fresh[later[ready[later] & fresh[earlier]]] = False
        pending &= ~ready
        earlier, later = earlier[pending[later]], later[pending[later]]
    return fresh[kept.shape[0]:]


def build_ball(presentation, max_word_length):
    """Breadth-first reduced-word enumeration with matrix deduplication.

    Every reduced word up to max_word_length >= 1.  ORBIT_CAP bounds the kept
    elements plus the next word length's reduced candidates, checked before
    that length's products are formed, so no level larger than the cap is
    ever multiplied out.  In a free group, where no candidate is dropped, the
    error comes at the same word length and with the same message as a
    check of the kept elements after each length would give; a group with
    relations, whose duplicates are dropped only after the products, may
    stop at an earlier word length.  Word order is by length, then
    by parent order, then by letter with the generator before its inverse
    (alphabet g1, g1^-1, g2, g2^-1, ...).  Words whose matrix lies within
    DEDUP_TOL entrywise of an earlier element are dropped and not expanded;
    the surviving set of words is closed under prefixes.  Each level is one
    batch of 2x2 products of the previous level's rows by the alphabet,
    deduplicated against every kept element by one sort of a fixed
    projection of the entries (see _fresh); no search tree is built.
    """
    max_word_length = int(max_word_length)
    if max_word_length < 1:
        raise UsageError("max_word_length must be at least 1")

    rank = len(presentation.generators)
    alphabet = np.array([sign * i for i in range(1, rank + 1) for sign in (1, -1)])
    generators = np.array([[m.a, m.b, m.c, m.d]
                           for g in presentation.generators for m in (g, inverse(g))])

    entries = np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex)
    # the last level: its first ball row, its rows and their letters
    start, level, level_letters = 0, entries, np.array([0])
    parents, letters, lengths = [np.array([-1])], [level_letters], [np.array([0])]
    for length in range(1, max_word_length + 1):
        # every letter but one cancelling letter extends a row; all of them extend the identity
        candidates = alphabet.size * level.shape[0] - np.count_nonzero(level_letters)
        if entries.shape[0] + candidates > ORBIT_CAP:
            raise ResourceLimitError(
                f"orbit enumeration exceeded {ORBIT_CAP} elements at word length {length}"
            )
        parent = np.repeat(np.arange(level.shape[0]), alphabet.size)
        k = np.tile(np.arange(alphabet.size), level.shape[0])
        reduced = alphabet[k] != -level_letters[parent]  # skip immediate cancellation
        parent, k = parent[reduced], k[reduced]
        children = product_entries(level[parent], generators[k], presentation.model)
        fresh = _fresh(entries, children)
        level, level_letters = children[fresh], alphabet[k[fresh]]
        parents.append(parent[fresh] + start)
        letters.append(level_letters)
        lengths.append(np.full(level.shape[0], length))
        start = entries.shape[0]
        entries = np.concatenate([entries, level])
        if not level.shape[0]:
            break
    arrays = [entries, np.concatenate(parents), np.concatenate(letters), np.concatenate(lengths)]
    for array in arrays:
        array.setflags(write=False)
    return GroupBall(presentation, *arrays, max_word_length)


def ball_key(presentation, max_word_length):
    """Everything build_ball(presentation, max_word_length) depends on, as one hashable key.

    The model, the exact bytes of the generators' canonical entries (a, b, c,
    d) in order, the current DEDUP_TOL and ORBIT_CAP, and the word length last.
    """
    entries = np.array([[g.a, g.b, g.c, g.d] for g in presentation.generators], dtype=complex)
    return presentation.model, entries.tobytes(), DEDUP_TOL, ORBIT_CAP, int(max_word_length)


def _harness_ball(presentation, max_word_length):
    """The held front's ball, when it is of the group at max_word_length or deeper, cut
    to it; else a new ball, not held."""
    from .verify import _held  # here: verify imports this module

    key = ball_key(presentation, max_word_length)
    if _held is not None and 1 <= key[-1] <= _held.key[-1] and _held.key[:-1] == key[:-1]:
        return _held.ball.head(key[-1])
    return build_ball(presentation, max_word_length)


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
        for array in (self.points, self.gaps, self.shells, self.displacements):
            array.setflags(write=False)

    def __len__(self):
        return len(self.ball)

    def gaps_squared(self):
        """1 - |g(z)|^2 per element, reconstructed from the stable gap."""
        return self.gaps * (2.0 - self.gaps)

    @cached_property
    def shell_runs(self):
        """The rows grouped by shell (`ShellRuns`), built on first use."""
        return ShellRuns(self.shells)


def enumerate_orbit(presentation, basepoint, max_word_length):
    """Orbit of basepoint under the ball of max_word_length; the benchmark harness calls it."""
    return OrbitSet(_harness_ball(presentation, max_word_length), basepoint)


def find_loxodromic(presentation, search_depth):
    """First loxodromic element in enumeration order, up to search_depth, as a MoebiusMap.

    Raises LoxodromicNotFoundError when none exists at that depth; the
    group may be elementary (or generated by parabolics and elliptics only),
    or the search may simply need to go deeper.  The benchmark harness calls it.
    """
    ball = _harness_ball(presentation, search_depth)
    i = ball.first_loxodromic()
    if i is None:
        raise LoxodromicNotFoundError(
            f"no loxodromic element within word length {search_depth}; "
            "the group may be elementary, or try a deeper search"
        )
    return ball.map(i)


def choose_basepoint(h, presentation, search_depth):
    """GroupBall.basepoint_on_axis on the ball of search_depth; the benchmark harness calls it."""
    return _harness_ball(presentation, search_depth).basepoint_on_axis(h, search_depth)


@dataclass
class PackingRadius:
    """Half the smallest orbit displacement, shrunk by the factor PACKING_SAFETY.

    Hyperbolic balls of this radius about distinct orbit points of the
    fully enumerated group are pairwise disjoint; at a finite search depth
    that statement is checkable only for the enumerated elements.
    """

    radius: float
    min_displacement: float


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
    1 + 2|x - y|^2 / (q_x q_y) <= cosh 2a.  For q_y = 1 - |y|^2, the y that
    violate with x fill a Euclidean ball about x (1 - t^2) / D of radius
    t q_x / D, which holds x (t = tanh a, D = (1 - t^2) + q_x t^2).  With t
    from the float threshold raised by an ulp, and the radius padded by 1e-9
    relative and by the largest |q - (1 - |x|^2)| plus 2^-48, both rows of
    any pair the float test passes hold it in their padded balls.  One
    KD-tree counts each ball, _PACKING_CHUNK rows at a time; rows with a
    partner list candidates for the exact test in row order, in runs of
    about _PACKING_CHUNK, up to the first run with a violating pair, which
    holds the first pair.  The radius must be finite and >= 0 (`check_radius`).
    """
    radius = check_radius(radius)
    from scipy.spatial import cKDTree  # here, so `import kleindim` does not load it

    pts, qa = orbit.points, orbit.gaps_squared()
    thresh = math.cosh(2.0 * radius)
    k = 0.5 * (thresh - 1.0) + thresh * 2.0 ** -52  # sinh^2 a, rounded up
    sech2 = 1.0 / (1.0 + k)  # 1 - t^2, 0 once k overflows
    t2 = 1.0 - sech2 if k > 1.0 else k * sech2
    slack = np.abs(qa + np.einsum("ij,ij->i", pts, pts) - 1.0).max() + 2.0 ** -48
    tree = cKDTree(pts, leafsize=64)  # its counts ran about 15% faster than at the default 16
    for start in range(0, pts.shape[0], _PACKING_CHUNK):
        den = sech2 + qa[start:start + _PACKING_CHUNK] * t2
        centres = pts[start:start + _PACKING_CHUNK] * (sech2 / den)[:, None]
        reach = math.sqrt(t2) * qa[start:start + _PACKING_CHUNK] / den * (1.0 + 1e-9) + slack
        counts = tree.query_ball_point(centres, reach, return_length=True)
        flagged = np.flatnonzero(counts > 1)
        runs = np.cumsum(counts[flagged]) // _PACKING_CHUNK
        for at in np.split(flagged, np.flatnonzero(np.diff(runs)) + 1) if flagged.size else ():
            near = tree.query_ball_point(centres[at], reach[at], return_sorted=False)
            i = np.repeat(start + at, np.fromiter(map(len, near), dtype=np.intp, count=at.size))
            j = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp, count=i.size)
            i, j = np.sort(np.stack([i, j])[:, i != j], axis=0)  # each pair as (min, max)
            diff = pts[i] - pts[j]
            carg = 1.0 + 2.0 * np.einsum("ij,ij->i", diff, diff) / (qa[i] * qa[j])
            bad = np.flatnonzero(carg <= thresh)
            if bad.size:
                b = bad[np.lexsort((j[bad], i[bad]))[0]]
                return PackingCheck(ok=False, pair=(int(i[b]), int(j[b])),
                                    distance=float(np.arccosh(max(carg[b], 1.0))))
    return PackingCheck(ok=True)
