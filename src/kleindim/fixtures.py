"""Built-in test fixtures: three group presentations and one point set.

cyclic_loxodromic   one hyperbolic translation of the disc, length ln 9
schottky_f2         two translations along orthogonal diameters, free of rank 2
fuchsian_lattice    the standard arithmetic lattice, moved to the disc
cantor_test         middle-thirds Cantor set bent onto the unit circle
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .group import GroupPresentation
from .groupio import halfplane_to_disc
from .geometry import MoebiusMap
from .limitset import SOURCE_SYNTHETIC, LimitSample

_T = math.log(3.0)  # half the translation length ln 9


def cyclic_loxodromic():
    """One disc translation along the real axis, g(0) = (0.8, 0)."""
    ch, sh = math.cosh(_T), math.sinh(_T)
    gen = MoebiusMap(ch, sh, sh, ch, 2)
    return GroupPresentation([gen], model=2, name="cyclic_loxodromic")


def schottky_f2():
    """Two disc translations with orthogonal axes and disjoint pairing circles.

    Both have translation length ln 9; the isometric circles (radius
    1/sinh, centers at distance coth from the origin) stay disjoint, so the
    group is free of rank 2.
    """
    ch, sh = math.cosh(_T), math.sinh(_T)
    g1 = MoebiusMap(ch, sh, sh, ch, 2)
    g2 = MoebiusMap(ch, 1j * sh, -1j * sh, ch, 2)
    return GroupPresentation([g1, g2], model=2, name="schottky_f2")


def fuchsian_lattice():
    """The lattice generated by z -> z+1 and z -> -1/z, in disc form."""
    t = halfplane_to_disc(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    s = halfplane_to_disc(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    return GroupPresentation([t, s], model=2, name="fuchsian_lattice")


def cantor_test(depth=12):
    """Middle-thirds Cantor points bent onto the unit circle by arc length.

    The bend is bi-Lipschitz, so the box dimension log 2 / log 3 carries
    over; points are the 2^depth left endpoints at stage `depth`.  Each
    point's witness is its row of ternary digits (0 or 2), (N, depth) uint8.
    """
    depth = int(depth)
    if not 1 <= depth <= 20:
        raise UsageError("cantor depth must be in [1, 20]")
    xs = np.zeros(1)
    for i in range(1, depth + 1):
        xs = np.concatenate([xs, xs + 2.0 * 3.0 ** -i])
    order = np.argsort(xs)
    arr = xs[order]
    # stage i + 1 appended the copy shifted by 2*3^-(i+1), so bit i of a
    # point's construction index is its digit i + 1 halved
    digits = np.empty((order.size, depth), dtype=np.uint8)
    for i in range(depth):
        digits[:, i] = (order >> i & 1) * 2
    pts = np.column_stack([np.cos(arr), np.sin(arr)])
    return LimitSample(points=pts, witnesses=digits, source=SOURCE_SYNTHETIC)


GROUP_FIXTURES = {
    "cyclic_loxodromic": cyclic_loxodromic,
    "schottky_f2": schottky_f2,
    "fuchsian_lattice": fuchsian_lattice,
}

POINT_FIXTURES = {
    "cantor_test": cantor_test,
}


def fixture_names():
    return sorted(GROUP_FIXTURES) + sorted(POINT_FIXTURES)


def get_group_fixture(name):
    if name not in GROUP_FIXTURES:
        raise UsageError(
            f"unknown group fixture {name!r}; choices: {', '.join(sorted(GROUP_FIXTURES))}"
        )
    return GROUP_FIXTURES[name]()
