"""Poincare disc and ball geometry: points, the hyperbolic metric, Moebius maps.

Maps are unit-determinant 2x2 complex matrices.  In the planar model (n=2)
they are kept in disc-preserving form (c = conj(b), d = conj(a)) and act on
the unit disc by the usual fractional-linear formula.  In the spatial model
(n=3) they are kept in the upper half-space chart and evaluated through the
quaternion form of the action; one fixed Cayley transform carries points
between the chart and the unit ball, so callers only ever see ball
coordinates.

The stages map arrays of entries; of the scalar maps, `apply_interior`
stays for the benchmark harness's tests, and `translation_to_origin` for
a displacement read from the matrices, which would conjugate by it.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .errors import (
    InternalError,
    ModelMismatchError,
    NumericalOverflowError,
    UsageError,
)

CONSTRUCTION_TOL = 1e-9  # matrix validation and classification
POLE_TOL = 1e-14         # boundary evaluation pole guard
OVERFLOW_TOL = 1e-14     # interior images this close to the sphere overflow
_CANON_EPS = 1e-12
_NORTH = np.array([0.0, 0.0, 1.0])
_FLIP = np.array([1.0, 1.0, -1.0])  # reflect the height coordinate


class MapClass(enum.Enum):
    """Conjugacy type of a Moebius map."""

    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


_CLASSES = np.array(list(MapClass), dtype=object)


class InteriorPoint:
    """Point of the open unit ball, a length-2 or length-3 float vector."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float).reshape(-1)
        if c.size not in (2, 3):
            raise UsageError(f"interior point needs 2 or 3 coordinates, got {c.size}")
        if not np.all(np.isfinite(c)):
            raise UsageError("interior point has non-finite coordinates")
        if float(np.dot(c, c)) >= 1.0:
            raise UsageError(f"interior point must have norm < 1, got |x| = {np.linalg.norm(c):.6g}")
        c.setflags(write=False)
        self.coords = c

    @property
    def model(self):
        return self.coords.size

    @property
    def norm(self):
        return float(np.linalg.norm(self.coords))

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self.coords)
        return f"InteriorPoint([{vals}])"


class BoundaryPoint:
    """Point of the unit sphere; renormalized to unit norm on construction."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float).reshape(-1)
        if c.size not in (2, 3):
            raise UsageError(f"boundary point needs 2 or 3 coordinates, got {c.size}")
        if not np.all(np.isfinite(c)):
            raise UsageError("boundary point has non-finite coordinates")
        norm = float(np.linalg.norm(c))
        if norm < 1e-12:
            raise UsageError("boundary point direction is numerically zero")
        c = c / norm
        c.setflags(write=False)
        self.coords = c

    @property
    def model(self):
        return self.coords.size

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self.coords)
        return f"BoundaryPoint([{vals}])"


def origin(model):
    """The ball center of the given model dimension."""
    return InteriorPoint(np.zeros(int(model)))


def _row(g):
    return g.matrix().reshape(1, 4)


def canonical_entries(entries, model):
    """Sign-canonical copies of rows (a, b, c, d) of unit-determinant matrices.

    Fixes the +/-M ambiguity: the first nonzero entry (row-major) gets a
    nonnegative real part, ties broken toward nonnegative imaginary part.
    For the planar model every row must be in disc-preserving form.
    """
    return _canonicalize(np.array(entries, dtype=complex).reshape(-1, 4), model)


def _canonicalize(e, model):
    """canonical_entries on an (N, 4) complex array, in place; returns it.

    The first nonzero entry is a on every row with |a| > _CANON_EPS, which
    holds for every planar row since |a|^2 - |b|^2 = 1; only the other rows
    search their entries for it.
    """
    abs_a = np.abs(e[:, 0])
    lead = e[:, 0]
    big_a = abs_a > _CANON_EPS
    if not big_a.all():
        rest = np.flatnonzero(~big_a)
        big = np.abs(e[rest]) > _CANON_EPS
        if not np.all(big.any(axis=1)):
            raise InternalError("zero matrix cannot be canonicalized")
        lead = lead.copy()
        lead[rest] = e[rest, big.argmax(axis=1)]
    flip = (lead.real < -_CANON_EPS) | ((np.abs(lead.real) <= _CANON_EPS) & (lead.imag < 0.0))
    if flip.any():
        e[flip] = -e[flip]
    if model == 2:
        a, b, c, d = e.T
        tol = CONSTRUCTION_TOL * np.maximum(1.0, np.maximum(abs_a, np.abs(b)))
        if np.any((np.abs(c - np.conj(b)) > tol) | (np.abs(d - np.conj(a)) > tol)):
            raise UsageError("planar map is not disc preserving: need c = conj(b), d = conj(a)")
    return e


def product_entries(left, right, model):
    """Sign-canonical rows of the products left_i . right_i (rows broadcast).

    Not renormalized: dividing by sqrt(det) would inject the eps * |a|^2
    cancellation error of the computed determinant.
    """
    la, lb, lc, ld = np.asarray(left).T
    ra, rb, rc, rd = np.asarray(right).T
    out = np.empty((np.broadcast_shapes(la.shape, ra.shape)[0], 4), dtype=complex)
    # overflow is silent here: the determinant check is its one report
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 0] = la * ra + lb * rc
        out[:, 1] = la * rb + lb * rd
        out[:, 2] = lc * ra + ld * rc
        out[:, 3] = lc * rb + ld * rd
        if not _unit_determinant(*out.T):
            raise UsageError("matrix product is non-finite or not of unit determinant")
    return _canonicalize(out, model)


def _unit_determinant(a, b, c, d):
    """Whether every product is finite with |ad - bc - 1| <= 1e-9 (|ad| + |bc|).

    Relative to |ad| + |bc| because the computed ad - bc of unit-determinant
    factors is 1 only within a few ulps of those terms, which pass 1 by far
    once the entries grow past about 10^8.  Worked in place, so the check
    holds no more arrays at once than the products themselves.
    """
    det, bc = a * d, b * c
    bound = np.abs(det)
    bound += np.abs(bc)
    det -= bc
    det -= 1.0
    return bool(np.all(np.isfinite(bound)) and np.all(np.abs(det) <= 1e-9 * bound))


def _identity_rows(entries):
    a, b, c, d = entries.T
    tol = CONSTRUCTION_TOL
    return ((np.abs(a - 1.0) <= tol) & (np.abs(d - 1.0) <= tol)
            & (np.abs(b) <= tol) & (np.abs(c) <= tol))


def classify_entries(entries):
    """Conjugacy class per row (a, b, c, d), as an object array of MapClass.

    Identity wins when the canonical matrix is the identity within
    tolerance; otherwise tau = trace^2 decides: parabolic at tau = 4,
    elliptic for real tau in [0, 4), loxodromic for everything else.
    """
    tol = CONSTRUCTION_TOL
    trace = entries[:, 0] + entries[:, 3]
    tau = trace * trace
    codes = np.full(entries.shape[0], 3)  # positions in MapClass, loxodromic last
    codes[(np.abs(tau.imag) < tol) & (-tol <= tau.real) & (tau.real < 4.0)] = 1
    codes[np.abs(tau - 4.0) < tol] = 2
    codes[_identity_rows(entries)] = 0
    return _CLASSES[codes]


class MoebiusMap:
    """Unit-determinant 2x2 complex matrix tagged with its model dimension.

    Construction renormalizes the determinant to 1, canonicalizes the
    overall sign, and for the planar model checks the disc-preserving form.
    Instances are immutable value objects.
    """

    __slots__ = ("a", "b", "c", "d", "model")

    def __init__(self, a, b, c, d, model):
        model = int(model)
        if model not in (2, 3):
            raise UsageError(f"model dimension must be 2 or 3, got {model}")
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        det = a * d - b * c
        if not (abs(det) > 1e-12 and cmath.isfinite(det)):
            raise UsageError(f"matrix is singular or non-finite (det = {det:.3g})")
        if det != 1.0:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        self.a, self.b, self.c, self.d = canonical_entries([a, b, c, d], model)[0].tolist()
        self.model = model

    @classmethod
    def from_canonical(cls, entries, model):
        """Wrap a row (a, b, c, d) from product_entries as is, unchecked."""
        g = cls.__new__(cls)
        g.a, g.b, g.c, g.d = (complex(v) for v in entries)
        g.model = int(model)
        return g

    @classmethod
    def from_matrix(cls, m, model):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise UsageError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1], model)

    @classmethod
    def identity(cls, model):
        return cls(1.0, 0.0, 0.0, 1.0, model)

    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]])

    @property
    def trace(self):
        return self.a + self.d

    def entry_distance(self, other):
        """Entrywise max complex-modulus distance between canonical forms."""
        return max(
            abs(self.a - other.a), abs(self.b - other.b),
            abs(self.c - other.c), abs(self.d - other.d),
        )

    def is_identity(self):
        return bool(_identity_rows(_row(self))[0])

    def __repr__(self):
        return (
            f"MoebiusMap(a={self.a:.6g}, b={self.b:.6g}, "
            f"c={self.c:.6g}, d={self.d:.6g}, model={self.model})"
        )


def _check_same_model(f, g):
    if f.model != g.model:
        raise ModelMismatchError(f"cannot mix models {f.model} and {g.model}")


def compose(f, g):
    """The map z -> f(g(z)), i.e. the matrix product f.g."""
    _check_same_model(f, g)
    return MoebiusMap.from_canonical(product_entries(_row(f), _row(g), f.model)[0], f.model)


def inverse(g):
    """The inverse map, via the unit-determinant adjugate."""
    return MoebiusMap(g.d, -g.b, -g.c, g.a, g.model)


def classify(g):
    """Conjugacy class of one map; see classify_entries."""
    return classify_entries(_row(g))[0]


# ---------------------------------------------------------------------------
# Cayley transform between the upper half space and the unit ball (n=3).
# The fixed choice: reflect the height coordinate, then invert in the sphere
# of radius sqrt(2) about the north pole.  It sends (0,0,1) to the center,
# the boundary plane to the sphere, and infinity to the north pole.


def _ball_to_halfspace(y):
    v = np.asarray(y, dtype=float) - _NORTH
    nn = np.einsum("...i,...i->...", v, v)
    if np.any(nn < 1e-30):
        raise InternalError("north pole has no finite half-space image")
    return (_NORTH + (2.0 / nn)[..., None] * v) * _FLIP


def _chart_to_sphere(w, at_infinity):
    """Complex boundary chart values to sphere points; infinity goes north."""
    w = np.where(at_infinity, 0.0, w)
    x, y = w.real, w.imag
    s = x * x + y * y + 1.0
    pts = np.stack([2.0 * x / s, 2.0 * y / s, (s - 2.0) / s], axis=-1)
    pts[at_infinity] = _NORTH
    return pts


def _sphere_to_chart_boundary(p):
    """Sphere point to the complex boundary chart (None means infinity)."""
    p = np.asarray(p, dtype=float)
    if float(np.dot(p - _NORTH, p - _NORTH)) < 1e-24:
        return None
    w = _ball_to_halfspace(p)
    return complex(w[0], w[1])


def interior_images(entries, points):
    """Images of ball points under maps given as (N, 4) rows (a, b, c, d).

    Rows of `points`, (N, n) or (n,), broadcast against the maps.  Returns
    the image coordinates and 1 - |image|^2; the latter comes from exact
    algebraic identities rather than 1 - |w|, so it keeps full relative
    precision for deep orbit points.  Raises NumericalOverflowError when an
    image is within 1e-14 of the sphere, the float-precision cliff.
    """
    a, b, c, d = np.asarray(entries).T
    p = np.asarray(points, dtype=float)
    if p.shape[-1] == 2:
        zeta = p[..., 0] + 1j * p[..., 1]
        den = c * zeta + d
        if np.any(np.abs(den) < 1e-300):
            raise NumericalOverflowError("interior evaluation hit a pole")
        w = (a * zeta + b) / den
        # |c z + d|^2 - |a z + b|^2 = (|a|^2 - |b|^2)(1 - |z|^2) = 1 - |z|^2
        one_minus_sq = (1.0 - (p[..., 0] ** 2 + p[..., 1] ** 2)) / np.abs(den) ** 2
        coords = np.stack([w.real, w.imag], axis=-1)
    else:
        # quaternion evaluation of the SL(2,C) matrix in the half-space chart
        u = _ball_to_halfspace(p)
        zeta, t = u[..., 0] + 1j * u[..., 1], u[..., 2]
        den_c = c * zeta + d
        den = np.abs(den_c) ** 2 + (np.abs(c) ** 2) * t * t
        if np.any(den < 1e-300):
            raise NumericalOverflowError("half-space evaluation hit the pole")
        w_c = ((a * zeta + b) * np.conj(den_c) + a * np.conj(c) * t * t) / den
        v = np.stack([w_c.real, w_c.imag, t / den], axis=-1) * _FLIP - _NORTH
        nn = np.einsum("...i,...i->...", v, v)
        coords = _NORTH + (2.0 / nn)[..., None] * v
        one_minus_sq = 4.0 * (t / den) / nn
    if np.any((one_minus_sq <= 0.0) | (1.0 - one_minus_sq >= (1.0 - OVERFLOW_TOL) ** 2)):
        raise NumericalOverflowError("image point is within 1e-14 of the sphere; reduce the depth")
    nrm = np.einsum("ij,ij->i", coords, coords)
    out = nrm >= 1.0
    # trust the stable gap and pull such points back inside
    coords[out] *= np.sqrt(np.maximum(1.0 - one_minus_sq[out], 0.0) / nrm[out])[:, None]
    return coords, one_minus_sq


def boundary_images(entries, point):
    """Unit-sphere images, (N, n), of one boundary point under (N, 4) rows.

    For the planar model the pole guard (|c*zeta + d| < 1e-14) can only
    trigger on float degeneracies, since the pole lies outside the closed
    disc; the image of infinity, a/c, stands in.  For the spatial model the
    pole genuinely sits on the boundary plane and its image is infinity,
    i.e. the Cayley image (0,0,1).
    """
    a, b, c, d = np.asarray(entries).T
    p = np.asarray(point, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.size == 2:
            zeta = complex(p[0], p[1])
            den = c * zeta + d
            w = np.where(np.abs(den) < POLE_TOL, a / c, (a * zeta + b) / den)
            w = w / np.abs(w)
            return np.stack([w.real, w.imag], axis=-1)
        zeta = _sphere_to_chart_boundary(p)
        if zeta is None:
            at_infinity, w = np.abs(c) < POLE_TOL, a / c
        else:
            den = c * zeta + d
            at_infinity, w = np.abs(den) < POLE_TOL, (a * zeta + b) / den
        pts = _chart_to_sphere(w, at_infinity)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def apply_interior(g, z):
    """Evaluate the map at an interior point of the ball.

    Parameters
    ----------
    g : MoebiusMap
    z : InteriorPoint with matching model dimension.

    Returns
    -------
    InteriorPoint.  Raises NumericalOverflowError when the image is within
    1e-14 of the sphere, the float-precision cliff.
    """
    if z.model != g.model:
        raise ModelMismatchError(f"point model {z.model} does not match map model {g.model}")
    coords, _ = interior_images(_row(g), z.coords)
    return InteriorPoint(coords[0])


def fixed_points(g):
    """Boundary fixed points of a parabolic (1 point) or loxodromic (2) map.

    Roots of c z^2 + (d - a) z - b = 0 in the acting chart, mapped to the
    sphere.  A vanishing leading coefficient contributes the chart's point
    at infinity.
    """
    cls = classify(g)
    if cls not in (MapClass.PARABOLIC, MapClass.LOXODROMIC):
        raise UsageError(f"fixed points on the sphere need parabolic or loxodromic, got {cls.value}")
    scale = max(abs(g.a), abs(g.b), abs(g.c), abs(g.d))
    roots = []
    if abs(g.c) > _CANON_EPS * scale:
        if cls is MapClass.PARABOLIC:
            roots.append((g.a - g.d) / (2.0 * g.c))
        else:
            sq = cmath.sqrt((g.a - g.d) ** 2 + 4.0 * g.b * g.c)
            roots.append(((g.a - g.d) + sq) / (2.0 * g.c))
            roots.append(((g.a - g.d) - sq) / (2.0 * g.c))
    else:
        roots.append(None)  # infinity
        if cls is MapClass.LOXODROMIC:
            roots.append(g.b / (g.d - g.a))
    if g.model == 2:
        out = []
        for r in roots:
            if r is None:
                raise InternalError("disc-form parabolic or loxodromic cannot fix infinity")
            out.append(BoundaryPoint([r.real, r.imag]))
        return out
    w = np.array([0.0 if r is None else r for r in roots], dtype=complex)
    return [BoundaryPoint(p) for p in _chart_to_sphere(w, np.array([r is None for r in roots]))]


def hyperbolic_distance(x, y):
    """Hyperbolic distance between interior points of the same ball.

    cosh d = 1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2)).
    """
    if x.model != y.model:
        raise ModelMismatchError("distance needs points of the same model")
    row = y.coords[None, :]
    return float(distances_from(x.coords, row, 1.0 - np.einsum("ij,ij->i", row, row))[0])


def check_radius(radius):
    """A hyperbolic ball radius as a float, which must be finite and >= 0."""
    radius = float(radius)
    if not 0.0 <= radius < math.inf:
        raise UsageError(f"hyperbolic radius must be finite and nonnegative, got {radius}")
    return radius


def distances_from(point_coords, points, gaps_sq):
    """Vector of hyperbolic distances from one interior point to many.

    Parameters
    ----------
    point_coords : (n,) float array, inside the unit ball.
    points : (N, n) float array of interior points.
    gaps_sq : (N,) array of 1 - |points|^2, which the caller holds in stable
        form (`interior_images`, `OrbitSet.gaps_squared`); forming it from
        the coordinates cancels near the sphere.
    """
    points = np.asarray(points, dtype=float)
    diff = points - point_coords[None, :]
    qa = 1.0 - float(np.dot(point_coords, point_coords))
    arg = 1.0 + 2.0 * np.einsum("ij,ij->i", diff, diff) / (qa * gaps_sq)
    return np.arccosh(np.maximum(arg, 1.0))


def translation_to_origin(z):
    """The standard isometry sending an interior point to the ball center."""
    if z.model == 2:
        zeta = complex(z.coords[0], z.coords[1])
        s = math.sqrt(1.0 - (zeta.real ** 2 + zeta.imag ** 2))
        return MoebiusMap(1.0 / s, -zeta / s, -zeta.conjugate() / s, 1.0 / s, 2)
    u = _ball_to_halfspace(z.coords)
    zeta, t = complex(u[0], u[1]), u[2]
    rt = math.sqrt(t)
    return MoebiusMap(1.0 / rt, -zeta / rt, 0.0, rt, 3)


class BoundaryGeodesic:
    """The geodesic with two distinct sphere endpoints.

    Parametrized by signed hyperbolic arclength from the point closest to
    the ball center (the apex), positive direction toward the endpoint q.
    """

    def __init__(self, p, q):
        if p.model != q.model:
            raise ModelMismatchError("geodesic endpoints must share a model")
        pc, qc = p.coords, q.coords
        if float(np.linalg.norm(pc - qc)) < 1e-9:
            raise UsageError("geodesic endpoints coincide")
        dot = float(np.dot(pc, qc))
        self.p, self.q = p, q
        if dot <= -1.0 + 1e-12:
            # diameter through the center
            self._r0 = 0.0
            self._u = np.zeros(pc.size)
            self._w = qc.copy()
        else:
            center = (pc + qc) / (1.0 + dot)
            cn = float(np.linalg.norm(center))
            rho = math.sqrt(max(cn * cn - 1.0, 0.0))
            self._u = center / cn
            self._r0 = cn - rho
            w = qc - float(np.dot(qc, self._u)) * self._u
            self._w = w / float(np.linalg.norm(w))

    @property
    def apex(self):
        """The point of the geodesic closest to the ball center."""
        return InteriorPoint(self._r0 * self._u)

    def point_at(self, t):
        """Interior point at signed hyperbolic distance t from the apex."""
        tau = math.tanh(0.5 * t)
        if self._r0 == 0.0:
            return InteriorPoint(tau * self._w)
        zeta = (self._r0 + 1j * tau) / (1.0 + 1j * self._r0 * tau)
        return InteriorPoint(zeta.real * self._u + zeta.imag * self._w)
