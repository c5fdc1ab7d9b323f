"""End-to-end verification of the exponent/box-dimension inequality.

verify_inequality runs the whole pipeline on one presentation and checks
delta_est <= dim_est + tolerance.  series_chain_report re-walks the chain
of shell-by-shell estimates behind that inequality, measuring each
comparability constant instead of assuming it:

    sum over shell k of (1-|g(z)|)^s             (lhs, ~ the series partial)
      <= C1 * 2^{-k(s-n)} * packed ball volume   (mid, gap^n ~ ball volume)
      <= C2 * 2^{-k(s-n)} * neighborhood volume  (rhs, disjoint balls inside
                                                  the c*2^-k neighborhood)
      <= C3 * 2^{-k(s-t)}                        (tail, neighborhood volume
                                                  decays at the dimension
                                                  rate, t above dim_est)

and the tails sum to a finite geometric series whenever s > t.  The
second link's containment is a proof step, not a sample: c is the
certified constant of `ball_containment_check`, so every packed ball of
shell k lies inside the closed c*2^-k neighborhood whose grid volume rhs
measures.

Both check every setting (defaults TOLERANCE, CHAIN_K_MAX) before the group
ball is built, and the chain checks t > dim_est before its packing stages.

Both read their stages from one `Front`: the group ball and its loxodromic
h, then on first use the orbit at the default basepoint, the limit-set
sample and the box estimate.  A process holds one front at most, that of
the last `front` call, under its `group.ball_key`: a verify, a chain and
the CLI's front commands on the same group and depth build no second ball,
orbit, sample, dyadic index or box count; each chain's containment check
builds its own KD-tree.  A call on another key drops the held front before
it builds its own, and a stage that raises stores nothing.  The benchmark
harness's `group.enumerate_orbit`, `find_loxodromic` and `choose_basepoint`
read the held ball too.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import KleindimError, LoxodromicNotFoundError, StageFailure, UsageError
from .geometry import origin
from .group import (
    OrbitSet,
    ball_key,
    build_ball,
    check_packing_disjoint,
    packing_radius,
)
from .limitset import (
    K_FINEST,
    BoxDimensionEstimate,
    LimitSample,
    ball_containment_check,
    ball_volumes,
    box_dimension_estimate,
    neighborhood_volume,
    sample_limit_set,
)
from .poincare import METHODS, ExponentEstimate, check_method, exponent_estimate, truncated_series

_REL_SLACK = 1.0 + 1e-9
TOLERANCE = 0.1   # default slack of delta_est <= dim_est + tolerance
CHAIN_K_MAX = 12  # default deepest shell of the chain report
_held = None  # the process's one Front, the last that `front` built


@contextmanager
def _stage(name):
    try:
        yield
    except StageFailure:
        raise
    except KleindimError as err:
        raise StageFailure(name, err) from err


class Front:
    """The stages every report and command on one group ball shares.

    Built at once: `key` (`group.ball_key`), the group `ball` and `h`, its
    first loxodromic element in ball order (None if none), which is also the
    first of any shallower ball, since breadth-first levels do not depend on
    the horizon.  Built on first use: the `orbit` at the default basepoint,
    the limit-set `sample` through h and its `dim_estimate`.  A part whose
    stage raises is not stored; the next reader runs that stage again and
    raises the same error.
    """

    def __init__(self, presentation, depth):
        self.key = ball_key(presentation, depth)
        with _stage("orbit_enumeration"):
            self.ball = build_ball(presentation, depth)
        with _stage("loxodromic_search"):
            i = self.ball.first_loxodromic()
            self.h = None if i is None else self.ball.map(i)

    def map(self, basepoint):
        """The ball mapped to `basepoint`, an OrbitSet that is not stored."""
        with _stage("orbit_enumeration"):
            return OrbitSet(self.ball, basepoint)

    @cached_property
    def orbit(self):
        """The ball mapped to a point on the axis of h clear of the elliptic elements
        of word length <= min(6, depth), else to the ball center."""
        if self.h is None:
            return self.map(origin(self.ball.presentation.model))
        with _stage("basepoint_selection"):
            basepoint = self.ball.basepoint_on_axis(self.h, min(6, self.ball.max_word_length))
        return self.map(basepoint)

    @cached_property
    def sample(self):
        """The limit-set sample of `orbit` through h, which needs a loxodromic h."""
        with _stage("loxodromic_search"):
            if self.h is None:
                raise LoxodromicNotFoundError(
                    "possibly elementary input: no loxodromic element within word length "
                    f"{self.ball.max_word_length}; the group may be elementary, or try a "
                    "deeper search"
                )
        with _stage("limit_set_sample"):
            return sample_limit_set(self.orbit, self.h)

    @cached_property
    def dim_estimate(self):
        """The box-dimension estimate of `sample` over K_RANGE."""
        with _stage("box_dimension"):
            return box_dimension_estimate(self.sample)


def front(presentation, depth):
    """The front of the group at `depth`: the held one on a key hit, else a new one.

    The depth must be at least 1, checked before any stage.  On a miss the
    held front is dropped before its successor is built, and a build that
    raises leaves none held.
    """
    global _held
    depth = int(depth)
    if depth < 1:
        raise UsageError(f"depth must be at least 1, got {depth}")
    if _held is None or _held.key != ball_key(presentation, depth):
        _held = None  # drop the old front before building its successor
        _held = Front(presentation, depth)
    return _held


@dataclass
class VerificationReport:
    """Both sides of the inequality for one group, with the pass verdict.

    It holds the orbit and sample of the `Front` it was computed from.
    """

    group_name: str
    depth: int
    delta_estimate: ExponentEstimate
    dim_estimate: BoxDimensionEstimate
    margin: float        # dim_est - delta_est
    tolerance: float
    passed: bool         # margin >= -tolerance
    orbit: OrbitSet = field(repr=False, compare=False)
    sample: LimitSample = field(repr=False, compare=False)

    @property
    def orbit_size(self):
        return len(self.orbit)

    @property
    def delta_est(self):
        return self.delta_estimate.delta_est

    @property
    def dim_est(self):
        return self.dim_estimate.dim_est


def verify_inequality(presentation, depth, tolerance=TOLERANCE, exponent_method=METHODS[0]):
    """Estimate both sides of delta <= upper box dimension and compare.

    Pipeline: build the group ball to `depth`, find a loxodromic element in
    it, map the ball to a basepoint on its axis clear of elliptic fixed
    points, estimate the growth exponent, sample the limit set through
    conjugate fixed points, estimate its box dimension.  Each stage failure
    is re-raised as a StageFailure naming the stage.  Deterministic given
    the inputs.  The stages before the exponent are those of `front`, so a
    repeated call on the same group and depth builds none of them again.
    """
    depth = int(depth)
    if depth < 6:
        raise UsageError(f"verification depth must be at least 6, got {depth}")
    tolerance = float(tolerance)
    if not 0.0 < tolerance < math.inf:
        raise UsageError(f"tolerance must be positive and finite, got {tolerance}")
    check_method(exponent_method)
    held = front(presentation, depth)
    orbit, sample = held.orbit, held.sample
    with _stage("exponent_estimate"):
        delta = exponent_estimate(orbit, method=exponent_method)
    dim = held.dim_estimate
    margin = dim.dim_est - delta.delta_est
    return VerificationReport(
        group_name=presentation.name,
        depth=depth,
        delta_estimate=delta,
        dim_estimate=dim,
        margin=margin,
        tolerance=tolerance,
        passed=bool(margin >= -tolerance),
        orbit=orbit,
        sample=sample,
    )


@dataclass
class SeriesChainReport:
    """Measured constants and per-shell columns of the full estimate chain.

    The columns k to tail are aligned arrays with one entry per nonempty
    shell (see the module docstring); c1, c2 and c3 are the largest ratios
    lhs/mid, mid/rhs and rhs/tail over the shells.

    radial_ok: lhs sits inside [series_partial, 2^s * series_partial] on
    every shell (termwise algebra, must hold to rounding).  volume_ok: the
    packed balls of each shell fit inside the measured neighborhood volume
    with quantization slack 2^n.  packing_ok: the balls of packing_radius
    about all enumerated orbit points are pairwise disjoint, which volume_ok
    presumes when it adds their volumes.  c_hat is the certified bound of
    `ball_containment_check`, its other premise: every ball of shell k lies
    inside the closed c_hat * 2^-k neighborhood of the sample, so the
    containment link is a proof step on the sample, not a sampled check.
    tail_ok: the tail partial sum matches the geometric closed form within
    1e-9.  chain_ok requires all four plus finite constants.
    """

    group_name: str
    depth: int
    s: float
    t: float
    packing_radius: float
    c_hat: float
    dim_estimate: BoxDimensionEstimate
    k: np.ndarray               # nonempty shells 1 <= k <= k_max, ascending
    count: np.ndarray           # orbit points in the shell
    series_partial: np.ndarray  # sum of exp(-s d(0, g z)) over the shell
    lhs: np.ndarray             # sum of (1 - |g z|)^s over the shell
    mid: np.ndarray             # 2^{-k(s-n)} * total packed-ball volume
    rhs: np.ndarray             # 2^{-k(s-n)} * grid volume of the c_hat 2^-k neighborhood
    tail: np.ndarray            # 2^{-k(s-t)}
    c1: float
    c2: float
    c3: float
    radial_ok: bool
    volume_ok: bool
    packing_ok: bool
    tail_partial_sum: float
    tail_closed_form: float
    tail_ok: bool
    chain_ok: bool


def series_chain_report(presentation, depth, s, t, k_max=CHAIN_K_MAX):
    """Measure every link of the shell-by-shell convergence chain.

    Requires depth >= 8, finite s > t, 1 <= k_max <= K_FINEST (the finest
    grid scale) and (k_max + 1) * s <= 1022, so that every shell term is a
    normal float, all checked before the group ball is built, and
    t > the box-dimension estimate, checked before the packing stages.  The orbit, sample and box estimate are those
    of `front`, held from a verify of the same group and depth; the chain
    then exhibits the truncated series as bounded by a convergent geometric
    series, which is the whole content of the inequality.
    """
    depth = int(depth)
    if depth < 8:
        raise UsageError(f"chain report depth must be at least 8, got {depth}")
    s, t = float(s), float(t)
    if not (math.isfinite(s) and math.isfinite(t) and s > t):
        raise UsageError(f"chain exponents must be finite with s > t, got s={s}, t={t}")
    k_max = int(k_max)
    if k_max < 1:
        raise UsageError(f"chain k_max must be at least 1, got {k_max}")
    if k_max > K_FINEST:
        raise UsageError(f"chain k_max must be at most {K_FINEST}, got {k_max}")
    if (k_max + 1) * s > 1022:  # gap >= 2^-k_max on the shells: terms >= 2^-(k_max+1)s
        raise UsageError(f"chain needs (k_max + 1) * s <= 1022, got s={s}, k_max={k_max}")
    held = front(presentation, depth)
    orbit, sample, dim = held.orbit, held.sample, held.dim_estimate
    if not t > dim.dim_est:
        raise UsageError(
            f"requires s > t > box-dimension estimate, got s={s:.6g}, t={t:.6g}, "
            f"dim_est={dim.dim_est:.6g}"
        )
    with _stage("packing_radius"):
        pack = packing_radius(orbit)
    with _stage("packing_check"):
        packing = check_packing_disjoint(orbit, pack.radius)
    with _stage("ball_containment"):
        containment = ball_containment_check(orbit, pack.radius, sample, k_max=k_max)
    c_hat = containment.c_hat
    n = orbit.model
    runs = orbit.shell_runs
    lo, hi = runs.window(1, k_max)  # the containment check's shells
    ks = runs.shells[lo:hi]
    series_partial = truncated_series(orbit, s).partials[lo:hi]
    lhs = runs.window_sums(orbit.gaps[runs.rows(lo, hi)] ** s, lo, hi)
    # the balls of the containment check, on the same rows and radius
    packed = runs.window_sums(ball_volumes(containment.radii, n), lo, hi)
    scale, grid, tail = np.zeros((3, ks.size))
    # scalar powers: numpy's 2.0 ** array may differ from them in the last bit
    for i, k in enumerate(ks.tolist()):
        scale[i] = 2.0 ** (-k * (s - n))
        grid[i] = neighborhood_volume(sample, 2.0 ** -k, radius=c_hat * 2.0 ** -k).volume
        tail[i] = 2.0 ** (-k * (s - t))
    mid, rhs = scale * packed, scale * grid
    c1, c2, c3 = (float((a / b).max()) for a, b in ((lhs, mid), (mid, rhs), (rhs, tail)))
    two_s = 2.0 ** s
    radial_ok = bool(np.all(
        (series_partial / _REL_SLACK <= lhs) & (lhs <= two_s * series_partial * _REL_SLACK)
    ))
    volume_ok = c2 <= 2.0 ** n * _REL_SLACK
    k_top = int(ks[-1])
    q = 2.0 ** -(s - t)
    tail_partial = sum(q ** k for k in range(1, k_top + 1))
    # q (1 - q^K) / (1 - q) with q = e^l, in expm1 so a tiny s - t does not cancel
    log_q = -(s - t) * math.log(2.0)
    tail_closed = q * math.expm1(k_top * log_q) / math.expm1(log_q)
    tail_ok = abs(tail_partial - tail_closed) <= 1e-9 * tail_closed
    finite = all(math.isfinite(c) for c in (c1, c2, c3))
    return SeriesChainReport(
        group_name=presentation.name,
        depth=depth,
        s=s,
        t=t,
        packing_radius=pack.radius,
        c_hat=c_hat,
        dim_estimate=dim,
        k=ks,
        count=runs.counts[lo:hi],
        series_partial=series_partial,
        lhs=lhs,
        mid=mid,
        rhs=rhs,
        tail=tail,
        c1=c1,
        c2=c2,
        c3=c3,
        radial_ok=radial_ok,
        volume_ok=volume_ok,
        packing_ok=packing.ok,
        tail_partial_sum=tail_partial,
        tail_closed_form=tail_closed,
        tail_ok=tail_ok,
        chain_ok=bool(radial_ok and volume_ok and packing.ok and tail_ok and finite),
    )
