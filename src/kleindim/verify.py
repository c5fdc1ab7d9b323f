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

and the tails sum to a finite geometric series whenever s > t.

Both check every setting (defaults TOLERANCE, CHAIN_K_MAX) before the group
ball is built, and the chain checks t > dim_est before its packing stages.

A VerificationReport holds its front: the orbit, the sample and the box
estimate.  While the report is alive, `sampling_front` and
`series_chain_report` on the same group and depth (`group.ball_key`) reuse
them, and rebuild no ball, orbit, sample, KD-tree, dyadic index or box
counts.  Live reports, and their balls for the benchmark harness
(`group.share_ball`), are held weakly, so nothing is kept once the caller
drops the report.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import KleindimError, LoxodromicNotFoundError, StageFailure, UsageError
from .geometry import origin
from .group import (
    OrbitSet,
    ball_key,
    build_ball,
    check_packing_disjoint,
    packing_radius,
    share_ball,
)
from .limitset import (
    BoxDimensionEstimate,
    LimitSample,
    ball_containment_check,
    ball_volumes,
    box_dimension_estimate,
    euclidean_balls,
    neighborhood_volume,
    sample_limit_set,
)
from .poincare import METHODS, ExponentEstimate, check_method, exponent_estimate, truncated_series

_REL_SLACK = 1.0 + 1e-9
TOLERANCE = 0.1   # default slack of delta_est <= dim_est + tolerance
CHAIN_K_MAX = 12  # default deepest shell of the chain report
_LIVE = weakref.WeakValueDictionary()  # VerificationReport by ball_key, while one is held


@contextmanager
def _stage(name):
    try:
        yield
    except StageFailure:
        raise
    except KleindimError as err:
        raise StageFailure(name, err) from err


def pipeline_front(presentation, depth, basepoint=None):
    """Stages shared by the verifier and the chain report.

    One group ball at `depth`, mapped to `basepoint`, else to a point on the
    axis of h clear of the elliptic elements of word length <= min(6, depth),
    else to the ball center.  Returns (h, orbit); h is the first loxodromic
    element in ball order (None if none), which is also the first of any
    shallower ball, since breadth-first levels do not depend on the horizon.
    """
    ball, h = _ball_front(presentation, depth)
    return h, _map_front(ball, h, basepoint)


def _ball_front(presentation, depth):
    """The ball half of pipeline_front: the group ball at `depth` and its h."""
    with _stage("orbit_enumeration"):
        ball = build_ball(presentation, depth)
    with _stage("loxodromic_search"):
        i = ball.first_loxodromic()
        h = None if i is None else ball.map(i)
    return ball, h


def _map_front(ball, h, basepoint):
    """The mapping half of pipeline_front: `ball` mapped to `basepoint`, else on h's axis."""
    if basepoint is None and h is not None:
        with _stage("basepoint_selection"):
            basepoint = ball.basepoint_on_axis(h, min(6, ball.max_word_length))
    with _stage("orbit_enumeration"):
        return OrbitSet(ball, origin(ball.presentation.model) if basepoint is None else basepoint)


def sampling_front(presentation, depth):
    """pipeline_front plus the limit-set sample, which needs a loxodromic h.

    A live report of the same group and depth gives its orbit and sample.
    """
    live = _LIVE.get(ball_key(presentation, depth))
    if live is not None:
        return live.orbit, live.sample
    h, orbit = pipeline_front(presentation, depth)
    return orbit, _sample_front(orbit, h)


def _sample_front(orbit, h):
    """The sampling half of sampling_front: the limit-set sample of `orbit` through h."""
    with _stage("loxodromic_search"):
        if h is None:
            raise LoxodromicNotFoundError(
                "possibly elementary input: no loxodromic element within word length "
                f"{orbit.max_word_length}; the group may be elementary, or try a deeper search"
            )
    with _stage("limit_set_sample"):
        return sample_limit_set(orbit, h)


@dataclass
class VerificationReport:
    """Both sides of the inequality for one group, with the pass verdict.

    It holds the orbit and sample it was computed from: while it is alive,
    they are the front of its group and depth (see the module docstring).
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
    def sample_size(self):
        return len(self.sample)

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
    the inputs.
    """
    depth = int(depth)
    if depth < 6:
        raise UsageError(f"verification depth must be at least 6, got {depth}")
    tolerance = float(tolerance)
    if not 0.0 < tolerance < math.inf:
        raise UsageError(f"tolerance must be positive and finite, got {tolerance}")
    check_method(exponent_method)
    orbit, sample = sampling_front(presentation, depth)
    with _stage("exponent_estimate"):
        delta = exponent_estimate(orbit, method=exponent_method)
    with _stage("box_dimension"):
        dim = box_dimension_estimate(sample)
    margin = dim.dim_est - delta.delta_est
    report = _LIVE[ball_key(presentation, depth)] = VerificationReport(
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
    share_ball(orbit.ball)
    return report


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
    presumes when it adds their volumes.  tail_ok: the tail partial sum
    matches the geometric closed form within 1e-9.  chain_ok requires all
    four plus finite constants.
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

    Requires depth >= 8, finite s > t, and k_max >= 1, all checked before
    the group ball is built, and t > the box-dimension estimate, checked
    before the packing stages.  A live report of the same group and depth
    gives the orbit, sample and box estimate; the chain then exhibits
    the truncated series as bounded by a convergent geometric series, which
    is the whole content of the inequality.
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
    live = _LIVE.get(ball_key(presentation, depth))
    if live is None:
        orbit, sample = sampling_front(presentation, depth)
        with _stage("box_dimension"):
            dim = box_dimension_estimate(sample)
    else:
        orbit, sample, dim = live.orbit, live.sample, live.dim_estimate
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
    rows = runs.rows(lo, hi)
    gaps = orbit.gaps[rows]
    lhs = runs.window_sums(gaps ** s, lo, hi)
    _, radii = euclidean_balls(orbit.points[rows], pack.radius, gaps=gaps)
    packed = runs.window_sums(ball_volumes(radii, n), lo, hi)
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
