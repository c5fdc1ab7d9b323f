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
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import KleindimError, LoxodromicNotFoundError, StageFailure, UsageError
from .geometry import origin
from .group import OrbitSet, build_ball, check_packing_disjoint, packing_radius
from .limitset import (
    BoxDimensionEstimate,
    ball_containment_check,
    ball_volumes,
    box_dimension_estimate,
    euclidean_balls,
    neighborhood_volume,
    sample_limit_set,
)
from .poincare import ExponentEstimate, exponent_estimate, truncated_series

_REL_SLACK = 1.0 + 1e-9


@contextmanager
def _stage(name):
    try:
        yield
    except StageFailure:
        raise
    except KleindimError as err:
        raise StageFailure(name, err) from err


def pipeline_front(presentation, depth, basepoint=None):
    """Stages shared by the verifier, the chain report and the CLI.

    One group ball at `depth`, mapped to `basepoint`, else to a point on the
    axis of h clear of the elliptic elements of word length <= min(6, depth),
    else to the ball center.  Returns (h, orbit); h is the first loxodromic
    element in ball order (None if none), which is also the first of any
    shallower ball, since breadth-first levels do not depend on the horizon.
    """
    with _stage("orbit_enumeration"):
        ball = build_ball(presentation, depth)
    with _stage("loxodromic_search"):
        i = ball.first_loxodromic()
        h = None if i is None else ball.map(i)
    if basepoint is None and h is not None:
        with _stage("basepoint_selection"):
            basepoint = ball.basepoint_on_axis(h, min(6, depth))
    with _stage("orbit_enumeration"):
        orbit = OrbitSet(ball, origin(presentation.model) if basepoint is None else basepoint)
    return h, orbit


def sampling_front(presentation, depth):
    """pipeline_front plus the limit-set sample, which needs a loxodromic h."""
    h, orbit = pipeline_front(presentation, depth)
    with _stage("loxodromic_search"):
        if h is None:
            raise LoxodromicNotFoundError(
                f"possibly elementary input: no loxodromic element within word length {depth}; "
                "the group may be elementary, or try a deeper search"
            )
    with _stage("limit_set_sample"):
        sample = sample_limit_set(orbit, h)
    return orbit, sample


@dataclass
class VerificationReport:
    """Both sides of the inequality for one group, with the pass verdict."""

    group_name: str
    depth: int
    delta_estimate: ExponentEstimate
    dim_estimate: BoxDimensionEstimate
    margin: float        # dim_est - delta_est
    tolerance: float
    passed: bool         # margin >= -tolerance
    orbit_size: int
    sample_size: int

    @property
    def delta_est(self):
        return self.delta_estimate.delta_est

    @property
    def dim_est(self):
        return self.dim_estimate.dim_est


def verify_inequality(presentation, depth, tolerance=0.1, exponent_method="counting_fit"):
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
    if tolerance <= 0.0:
        raise UsageError("tolerance must be positive")
    orbit, sample = sampling_front(presentation, depth)
    with _stage("exponent_estimate"):
        delta = exponent_estimate(orbit, method=exponent_method)
    with _stage("box_dimension"):
        dim = box_dimension_estimate(sample)
    margin = dim.dim_est - delta.delta_est
    return VerificationReport(
        group_name=presentation.name,
        depth=depth,
        delta_estimate=delta,
        dim_estimate=dim,
        margin=margin,
        tolerance=tolerance,
        passed=bool(margin >= -tolerance),
        orbit_size=len(orbit),
        sample_size=len(sample),
    )


@dataclass
class ShellChainRow:
    """One dyadic shell's worth of the estimate chain (see module docstring)."""

    k: int
    count: int
    series_partial: float  # sum of exp(-s d(0, g z)) over the shell
    lhs: float             # sum of (1 - |g z|)^s over the shell
    mid: float             # 2^{-k(s-n)} * total packed-ball volume
    rhs: float             # 2^{-k(s-n)} * grid neighborhood volume
    tail: float            # 2^{-k(s-t)}


@dataclass
class SeriesChainReport:
    """Measured constants and per-shell rows of the full estimate chain.

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
    model: int
    packing_radius: float
    c_hat: float
    dim_estimate: BoxDimensionEstimate
    rows: list
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


def series_chain_report(presentation, depth, s, t, k_max=12):
    """Measure every link of the shell-by-shell convergence chain.

    Requires s > t > the box-dimension estimate computed in the same run;
    the chain then exhibits the truncated series as bounded by a convergent
    geometric series, which is the whole content of the inequality.
    """
    depth = int(depth)
    if depth < 8:
        raise UsageError(f"chain report depth must be at least 8, got {depth}")
    s, t = float(s), float(t)
    orbit, sample = sampling_front(presentation, depth)
    with _stage("packing_radius"):
        pack = packing_radius(orbit)
    with _stage("packing_check"):
        packing = check_packing_disjoint(orbit, pack.radius)
    with _stage("box_dimension"):
        dim = box_dimension_estimate(sample)
    if not s > t > dim.dim_est:
        raise UsageError(
            f"requires s > t > box-dimension estimate, got s={s:.6g}, t={t:.6g}, "
            f"dim_est={dim.dim_est:.6g}"
        )
    with _stage("ball_containment"):
        containment = ball_containment_check(orbit, pack.radius, sample, k_max=k_max)
    c_hat = containment.c_hat
    n = orbit.model
    series = truncated_series(orbit, s)
    rows = []
    for k, _, _ in containment.records:
        mask = orbit.shells == k
        gaps = orbit.gaps[mask]
        lhs = float((gaps ** s).sum())
        _, radii = euclidean_balls(orbit.points[mask], pack.radius, gaps=gaps)
        packed = float(ball_volumes(radii, n).sum())
        scale = 2.0 ** (-k * (s - n))
        record = neighborhood_volume(sample, 2.0 ** -k, radius=c_hat * 2.0 ** -k)
        rows.append(ShellChainRow(
            k=int(k),
            count=int(mask.sum()),
            series_partial=series.partial_for(k),
            lhs=lhs,
            mid=scale * packed,
            rhs=scale * record.volume,
            tail=2.0 ** (-k * (s - t)),
        ))
    c1 = max(row.lhs / row.mid for row in rows)
    c2 = max(row.mid / row.rhs for row in rows)
    c3 = max(row.rhs / row.tail for row in rows)
    two_s = 2.0 ** s
    radial_ok = all(
        row.series_partial / _REL_SLACK <= row.lhs <= two_s * row.series_partial * _REL_SLACK
        for row in rows
    )
    volume_ok = c2 <= 2.0 ** n * _REL_SLACK
    k_top = rows[-1].k
    q = 2.0 ** -(s - t)
    tail_partial = sum(q ** k for k in range(1, k_top + 1))
    tail_closed = q * (1.0 - q ** k_top) / (1.0 - q)
    tail_ok = abs(tail_partial - tail_closed) <= 1e-9 * tail_closed
    finite = all(math.isfinite(c) for c in (c1, c2, c3))
    return SeriesChainReport(
        group_name=presentation.name,
        depth=depth,
        s=s,
        t=t,
        model=n,
        packing_radius=pack.radius,
        c_hat=c_hat,
        dim_estimate=dim,
        rows=rows,
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
