"""Truncated orbital series, counting functions, and exponent estimators.

The series term for an orbit point w is ((1-|w|)/(1+|w|))^s, the radial
form of exp(-s * distance from the ball center).  Shell partial sums group
the terms by the dyadic shell of 1-|w|.

The exponent estimator has one setting, its method, with the default
METHODS[0] and one check, `check_method`, run before an orbit is built.
The counting fit bins N(T) at the one width BIN_WIDTH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, UsageError
from .geometry import hyperbolic_distance
from .group import OrbitSet, build_ball
from .limitset import _linear_fit

_LN2 = math.log(2.0)
METHODS = ("counting_fit", "divergence_scan")  # exponent estimators, the default first
BIN_WIDTH = 0.5  # the counting fit's bin width


@dataclass
class SeriesEvaluation:
    """Value and per-shell breakdown of a truncated orbital series."""

    s: float
    value: float
    partials: np.ndarray  # (m,) sum of the terms of each of the orbit's m occupied shells


def truncated_series(orbit, s):
    """Exact truncated series over the enumerated elements, about the ball center.

    One partial sum per occupied shell of `orbit.shell_runs`, at finite s >= 0.
    """
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise UsageError(f"series exponent must be finite and nonnegative, got {s}")
    terms = (orbit.gaps / (2.0 - orbit.gaps)) ** s
    return SeriesEvaluation(s=s, value=float(terms.sum()), partials=orbit.shell_runs.sums(terms))


@dataclass
class CountingFunction:
    """N(T) = number of enumerated g with d(z, g(z)) <= T, on a uniform grid."""

    thresholds: np.ndarray  # T = i * BIN_WIDTH, i = 0, 1, ...
    counts: np.ndarray      # N(T) at each threshold


def check_method(method):
    """Reject a name that is not one of METHODS."""
    if method not in METHODS:
        raise UsageError(f"unknown exponent method {method!r}")


def counting_function(orbit):
    """Orbital counting function on bins of width BIN_WIDTH, read at call time."""
    disp = np.sort(orbit.displacements)
    n_bins = int(math.ceil(float(disp[-1]) / BIN_WIDTH))
    ts = np.arange(n_bins + 1) * BIN_WIDTH
    ns = np.searchsorted(disp, ts, side="right")
    return CountingFunction(thresholds=ts, counts=ns)


@dataclass
class ExponentEstimate:
    """A growth-exponent estimate with its fit window and diagnostics."""

    delta_est: float
    fit_window: tuple
    slope_stderr: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def _clamp_delta(value, model, diagnostics):
    cap = model - 0.5
    if value < 0.0:
        diagnostics["clamped"] = "below zero"
        return 0.0
    if value > cap:
        diagnostics["clamped"] = f"above sanity cap {cap}"
        return cap
    return value


def _counting_fit(orbit):
    cf = counting_function(orbit)
    t_max = float(orbit.displacements.max())
    lo, hi = 0.2 * t_max, 0.8 * t_max
    ts, ns = cf.thresholds, cf.counts
    mask = (ts >= lo) & (ts <= hi) & (ns > 0)
    if int(mask.sum()) < 5:
        raise InsufficientDataError(
            f"counting fit window [{lo:.3g}, {hi:.3g}] holds {int(mask.sum())} bins; need 5"
        )
    slope, intercept, r, stderr = _linear_fit(ts[mask], np.log(ns[mask]))
    diagnostics = {
        "t_max": t_max,
        "bins_used": int(mask.sum()),
        "r_value": float(r),
        "intercept": float(intercept),
    }
    delta = _clamp_delta(float(slope), orbit.model, diagnostics)
    return ExponentEstimate(
        delta_est=delta,
        fit_window=(lo, hi),
        slope_stderr=float(stderr),
        method="counting_fit",
        diagnostics=diagnostics,
    )


def _available_shells(orbit, diagnostics):
    """Positions in `orbit.shell_runs` of the shells k >= 1 untouched by the horizon.

    Elements at the final word length mark the horizon: shells dyadically
    deeper than the shallowest of them are incompletely enumerated and
    would masquerade as convergence, so fewer than 5 shells within the cut
    raise InsufficientDataError.
    """
    runs = orbit.shell_runs
    lo, hi = runs.window(1, math.inf)
    if lo == hi:
        raise InsufficientDataError("orbit has no shelled elements")
    cut = ""
    start, stop = orbit.ball.level_bounds(orbit.max_word_length)
    if start < stop:
        gap_horizon = float(orbit.gaps[start:stop].max())
        d_horizon = math.log((2.0 - gap_horizon) / gap_horizon)
        k_cut = int(math.floor(d_horizon / _LN2)) - 1
        lo, hi = runs.window(1, k_cut)
        diagnostics["horizon_shell_cut"] = k_cut
        cut = f" within the horizon cut k <= {k_cut}"
    if hi - lo < 5:
        raise InsufficientDataError(f"{hi - lo} nonempty shells{cut}; need 5")
    diagnostics["shells_used"] = (int(runs.shells[lo]), int(runs.shells[hi - 1]))
    return np.arange(lo, hi)


def _diverges(orbit, s, at):
    partials = truncated_series(orbit, s).partials[at].tolist()
    # Equal-length windows: comparing windows of different sizes would bias
    # the ratio by the count difference alone.
    w = max(1, len(partials) // 3)
    middle = partials[-2 * w: -w]
    last = partials[-w:]
    return (sum(last) / sum(middle)) > 1.05


def _divergence_scan(orbit):
    diagnostics = {}
    at = _available_shells(orbit, diagnostics)
    lo, hi = 0.0, float(orbit.model)
    if not _diverges(orbit, lo, at):
        return ExponentEstimate(
            delta_est=0.0,
            fit_window=(0.0, 0.02),
            slope_stderr=0.01,
            method="divergence_scan",
            diagnostics={**diagnostics, "converges_at_zero": True},
        )
    while hi - lo > 0.02:
        mid = 0.5 * (lo + hi)
        if _diverges(orbit, mid, at):
            lo = mid
        else:
            hi = mid
    delta = _clamp_delta(0.5 * (lo + hi), orbit.model, diagnostics)
    return ExponentEstimate(
        delta_est=delta,
        fit_window=(lo, hi),
        slope_stderr=0.5 * (hi - lo),
        method="divergence_scan",
        diagnostics=diagnostics,
    )


def exponent_estimate(orbit, method=METHODS[0]):
    """Estimate the series' critical exponent from one enumerated orbit.

    method "counting_fit": least-squares slope of log N(T), binned at
    BIN_WIDTH, over the middle of the displacement range (the top 20% is
    dropped as horizon-starved).
    method "divergence_scan": bisection on s, classifying divergence by the
    growth of shell partial sums (last third vs middle third > 1.05).
    """
    check_method(method)
    if method == "divergence_scan":
        return _divergence_scan(orbit)
    return _counting_fit(orbit)


@dataclass
class BasepointIndependenceReport:
    """Exponent estimates from two basepoints plus the termwise ratio bound.

    The triangle inequality forces every term ratio
    exp(-d(0, g z1)) / exp(-d(0, g z2)) into [exp(-d12), exp(+d12)] where
    d12 = d(z1, z2); within_bounds records that check across all elements
    of the group ball.
    """

    estimate_1: ExponentEstimate
    estimate_2: ExponentEstimate
    estimate_gap: float
    separation: float
    ratio_low: float
    ratio_high: float
    within_bounds: bool
    n_elements: int


def basepoint_independence_check(presentation, z1, z2, depth):
    """Run the exponent pipeline from two basepoints and compare.

    Maps one group ball to both basepoints, estimates the exponent from each
    orbit with the default estimator, and checks the termwise
    triangle-inequality ratio bound element by element.
    """
    ball = build_ball(presentation, depth)
    orbit1, orbit2 = OrbitSet(ball, z1), OrbitSet(ball, z2)
    est1 = exponent_estimate(orbit1)
    est2 = exponent_estimate(orbit2)
    # exp(-d(0, w)) = gap / (2 - gap) in the radial form
    ratios = (orbit1.gaps / (2.0 - orbit1.gaps)) / (orbit2.gaps / (2.0 - orbit2.gaps))
    separation = hyperbolic_distance(z1, z2)
    bound = math.exp(separation)
    slack = 1.0 + 1e-12
    within = bool(np.all(ratios <= bound * slack) and np.all(ratios >= 1.0 / (bound * slack)))
    return BasepointIndependenceReport(
        estimate_1=est1,
        estimate_2=est2,
        estimate_gap=abs(est1.delta_est - est2.delta_est),
        separation=separation,
        ratio_low=float(ratios.min()),
        ratio_high=float(ratios.max()),
        within_bounds=within,
        n_elements=len(ball),
    )
