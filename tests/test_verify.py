"""End-to-end inequality verification and the shell-by-shell bound chain."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kleindim import (
    GroupPresentation,
    MoebiusMap,
    PackingCheck,
    StageFailure,
    UsageError,
    series_chain_report,
    verify_inequality,
)
from kleindim import cli, group, limitset, verify


def _ball_schottky():
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    return GroupPresentation([g1, g2], model=3, name="schottky_ball")


def test_verify_cyclic_divergence_scan(cyclic):
    report = verify_inequality(cyclic, 10, exponent_method="divergence_scan")
    assert report.delta_est <= 0.05
    assert report.dim_est <= 0.05
    assert report.passed
    assert report.sample_size == 2


def test_verify_cyclic_counting_fit(verify_cyclic10, cyclic):
    report, _ = verify_cyclic10
    assert report.passed == (report.margin >= -report.tolerance)
    assert report.passed  # the 1/T decay of the log-slope is inside 0.1 by depth 10
    # at depth 8 the same estimator misses the default tolerance: the report
    # must say so rather than pass
    report8 = verify_inequality(cyclic, 8)
    assert report8.margin < -report8.tolerance
    assert not report8.passed


def test_verify_schottky(verify_schottky10):
    report, _ = verify_schottky10
    assert report.passed
    assert report.margin >= -0.05
    assert abs(report.delta_est - report.dim_est) <= 0.15
    assert report.orbit_size == 118097


def test_verify_lattice(verify_lattice10, lattice):
    report, _ = verify_lattice10
    assert report.passed
    assert 0.85 <= report.delta_est <= 1.0
    # the depth-10 sample (754 points) under-resolves the fine scales; the
    # full-circle dimension needs a deeper sample to enter its band
    report14 = verify_inequality(lattice, 14)
    assert 0.9 <= report14.dim_est <= 1.05
    assert report14.passed


def test_verify_cross_model_agreement(schottky):
    planar = verify_inequality(schottky, 6)
    ball = verify_inequality(_ball_schottky(), 6)
    assert planar.passed and ball.passed
    # identical matrices acting in either chart produce the same distances
    assert abs(planar.delta_est - ball.delta_est) <= 1e-9
    assert abs(planar.dim_est - ball.dim_est) <= 0.01


def test_verify_usage_errors(cyclic):
    with pytest.raises(UsageError):
        verify_inequality(cyclic, 5)
    with pytest.raises(UsageError):
        verify_inequality(cyclic, 10, tolerance=0.0)


def test_verify_stage_failure_names_stage():
    parabolic = GroupPresentation([MoebiusMap(1.0, 1.0, 0.0, 1.0, model=3)], model=3)
    with pytest.raises(StageFailure) as exc:
        verify_inequality(parabolic, 6)
    msg = str(exc.value)
    assert "loxodromic_search" in msg
    assert "elementary" in msg


def test_chain_schottky(chain_schottky10):
    rep = chain_schottky10
    assert rep.chain_ok
    assert rep.radial_ok and rep.volume_ok and rep.packing_ok and rep.tail_ok
    for c in (rep.c1, rep.c2, rep.c3):
        assert math.isfinite(c) and c > 0.0
    # quantization slack on the volume comparison is the cell-count factor 2^n
    assert rep.c2 <= 2.0 ** rep.model * (1.0 + 1e-9)
    s_minus_t = rep.s - rep.t
    geometric_bound = 1.0 / (2.0 ** s_minus_t - 1.0) + 1.0
    assert rep.tail_partial_sum <= geometric_bound
    assert abs(rep.tail_partial_sum - rep.tail_closed_form) <= 1e-9 * rep.tail_closed_form


def test_chain_rows_positive_and_ordered(chain_schottky10):
    rows = chain_schottky10.rows
    assert rows
    ks = [row.k for row in rows]
    assert ks == sorted(ks)
    for row in rows:
        assert row.count > 0
        for value in (row.series_partial, row.lhs, row.mid, row.rhs, row.tail):
            assert value > 0.0


def test_chain_constants_stable_in_depth(schottky, chain_schottky10):
    deep = chain_schottky10
    shallow = series_chain_report(schottky, 8, deep.s, deep.t)
    for attr in ("c1", "c2", "c3"):
        lo, hi = getattr(shallow, attr), getattr(deep, attr)
        assert hi / lo < 2.0 and lo / hi < 2.0


def test_chain_cyclic_two_per_shell(cyclic):
    rep = series_chain_report(cyclic, 10, 0.4, 0.2)
    assert rep.chain_ok
    for row in rep.rows:
        assert row.count <= 2
        predicted = 2.0 * 2.0 ** (-row.k * rep.s)
        assert 0.5 * predicted <= row.lhs <= 2.5 * predicted


def test_chain_fails_when_balls_overlap(schottky, monkeypatch):
    overlap = PackingCheck(ok=False, pair=(0, 1), distance=0.0)
    monkeypatch.setattr(verify, "check_packing_disjoint", lambda orbit, radius: overlap)
    rep = series_chain_report(schottky, 8, 1.06, 0.86)
    assert rep.radial_ok and rep.volume_ok and rep.tail_ok
    assert not rep.packing_ok and not rep.chain_ok


def test_chain_builds_one_sample_tree(schottky, monkeypatch):
    samples, trees = [], []
    real_sample = verify.sample_limit_set

    def recording_sample(*args):
        samples.append(real_sample(*args))
        return samples[-1]

    monkeypatch.setattr(verify, "sample_limit_set", recording_sample)
    for module in (cli, group, limitset, verify):
        real_tree = getattr(module, "cKDTree", None)
        if real_tree is not None:
            def recording_tree(data, *args, _real=real_tree, **kwargs):
                trees.append(np.array(data, dtype=float))
                return _real(data, *args, **kwargs)

            monkeypatch.setattr(module, "cKDTree", recording_tree)
    series_chain_report(schottky, 8, 1.06, 0.86)
    assert len(samples) == 1
    over_sample = [t for t in trees if np.array_equal(t, samples[0].points)]
    assert len(over_sample) == 1


def test_pipeline_spells_no_words(schottky, ball_schottky, monkeypatch):
    def words(ball):
        raise AssertionError("GroupBall.words read")

    monkeypatch.setattr(group.GroupBall, "words", property(words))
    verify_inequality(schottky, 8)
    verify_inequality(ball_schottky, 6)
    series_chain_report(schottky, 8, 1.06, 0.86)


def test_chain_usage_errors(schottky, cyclic):
    with pytest.raises(UsageError):
        series_chain_report(cyclic, 7, 0.4, 0.2)
    with pytest.raises(UsageError) as exc:
        series_chain_report(schottky, 8, 0.7, 0.5)
    assert "box-dimension estimate" in str(exc.value)
    with pytest.raises(UsageError):
        series_chain_report(cyclic, 8, 0.2, 0.4)
