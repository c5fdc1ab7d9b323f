"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from kleindim import geometry, group, verify
from kleindim.fixtures import schottky_f2
from kleindim.geometry import origin

HERE = Path(__file__).resolve().parent


def test_candidates_match_free_group_level_counts():
    depth, k = 5, 2
    orbit = group.enumerate_orbit(schottky_f2(), origin(2), depth)
    kept, candidates = tracing._level_counts(orbit.word_lengths, depth, k)
    expected = [2 * k * (2 * k - 1) ** (level - 1) for level in range(1, depth + 1)]
    assert candidates.tolist() == expected
    assert kept.tolist() == expected
    counts = tracing._enumeration_counts((), {}, orbit)
    assert counts["kept"] / counts["candidates"] == 1.0
    assert counts["elements"] == workloads.free_orbit_size(k, depth)


def _bindings():
    """Every (module, attribute) in kleindim bound to a traced function."""
    out = {}
    for module, funcs in tracing.TARGETS.items():
        mod = sys.modules[f"kleindim.{module}"]
        for func in funcs:
            original = getattr(mod, func)
            for holder in tracing.package_modules():
                for attr, value in vars(holder).items():
                    if value is original:
                        out[(holder.__name__, attr)] = original
    return out


def test_traced_run_restores_every_binding():
    before = _bindings()
    # enumerate_orbit is bound in group, verify, poincare, cli and the package
    assert sum(attr == "enumerate_orbit" for _, attr in before) >= 5
    tracer = tracing.Tracer()
    with tracer.installed():
        for (module, attr), original in before.items():
            assert getattr(sys.modules[module], attr) is not original, (module, attr)
        with tracer.operation():
            report = verify.verify_inequality(schottky_f2(), 6)
    assert report.passed
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original, (module, attr)
    names = {s.name for s in tracer.spans}
    assert {"bench.op", "verify.verify_inequality", "group.enumerate_orbit",
            "group.find_loxodromic", "limitset.sample_limit_set"} <= names


def test_self_times_sum_to_operation_wall():
    tracer = tracing.Tracer()
    with tracer.installed():
        for _ in range(2):
            with tracer.operation():
                verify.verify_inequality(schottky_f2(), 6)
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) >= -1e-9
    roots = [i for i, s in enumerate(tracer.spans) if s.name == tracing.ROOT]
    assert len(roots) == 2 and roots[0] == 0
    for first, stop in zip(roots, roots[1:] + [len(tracer.spans)]):
        root = tracer.spans[first]
        assert {s.op_id for s in tracer.spans[first:stop]} == {root.op_id}
        assert sum(selfs[first:stop]) == pytest.approx(root.end - root.start, rel=1e-9)
        metrics = tracing.layer_metrics(tracer.spans[first:stop], selfs[first:stop])
        # three enumerations per verify: loxodromic search, basepoint, orbit
        assert metrics["group.enumerate_orbit.calls"] == 3
        assert metrics["group.enumerate_orbit.kept_ratio"] == 1.0


def test_wrong_expected_value_fails_the_check():
    report = verify.verify_inequality(schottky_f2(), 6)
    good, bad = workloads.Result(), workloads.Result()
    size = workloads.free_orbit_size(2, 6)
    workloads.check_verify(good, report, size)
    workloads.check_verify(bad, report, size + 1)
    assert not good.failed
    assert [c.name for c in bad.failed] == ["orbit_size"]


def test_cli_check_fails_on_wrong_orbit_size(tmp_path):
    session = workloads.CliExplore()
    res = session.run(schottky_f2(), tmp_path)
    assert not res.failed, res.failed
    wrong = workloads.Result()
    out = {name: tmp_path / name for name in
           ("orbit.csv", "poincare.csv", "limitset.csv", "limitset.pgm", "boxdim.csv")}
    # run() removed nothing, so the outputs can be re-checked with a wrong size
    session.check_outputs(wrong, tmp_path / "fixture.json", out,
                          {"exponent": "orbit_size=1 delta_est=0.6",
                           "boxdim": "dim_est=0.6", "limitset": ""},
                          orbit_size=workloads.free_orbit_size(2, workloads.CLI_DEPTH) + 1)
    assert {"orbit_rows", "exponent_orbit_size"} <= {c.name for c in wrong.failed}


def test_seed_zero_is_identity_and_rotations_keep_the_group():
    base = schottky_f2()
    assert all(p is base for p in workloads.seeded_inputs(base, 0))
    moved = workloads.seeded_inputs(base, 11)
    assert len(moved) == workloads.POOL
    assert moved[0].generators[0].entry_distance(
        workloads.seeded_inputs(base, 11)[0].generators[0]) == 0.0
    for g, h in zip(base.generators, moved[0].generators):
        assert g.entry_distance(h) > 1e-3
        assert abs(g.trace - h.trace) < 1e-9
    ball = workloads.seeded_inputs(workloads.ball_schottky(), 11)[0]
    for presentation in (moved[0], ball):
        orbit = group.enumerate_orbit(presentation, origin(presentation.model), 5)
        assert len(orbit) == workloads.free_orbit_size(2, 5)
    # a rotation fixes the ball center
    for model in (2, 3):
        m = workloads.rotation(random.Random(3), model)
        assert geometry.apply_interior(m, origin(model)).norm < 1e-12


def test_runner_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "free_verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
