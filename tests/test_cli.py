"""Command-line surface: exit codes, CSV/PGM emission, group-file round trips."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from kleindim import (
    InteriorPoint,
    MapClass,
    UsageError,
    basepoint_independence_check,
    build_ball,
    classify,
    enumerate_orbit,
    find_loxodromic,
    load_group,
    origin,
    sample_limit_set,
    save_group,
    schottky_f2,
    series_chain_report,
    verify_inequality,
)
from kleindim import limitset
from kleindim.cli import _write_pgm, main
from kleindim.geometry import MoebiusMap
from kleindim.group import GroupPresentation

FIXTURE_NAMES = ["cyclic_loxodromic", "fuchsian_lattice", "schottky_f2", "cantor_test"]


@pytest.fixture()
def schottky_file(tmp_path):
    path = tmp_path / "schottky.json"
    save_group(schottky_f2(), path)
    return str(path)


@pytest.fixture()
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.json"
    assert main(["fixtures", "--emit", "cyclic_loxodromic", str(path)]) == 0
    return str(path)


def _read_csv(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_fixtures_list(capsys):
    assert main(["fixtures", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == FIXTURE_NAMES


def test_fixtures_emit_group_round_trip(tmp_path):
    path = tmp_path / "sch.json"
    assert main(["fixtures", "--emit", "schottky_f2", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["model_dimension"] == 2
    assert doc["chart"] == "disc"
    loaded = load_group(path)
    reference = schottky_f2()
    assert loaded.name == reference.name
    for g, r in zip(loaded.generators, reference.generators):
        assert g.entry_distance(r) < 1e-12


def test_fixtures_emit_cantor(tmp_path):
    path = tmp_path / "cantor.csv"
    assert main(["fixtures", "--emit", "cantor_test", str(path)]) == 0
    header, rows = _read_csv(path)
    assert header == ["x", "y", "witness"]
    assert len(rows) == 4096


def test_orbit_csv(tmp_path, schottky_file, capsys):
    out = tmp_path / "orbit.csv"
    assert main(["orbit", schottky_file, "--depth", "4", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["word", "word_length", "x", "y", "radial_gap",
                      "shell_index", "displacement"]
    assert len(rows) == 161
    assert rows[0][0] == "1" and rows[0][1] == "0"
    first = out.read_bytes()
    assert main(["orbit", schottky_file, "--depth", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == first  # deterministic emission


def test_poincare_csv(tmp_path, cyclic_file):
    out = tmp_path / "series.csv"
    assert main(["poincare", cyclic_file, "--depth", "5",
                 "--s-grid", "1:1:1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "r", "shell_count", "partial_s=1"]
    assert rows[0][0] == "0"  # identity row carries the unshelled term
    total = sum(float(r[3]) for r in rows)
    expected = 1.0 + 2.0 * (1.0 - 9.0 ** -5) / 8.0
    assert abs(total - expected) < 1e-8


def test_exponent_stdout(schottky_file, capsys):
    assert main(["exponent", schottky_file, "--depth", "6"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert fields["method"] == "counting_fit"
    assert 0.0 <= float(fields["delta_est"]) <= 1.5
    assert main(["exponent", schottky_file, "--depth", "6",
                 "--method", "divergence_scan"]) == 0


def test_limitset_csv_and_image(tmp_path, schottky_file):
    pts = tmp_path / "points.csv"
    img = tmp_path / "sample.pgm"
    assert main(["limitset", schottky_file, "--depth", "5", "--out", str(pts),
                 "--image", str(img), "--k", "6"]) == 0
    header, rows = _read_csv(pts)
    assert header == ["x", "y", "witness"]
    coords = np.array([[float(r[0]), float(r[1])] for r in rows])
    assert np.abs(np.linalg.norm(coords, axis=1) - 1.0).max() < 1e-9
    raw = img.read_bytes()
    assert raw.startswith(b"P5 128 128 255\n")
    payload = raw.split(b"\n", 1)[1]
    assert len(payload) == 128 * 128
    assert payload.count(255) > 0


def test_pgm_matches_brute_force_distances(tmp_path):
    G = schottky_f2()
    sample = sample_limit_set(enumerate_orbit(G, origin(2), 3), find_loxodromic(G, 2))
    k = 6
    path = tmp_path / "sample.pgm"
    _write_pgm(str(path), sample, k)
    r = 2.0 ** -k
    size = 128
    xs = -1.0 + (np.arange(size) + 0.5) * r
    ys = 1.0 - (np.arange(size) + 0.5) * r
    grid_x, grid_y = np.meshgrid(xs, ys)
    centers = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    diff = centers[:, None, :] - sample.points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
    expected = np.where(dist.reshape(size, size) <= r, 128, 0).astype(np.uint8)
    cols = np.floor((sample.points[:, 0] + 1.0) / r).astype(int)
    rows = np.floor((1.0 - sample.points[:, 1]) / r).astype(int)
    expected[np.clip(rows, 0, size - 1), np.clip(cols, 0, size - 1)] = 255
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert payload == expected.tobytes()
    assert 0 < expected.tobytes().count(128) < size * size


@pytest.fixture()
def ball_builds(monkeypatch):
    """Calls to build_ball, counted at every module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_ball(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kleindim") and getattr(module, "build_ball", None) is build_ball:
            monkeypatch.setattr(module, "build_ball", counted)
    return calls


def test_one_ball_per_run(tmp_path, schottky_file, ball_builds, capsys):
    G = schottky_f2()
    out = str(tmp_path / "out.csv")
    runs = {
        "verify_inequality": lambda: verify_inequality(G, 6),
        "series_chain_report": lambda: series_chain_report(G, 8, 1.06, 0.86),
        "basepoint_independence_check": lambda: basepoint_independence_check(
            G, origin(2), InteriorPoint([0.1, 0.0]), 6),
        "orbit": lambda: main(["orbit", schottky_file, "--depth", "4", "--out", out]),
        "poincare": lambda: main(["poincare", schottky_file, "--depth", "6",
                                  "--s-grid", "1:1:1", "--out", out]),
        "exponent": lambda: main(["exponent", schottky_file, "--depth", "6"]),
        "limitset": lambda: main(["limitset", schottky_file, "--depth", "5", "--out", out]),
        "boxdim": lambda: main(["boxdim", schottky_file, "--depth", "6", "--out", out]),
    }
    for name, run in runs.items():
        ball_builds.clear()
        assert run() not in (1, 2), name
        assert len(ball_builds) == 1, name
    capsys.readouterr()


def test_boxdim_csv(tmp_path, schottky_file, capsys):
    out = tmp_path / "scales.csv"
    assert main(["boxdim", schottky_file, "--depth", "6", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    header, rows = _read_csv(out)
    assert header == ["k", "r", "cell_count", "volume", "local_slope"]
    assert [r[0] for r in rows] == [str(k) for k in range(3, 10)]
    assert rows[-1][4] == ""  # no forward difference at the last scale
    for r in rows:
        assert abs(float(r[3]) - int(r[2]) * float(r[1]) ** 2) < 1e-8
    dim_line = [l for l in stdout.splitlines() if l.startswith("dim_est=")]
    assert dim_line and 0.0 <= float(dim_line[0].split("=")[1]) <= 2.0


BOXDIM_SCHOTTKY_DEPTH7 = """\
k,r,cell_count,volume,local_slope
3,0.125,112,1.75,0.440572591
4,0.0625,152,0.59375,0.796466606
5,0.03125,264,0.2578125,0.669851398
6,0.015625,420,0.102539062,0.660793914
7,0.0078125,664,0.0405273438,0.647328382
8,0.00390625,1040,0.0158691406,0.617877123
9,0.001953125,1596,0.00608825684,
"""


def test_boxdim_writes_the_estimate_records(tmp_path, schottky_file, monkeypatch, capsys):
    calls = []
    volume = limitset.neighborhood_volume

    def counted(*args, **kwargs):
        calls.append(args)
        return volume(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kleindim") and getattr(module, "neighborhood_volume", None) is volume:
            monkeypatch.setattr(module, "neighborhood_volume", counted)
    out = tmp_path / "scales.csv"
    assert main(["boxdim", schottky_file, "--depth", "7", "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == BOXDIM_SCHOTTKY_DEPTH7
    assert len(calls) == 7  # one grid count per scale, made by the estimate
    capsys.readouterr()


def test_verify_exit_codes(tmp_path, schottky_file, cyclic_file, capsys):
    report = tmp_path / "report.csv"
    assert main(["verify", schottky_file, "--depth", "6", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "result=PASS" in out
    header, rows = _read_csv(report)
    assert header == ["group", "depth", "delta_est", "delta_method", "delta_stderr",
                      "delta_window_lo", "delta_window_hi", "dim_est", "dim_kmin",
                      "dim_kmax", "margin", "tolerance", "passed"]
    assert len(rows) == 1 and rows[0][12] == "True"

    assert main(["verify", cyclic_file, "--depth", "8"]) == 2
    assert "result=FAIL" in capsys.readouterr().out
    assert main(["verify", cyclic_file, "--depth", "8",
                 "--method", "divergence_scan"]) == 0


def test_chain_exit_codes(tmp_path, schottky_file, capsys):
    out = tmp_path / "chain.csv"
    assert main(["chain", schottky_file, "--depth", "8", "--s", "1.06",
                 "--t", "0.86", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "result=PASS" in stdout
    assert "packing_ok=True" in stdout
    header, rows = _read_csv(out)
    assert header == ["k", "count", "series_partial", "lhs", "mid", "rhs", "tail"]
    assert rows

    code = main(["chain", schottky_file, "--depth", "8", "--s", "0.7", "--t", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "box-dimension estimate" in captured.err + captured.out


def test_usage_errors(tmp_path, schottky_file, capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["verify", schottky_file]) == 1  # --depth is required
    assert main(["verify", str(tmp_path / "missing.json"), "--depth", "6"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["verify", str(bad), "--depth", "6"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_load_group_halfspace_planar(tmp_path):
    doc = {
        "name": "halfplane_parabolic",
        "model_dimension": 2,
        "chart": "halfspace",
        "generators": [[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    }
    path = tmp_path / "halfplane.json"
    path.write_text(json.dumps(doc))
    G = load_group(path)
    assert G.model == 2
    assert classify(G.generators[0]) is MapClass.PARABOLIC


def test_load_group_validation(tmp_path):
    base = {
        "name": "x",
        "model_dimension": 3,
        "chart": "disc",
        "generators": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(base))
    with pytest.raises(UsageError):
        load_group(path)  # the ball chart stores planar groups only

    base["model_dimension"] = 2
    base["chart"] = "disc"
    base["generators"] = [[[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps(base))
    with pytest.raises(UsageError):
        load_group(path)  # determinant 2 rejected before renormalization


def test_save_group_ball_model_round_trip(tmp_path):
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    G = GroupPresentation([g1], model=3, name="ball_cyclic")
    path = tmp_path / "ball.json"
    save_group(G, path)
    loaded = load_group(path)
    assert loaded.model == 3
    assert loaded.generators[0].entry_distance(g1) < 1e-12
