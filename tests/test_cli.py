"""Command-line surface: exit codes, CSV/PGM emission, group-file round trips."""

from __future__ import annotations

import codecs
import csv
import gc
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ball_words, csv_bytes, word_to_str

from kleindim import (
    InteriorPoint,
    MapClass,
    UsageError,
    basepoint_independence_check,
    box_dimension_estimate,
    cantor_test,
    classify,
    enumerate_orbit,
    exponent_estimate,
    find_loxodromic,
    load_group,
    origin,
    sample_limit_set,
    save_group,
    schottky_f2,
    series_chain_report,
    truncated_series,
    verify_inequality,
)
from kleindim import cli, group, limitset, poincare, verify
from kleindim.cli import _write_pgm, main
from kleindim.geometry import MoebiusMap, compose, inverse
from kleindim.group import GroupPresentation, _spell_words
from kleindim.verify import front

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


def _counted_calls(monkeypatch, module, name):
    """Calls to module.name, counted at every kleindim module that binds it."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("kleindim") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


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
    for depth, k in ((3, 6), (7, 7)):
        sample = sample_limit_set(enumerate_orbit(G, origin(2), depth), find_loxodromic(G, 2))
        path = tmp_path / f"sample{depth}.pgm"
        _write_pgm(str(path), sample, k)
        r = 2.0 ** -k
        size = 2 ** (k + 1)
        xs = -1.0 + (np.arange(size) + 0.5) * r
        ys = 1.0 - (np.arange(size) + 0.5) * r
        px, py = sample.points[:, 0], sample.points[:, 1]
        # every pixel center against every sample point, one pixel row at a time
        dist = np.array([np.sqrt((xs[:, None] - px) ** 2 + (y - py) ** 2).min(axis=1) for y in ys])
        expected = np.where(dist <= r, 128, 0).astype(np.uint8)
        cols = np.floor((px + 1.0) / r).astype(int)
        rows = np.floor((1.0 - py) / r).astype(int)
        expected[np.clip(rows, 0, size - 1), np.clip(cols, 0, size - 1)] = 255
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert payload == expected.tobytes()
        assert 0 < expected.tobytes().count(128) < size * size


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
        verify._held = None  # each command as its own process
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
    calls = _counted_calls(monkeypatch, limitset, "neighborhood_volume")
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


def test_verify_divergence_scan_too_few_shells_fails(tmp_path, capsys):
    lattice_file = tmp_path / "lattice.json"
    assert main(["fixtures", "--emit", "fuchsian_lattice", str(lattice_file)]) == 0
    capsys.readouterr()
    assert main(["verify", str(lattice_file), "--depth", "10",
                 "--method", "divergence_scan"]) == 1
    captured = capsys.readouterr()
    assert "result=PASS" not in captured.out
    assert "stage exponent_estimate" in captured.err


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


@pytest.mark.parametrize("command,extra", [
    ("orbit", []), ("poincare", ["--s-grid", "0.5:1.5:0.5"]),
])
@pytest.mark.parametrize("basepoint", ["-0.3,0.05", "-.3,-0.05"])
def test_negative_first_basepoint_coordinate(tmp_path, schottky_file, command, extra, basepoint,
                                             capsys):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    argv = [command, schottky_file, "--depth", "4", *extra]
    assert main(argv + ["--basepoint", basepoint, "--out", str(spaced)]) == 0
    assert main(argv + [f"--basepoint={basepoint}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    capsys.readouterr()
    # an option name is still no value
    assert main(argv + ["--basepoint", "--out", str(spaced)]) == 1
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--depth", "6", "--tolerance", "nan"], "tolerance"),
    (["verify", "--depth", "6", "--tolerance", "inf"], "tolerance"),
    (["chain", "--depth", "8", "--s", "1.5", "--t", "nan"], "finite"),
    (["chain", "--depth", "8", "--s", "nan", "--t", "1.3"], "finite"),
    (["poincare", "--depth", "5", "--s-grid", "nan:1:0.5"], "s-grid"),
    (["poincare", "--depth", "5", "--s-grid", "0:nan:0.5"], "s-grid"),
    (["poincare", "--depth", "5", "--s-grid", "0:1:nan"], "s-grid"),
    (["poincare", "--depth", "5", "--s-grid", "0:inf:1"], "s-grid"),
    (["chain", "--depth", "8", "--s", "inf", "--t", "1.3"], "finite"),
])
def test_non_finite_numbers_are_usage_errors(tmp_path, schottky_file, argv, message, capsys):
    out = tmp_path / "out.csv"
    command, *rest = argv
    if command in ("poincare", "chain"):
        rest += ["--out", str(out)]
    assert main([command, schottky_file, *rest]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "result=" not in captured.out and not out.exists()


_IDENTITY = [[1, 0], [0, 0], [0, 0], [1, 0]]
_WELL_FORMED = {"name": "bad", "model_dimension": 2, "chart": "disc", "generators": [_IDENTITY]}
# the second generator of a malformed group file, by the file's name
_MALFORMED_GENERATORS = {
    "text_entry.json": [["a", 0], [0, 0], [0, 0], [1, 0]],
    "ragged_pair.json": [[1, 0], [0], [0, 0], [1, 0]],
    "string_generator.json": "zz",
    "object_generator.json": {},
    "nonfinite_entry.json": [[1e400, 0], [0, 0], [0, 0], [1, 0]],
}
# every malformed group file's document, by the file's name
_MALFORMED_FILES = {
    **{name: {**_WELL_FORMED, "generators": [_IDENTITY, generator]}
       for name, generator in _MALFORMED_GENERATORS.items()},
    "list_document.json": [_WELL_FORMED],
    "model_four.json": {**_WELL_FORMED, "model_dimension": 4},
    "sphere_chart.json": {**_WELL_FORMED, "chart": "sphere"},
    "no_generators.json": {**_WELL_FORMED, "generators": []},
    "three_pairs.json": {**_WELL_FORMED, "generators": [_IDENTITY[:3]]},
}


@pytest.mark.parametrize("argv,message", [
    (["poincare", "--depth", "6", "--s-grid", "0:1e308:1e-308"], "s-grid must hold at most"),
    (["poincare", "--depth", "6", "--s-grid", f"0:{cli.S_GRID_CAP}:1"],
     "s-grid must hold at most"),
    (["chain", "--depth", "8", "--s", "1.5", "--t", "1.3", "--kmax", "0"], "k_max"),
    (["chain", "--depth", "8", "--s", "1.0", "--t", "1.2"], "s > t"),
    (["chain", "--depth", "8", "--s", "1.5", "--t", "1.3", "--kmax", "25"], "k_max"),
    (["boxdim", "--depth", "6", "--kmin", "9", "--kmax", "3"], "k_min"),
    (["boxdim", "--depth", "6", "--kmin", "0"], "k_min"),
    *((["orbit", name, "--depth", "2"], "generator 1") for name in _MALFORMED_GENERATORS),
    (["exponent", "--depth", "0"], "depth must be at least 1, got 0"),
    (["orbit", "--depth", "-1"], "depth must be at least 1, got -1"),
    (["orbit", "list_document.json", "--depth", "2"], "group file must hold one JSON object"),
    (["orbit", "model_four.json", "--depth", "2"], "model_dimension must be 2 or 3, got 4"),
    (["orbit", "sphere_chart.json", "--depth", "2"],
     "chart must be 'disc' or 'halfspace', got 'sphere'"),
    (["orbit", "no_generators.json", "--depth", "2"], "generators must be a nonempty list"),
    (["orbit", "three_pairs.json", "--depth", "2"],
     "generator 0 must be four [re, im] pairs, got shape (3, 2)"),
])
def test_bad_arguments_fail_before_the_front(tmp_path, schottky_file, ball_builds, argv, message,
                                             capsys):
    out = tmp_path / "out.csv"
    command, *rest = argv
    group = schottky_file
    if rest[0] in _MALFORMED_FILES:
        group = tmp_path / rest.pop(0)
        group.write_text(json.dumps(_MALFORMED_FILES[group.name]))
    if command != "exponent":  # the one command here without --out
        rest += ["--out", str(out)]
    assert main([command, str(group), *rest]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "stage" not in lines[0]
    assert captured.out == "" and not out.exists() and ball_builds == []


def test_non_utf8_group_file_is_a_usage_error(tmp_path, schottky, ball_builds, capsys):
    path, out = tmp_path / "utf16.json", tmp_path / "out.csv"
    doc = {"name": "utf16", "model_dimension": 2, "chart": "disc",
           "generators": [[[v.real, v.imag] for v in (g.a, g.b, g.c, g.d)]
                          for g in schottky.generators]}
    path.write_bytes(codecs.BOM_UTF16_LE + json.dumps(doc).encode("utf-16-le"))
    assert main(["orbit", str(path), "--depth", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0] and "UTF-8" in lines[0]
    assert captured.out == "" and not out.exists() and ball_builds == []


@pytest.mark.parametrize("name, folder", [
    ("schöttky", "plain"),
    ("a,b", "plain"),
    ('say "hi"\r\nbye', "plain"),
    ("tab\tstop", "plain"),
    # an empty name: the field is the file's path
    ("", "odd, nämed"),
])
def test_verify_table_reads_back_the_group_field(tmp_path, schottky, name, folder, capsys):
    # the group field is the table's one free text: a CSV reader gets 13
    # fields and the name back, whatever characters it holds; stdout prints
    # one line, with CR, LF and tab escaped
    (tmp_path / folder).mkdir()
    path, out = tmp_path / folder / "group.json", tmp_path / "report.csv"
    save_group(GroupPresentation(schottky.generators, model=2, name=name), path)
    assert main(["verify", str(path), "--depth", "6", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [13, 13]
    assert rows[0][0] == "group" and rows[1][0] == (name or str(path))
    shown = {'say "hi"\r\nbye': 'say "hi"\\r\\nbye', "tab\tstop": "tab\\tstop"}
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == 1 and "\r" not in stdout and "\t" not in stdout
    assert stdout.startswith(f"group={shown.get(name, name or str(path))} depth=6 ")


@pytest.mark.parametrize("argv, wrote", [
    (["orbit", "{group}", "--depth", "3", "--out", "{tmp}/outdir"], ""),
    (["limitset", "{group}", "--depth", "3", "--out", "{tmp}/points.csv",
      "--image", "{tmp}/outdir"], "wrote "),
], ids=["orbit", "limitset-image"])
def test_failed_write_leaves_no_temp_file(tmp_path, schottky_file, argv, wrote, capsys):
    # a table or raster aimed at a directory fails with one error and exit 1,
    # and its temp file is removed
    (tmp_path / "outdir").mkdir()
    before = set(os.listdir(tmp_path))
    args = [a.format(group=schottky_file, tmp=tmp_path) for a in argv]
    assert main(args) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out.startswith(wrote)
    assert os.listdir(tmp_path / "outdir") == []
    assert not (tmp_path / "outdir.tmp").exists()
    assert set(os.listdir(tmp_path)) - before <= {"points.csv"}


def test_table_write_keeps_the_callers_temp_file(tmp_path, schottky_file, capsys):
    # the temp file has a name of its own: a file named <out>.tmp keeps its
    # bytes, and the table gets the mode that open() gives a new file
    out, theirs, probe = tmp_path / "out.csv", tmp_path / "out.csv.tmp", tmp_path / "probe"
    theirs.write_bytes(b"keep")
    probe.write_bytes(b"")
    before = set(os.listdir(tmp_path))
    assert main(["orbit", schottky_file, "--depth", "2", "--out", str(out)]) == 0
    assert theirs.read_bytes() == b"keep"
    assert set(os.listdir(tmp_path)) - before == {"out.csv"}
    assert out.stat().st_mode == probe.stat().st_mode
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["orbit", "{group}", "--depth", "3", "--out", "{path}"],
    ["poincare", "{group}", "--depth", "3", "--s-grid", "0.5:1:0.5", "--out", "{path}"],
    ["limitset", "{group}", "--depth", "3", "--out", "{path}"],
    ["limitset", "{group}", "--depth", "3", "--out", "{tmp}/points.csv", "--image", "{path}"],
    ["boxdim", "{group}", "--depth", "6", "--out", "{path}"],
    ["fixtures", "--emit", "schottky_f2", "{path}"],
    ["fixtures", "--emit", "cantor_test", "{path}"],
], ids=["orbit", "poincare", "limitset", "limitset-image", "boxdim", "fixtures-group",
        "fixtures-points"])
def test_paths_print_on_one_line(tmp_path, schottky_file, argv, capsys):
    # a path holding LF and tab prints escaped, so each message stays one
    # line, and the file gets the bytes it gets under a plain name
    outputs = {}
    for name in ("plain.csv", "a\nb\tc.csv"):
        path = tmp_path / name
        assert main([a.format(group=schottky_file, tmp=tmp_path, path=path) for a in argv]) == 0
        outputs[name] = capsys.readouterr().out, path.read_bytes()
    (out, data), (plain_out, plain_data) = outputs["a\nb\tc.csv"], outputs["plain.csv"]
    assert data == plain_data
    assert out == plain_out.replace("plain.csv", "a\\nb\\tc.csv")


def test_error_lines_print_a_path_on_one_line(tmp_path, capsys):
    missing, out = tmp_path / "no\nsuch\t.json", tmp_path / "out.csv"
    assert main(["orbit", str(missing), "--depth", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read group file ")
    assert "no\\nsuch\\t.json: " in lines[0] and "\t" not in lines[0]
    assert captured.out == "" and not out.exists()


def test_bin_width_is_an_unknown_option(schottky_file, ball_builds, capsys):
    # the counting fit bins at poincare.BIN_WIDTH, which no option sets
    assert main(["exponent", schottky_file, "--depth", "6", "--bin-width", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == \
        "kleindim: error: unrecognized arguments: --bin-width 0.5"
    assert captured.out == "" and ball_builds == []


def test_a_nested_stage_failure_names_the_inner_stage(cyclic_file, tmp_path, capsys):
    # the limit-set sample reads the orbit, whose stage fails first; the
    # failure passes the sample's stage unwrapped
    out = tmp_path / "x.csv"
    assert main(["limitset", cyclic_file, "--depth", "15", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: stage orbit_enumeration: image point is within 1e-14 of the sphere; "
        "reduce the depth"
    ]
    assert captured.out == "" and not out.exists()


def test_group_name_must_be_a_string(tmp_path, schottky, ball_builds, capsys):
    path, out = tmp_path / "listname.json", tmp_path / "report.csv"
    save_group(schottky, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["name"] = ["x"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path), "--depth", "6", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0] and "name" in lines[0]
    assert captured.out == "" and not out.exists() and ball_builds == []


def test_parser_defaults_are_the_library_constants(monkeypatch):
    # each default has one owner: the library signature and the CLI read the same constant
    assert inspect.signature(verify_inequality).parameters["tolerance"].default == verify.TOLERANCE
    assert inspect.signature(series_chain_report).parameters["k_max"].default == verify.CHAIN_K_MAX
    assert inspect.signature(exponent_estimate).parameters["method"].default == \
        poincare.METHODS[0]
    assert inspect.signature(box_dimension_estimate).parameters["k_range"].default == \
        limitset.K_RANGE
    for module, name, value in [
        (verify, "TOLERANCE", 0.25), (verify, "CHAIN_K_MAX", 7),
        (poincare, "METHODS", ("divergence_scan", "counting_fit")), (limitset, "K_RANGE", (2, 8)),
    ]:
        monkeypatch.setattr(module, name, value)
    cli.build_parser.cache_clear()
    try:
        parse = cli.build_parser().parse_args
        group = ["g.json", "--depth", "8"]
        args = parse(["verify", *group])
        assert (args.tolerance, args.method) == (0.25, "divergence_scan")
        assert parse(["chain", *group, "--s", "1.5", "--t", "1.3"]).kmax == 7
        assert parse(["exponent", *group]).method == "divergence_scan"
        args = parse(["boxdim", *group, "--out", "b.csv"])
        assert (args.kmin, args.kmax) == (2, 8)
    finally:
        cli.build_parser.cache_clear()


def test_s_grid_cap():
    assert len(cli._parse_s_grid(f"0:{cli.S_GRID_CAP - 1}:1")) == cli.S_GRID_CAP
    with pytest.raises(UsageError, match="at most"):
        cli._parse_s_grid(f"0:{cli.S_GRID_CAP}:1")


# one CLI session, run in a work directory holding group.json
_SESSION = [
    ["orbit", "group.json", "--out", "missing-depth.csv"],  # usage error: --depth is required
    ["--help"],
    ["orbit", "group.json", "--depth", "5", "--basepoint", "-0.3,0.05", "--out", "based.csv"],
    ["fixtures", "--emit", "schottky_f2", "fixture.json"],
    ["orbit", "group.json", "--depth", "6", "--out", "orbit.csv"],
    ["poincare", "group.json", "--depth", "6", "--s-grid", "0.5:1.5:0.05",
     "--out", "poincare.csv"],
    ["exponent", "group.json", "--depth", "6"],
    ["limitset", "group.json", "--depth", "6", "--out", "limitset.csv",
     "--image", "limitset.pgm", "--k", "7"],
    ["boxdim", "group.json", "--depth", "6", "--out", "boxdim.csv"],
]


def _work_dir(path):
    path.mkdir()
    save_group(schottky_f2(), path / "group.json")
    return path


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_one_process_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # the help text wraps at the terminal width, which COLUMNS sets in both
    monkeypatch.setenv("COLUMNS", "80")
    fresh = _work_dir(tmp_path / "fresh")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    expected = []
    for argv in _SESSION:
        proc = subprocess.run([sys.executable, "-m", "kleindim", *argv], cwd=fresh, env=env,
                              capture_output=True, text=True, check=False)
        expected.append((proc.returncode, proc.stdout, proc.stderr))

    monkeypatch.chdir(_work_dir(tmp_path / "one"))
    capsys.readouterr()
    got = []
    for argv in _SESSION:
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    assert [g[0] for g in got] == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert got == expected
    assert _files(tmp_path / "one") == _files(fresh)


# ---------------------------------------------------------------------------
# The session front: commands on one group file and depth share one front.


def test_session_builds_one_front(tmp_path, ball_builds, monkeypatch, capsys):
    samples = _counted_calls(monkeypatch, limitset, "sample_limit_set")
    spellings = _counted_calls(monkeypatch, group, "_spell_words")
    monkeypatch.chdir(_work_dir(tmp_path / "work"))
    d = ["group.json", "--depth", "6"]
    for argv in (["fixtures", "--emit", "schottky_f2", "fixture.json"],
                 ["orbit", *d, "--out", "orbit.csv"],
                 ["poincare", *d, "--s-grid", "0.5:1.5:0.25", "--out", "series.csv"],
                 ["exponent", *d],
                 ["limitset", *d, "--out", "points.csv", "--image", "points.pgm", "--k", "7"],
                 ["boxdim", *d, "--out", "scales.csv"]):
        assert main(argv) == 0, argv
    assert (len(ball_builds), len(samples), len(spellings)) == (1, 1, 1)
    capsys.readouterr()


def test_verify_and_chain_read_the_session_front(schottky_file, ball_builds, capsys):
    d = [schottky_file, "--depth", "8"]
    assert main(["exponent", *d]) == 0
    assert len(ball_builds) == 1
    capsys.readouterr()
    argvs = (["verify", *d], ["chain", *d, "--s", "1.5", "--t", "1.3"])
    session = [(main(argv), *capsys.readouterr()) for argv in argvs]
    assert len(ball_builds) == 1
    fresh = []
    for argv in argvs:
        verify._held = None  # each command as its own process
        fresh.append((main(argv), *capsys.readouterr()))
    assert session == fresh and [code for code, *_ in session] == [0, 0]
    assert len(ball_builds) == 3


def _front_session():
    """One session over four keys: both basepoint modes, the n = 3 group, bad arguments."""
    argvs = []
    for name, depth, basepoint in (("group.json", 6, "0.1,-0.2"), ("group.json", 5, "-0.3,0.05"),
                                   ("ball.json", 6, "0.1,0.2,-0.05"), ("group.json", 6, "0.2,0.1")):
        d = [name, "--depth", str(depth)]
        image = ["--image", "points.pgm", "--k", "6"] if name == "group.json" else []
        argvs += [
            ["orbit", *d, f"--basepoint={basepoint}", "--out", "based.csv"],
            ["orbit", *d, "--out", "orbit.csv"],
            ["orbit", *d, "--basepoint", "0.1", "--out", "bad.csv"],
            ["poincare", *d, "--s-grid", "0.5:1.5:0.25", "--out", "series.csv"],
            ["poincare", *d, "--basepoint", basepoint, "--s-grid", "0:2:0.5",
             "--out", "based_series.csv"],
            ["exponent", *d, "--method", "divergence_scan"],
            ["exponent", *d],
            ["limitset", *d, "--out", "points.csv", *image],
            ["boxdim", *d, "--out", "scales.csv"],
            ["boxdim", *d, "--kmin", "2", "--kmax", "6", "--out", "scales.csv"],
            ["verify", *d, "--out", "report.csv"],
        ]
    return argvs


def test_session_matches_commands_without_the_front(tmp_path, ball_schottky, ball_builds,
                                                    monkeypatch, capsys):
    runs = {}
    for mode in ("session", "fresh"):
        work = _work_dir(tmp_path / mode)
        save_group(ball_schottky, work / "ball.json")
        monkeypatch.chdir(work)
        ball_builds.clear()
        capsys.readouterr()
        got = []
        for argv in _front_session():
            if mode == "fresh":
                verify._held = None  # each command as its own process
            code = main(argv)
            got.append((argv, code, *capsys.readouterr(), _files(work)))
        runs[mode] = got, len(ball_builds)
    (session, session_builds), (fresh, fresh_builds) = runs["session"], runs["fresh"]
    assert {g[1] for g in session} == {0, 1}
    assert session == fresh
    # each of the four keys builds one front, which its verify reads too
    assert (session_builds, fresh_builds) == (4, 3 + 4 * 9)


def test_session_front_misses_other_keys(tmp_path, schottky, ball_builds, monkeypatch, capsys):
    path = tmp_path / "group.json"
    half = complex(math.cos(0.3), math.sin(0.3))
    turn = MoebiusMap(half, 0.0, 0.0, half.conjugate(), model=2)
    rotated = GroupPresentation(
        [compose(compose(inverse(turn), g), turn) for g in schottky.generators], model=2)
    # each key differs from the one before it
    for presentation, depth, patch in (
        (schottky, 6, None), (rotated, 6, None), (schottky, 7, None),
        (schottky, 6, ("DEDUP_TOL", 2 * group.DEDUP_TOL)),
        (schottky, 6, ("ORBIT_CAP", group.ORBIT_CAP - 1)),
    ):
        save_group(presentation, path)
        ball_builds.clear()
        with monkeypatch.context() as context:
            if patch is not None:
                context.setattr(group, *patch)
            for _ in range(2):  # a miss, then a hit on the front it built
                assert main(["exponent", str(path), "--depth", str(depth)]) == 0
        assert len(ball_builds) == 1, (presentation, depth, patch)
    capsys.readouterr()


def test_session_holds_at_most_one_front(tmp_path, schottky_file, monkeypatch, capsys):
    out = str(tmp_path / "orbit.csv")
    assert main(["orbit", schottky_file, "--depth", "5", "--out", out]) == 0
    first = weakref.ref(verify._held.ball)
    assert main(["exponent", schottky_file, "--depth", "5"]) == 0
    assert verify._held.ball is first()
    alive = []
    real = verify.build_ball

    def build_after_drop(*args):
        gc.collect()
        alive.append(first() is not None)
        return real(*args)

    monkeypatch.setattr(verify, "build_ball", build_after_drop)
    assert main(["orbit", schottky_file, "--depth", "4", "--out", out]) == 0
    gc.collect()
    # the first front was dropped before its successor was built
    assert alive == [False] and first() is None
    capsys.readouterr()


def test_failing_front_stores_nothing(tmp_path, schottky_file, monkeypatch, capsys):
    argv = ["exponent", schottky_file, "--depth", "6"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(group, "ORBIT_CAP", 100)
    failed = []
    for _ in range(2):
        failed.append((main(argv), *capsys.readouterr()))
        assert verify._held is None
    assert failed[0] == failed[1] == (1, "", "error: stage orbit_enumeration: orbit enumeration "
                                             "exceeded 100 elements at word length 4\n")
    monkeypatch.undo()
    # a front whose sample stage fails keeps its ball, and not the sample
    parabolic = tmp_path / "parabolic.json"
    parabolic.write_text(json.dumps({
        "name": "parabolic", "model_dimension": 2, "chart": "halfspace",
        "generators": [[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    }))
    argv = ["limitset", str(parabolic), "--depth", "4", "--out", str(tmp_path / "points.csv")]
    failed = [(main(argv), *capsys.readouterr()) for _ in range(2)]
    assert failed[0] == failed[1] and failed[0][0] == 1
    assert "stage loxodromic_search: possibly elementary input" in failed[0][2]
    assert "sample" not in vars(verify._held)
    assert not (tmp_path / "points.csv").exists()


def test_handlers_are_looked_up_at_call_time(tmp_path, schottky_file, monkeypatch, capsys):
    argv = ["orbit", schottky_file, "--depth", "3", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "_cmd_orbit", lambda args: calls.append(args.command) or 7)
    assert main(argv) == 7
    assert calls == ["orbit"]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()


def test_overflowing_products_report_one_error(cyclic_file, tmp_path, capsys):
    # cosh(n ln 3) passes the float range near word length 646
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["orbit", cyclic_file, "--depth", "700", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "error: stage orbit_enumeration: matrix product is non-finite or not of unit determinant"
    ]


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


# ---------------------------------------------------------------------------
# Golden bytes: every table against the cell-by-cell oracle formatter.


def _group_file(request, tmp_path, fixture):
    presentation = request.getfixturevalue(fixture)
    path = tmp_path / f"{fixture}.json"
    save_group(presentation, path)
    return load_group(path), str(path)


def _orbit_rows(orbit):
    return [
        [word_to_str(word), len(word), *(float(c) for c in orbit.points[i]),
         float(orbit.gaps[i]), int(orbit.shells[i]), float(orbit.displacements[i])]
        for i, word in enumerate(ball_words(orbit.ball.parents, orbit.ball.letters))
    ]


@pytest.mark.parametrize("fixture,basepoint", [
    ("schottky", None), ("schottky", "0.1,0.2"), ("lattice", None), ("lattice", "0.3,-0.05"),
    ("ball_schottky", None), ("ball_schottky", "0.1,0.2,0.05"),
])
@pytest.mark.parametrize("depth", [3, 5])
def test_orbit_table_bytes(request, tmp_path, fixture, basepoint, depth, capsys):
    presentation, path = _group_file(request, tmp_path, fixture)
    out = tmp_path / "orbit.csv"
    argv = ["orbit", path, "--depth", str(depth), "--out", str(out)]
    assert main(argv + ([] if basepoint is None else ["--basepoint", basepoint])) == 0
    z = None if basepoint is None else InteriorPoint([float(c) for c in basepoint.split(",")])
    verify._held = None  # the expected table from a front of its own
    held = front(presentation, depth)
    orbit = held.orbit if z is None else held.map(z)
    header = ["word", "word_length", *"xyz"[:orbit.model], "radial_gap", "shell_index",
              "displacement"]
    assert out.read_bytes() == csv_bytes(header, _orbit_rows(orbit))
    assert capsys.readouterr().out == f"wrote {len(orbit)} elements to {out}\n"


@pytest.mark.parametrize("fixture,depth", [
    ("schottky", 4), ("schottky", 6), ("lattice", 8), ("ball_schottky", 4),
])
def test_limitset_table_bytes(request, tmp_path, fixture, depth, capsys):
    presentation, path = _group_file(request, tmp_path, fixture)
    out = tmp_path / "points.csv"
    assert main(["limitset", path, "--depth", str(depth), "--out", str(out)]) == 0
    verify._held = None  # the expected table from a front of its own
    held = front(presentation, depth)
    orbit, sample = held.orbit, held.sample
    words = ball_words(orbit.ball.parents, orbit.ball.letters)
    rows = [[*(float(c) for c in pt), word_to_str(words[i])]
            for pt, i in zip(sample.points, sample.witnesses.tolist())]
    assert out.read_bytes() == csv_bytes([*"xyz"[:sample.model], "witness"], rows)
    capsys.readouterr()


@pytest.mark.parametrize("fixture,depth,s_grid,grid", [
    ("cyclic", 5, "1:1:1", [1.0]), ("cyclic", 7, "0.5:1.5:0.25", [0.5, 0.75, 1.0, 1.25, 1.5]),
    ("schottky", 6, "0.5:1.5:0.5", [0.5, 1.0, 1.5]),
])
def test_poincare_table_bytes(request, tmp_path, fixture, depth, s_grid, grid, capsys):
    presentation, path = _group_file(request, tmp_path, fixture)
    out = tmp_path / "series.csv"
    assert main(["poincare", path, "--depth", str(depth), "--s-grid", s_grid,
                 "--out", str(out)]) == 0
    verify._held = None  # the expected table from a front of its own
    orbit = front(presentation, depth).orbit
    evals = [truncated_series(orbit, s) for s in grid]
    rows = []
    for k in sorted(set(orbit.shells.tolist())):
        j = orbit.shell_runs.shells.tolist().index(k)
        count = int(np.count_nonzero(orbit.shells == k))
        rows.append([k, 2.0 ** -k, count, *(float(ev.partials[j]) for ev in evals)])
    header = ["k", "r", "shell_count", *(f"partial_s={s:.9g}" for s in grid)]
    assert out.read_bytes() == csv_bytes(header, rows)
    if fixture == "cyclic":
        assert rows[0][0] == 0  # the cyclic orbit's first row is shell 0, the ball center
    capsys.readouterr()


@pytest.mark.parametrize("fixture,depth,kmin,kmax", [
    ("schottky", 6, 3, 9), ("schottky", 8, 2, 6), ("lattice", 10, 3, 9),
])
def test_boxdim_table_bytes(request, tmp_path, fixture, depth, kmin, kmax, capsys):
    presentation, path = _group_file(request, tmp_path, fixture)
    out = tmp_path / "scales.csv"
    assert main(["boxdim", path, "--depth", str(depth), "--kmin", str(kmin),
                 "--kmax", str(kmax), "--out", str(out)]) == 0
    verify._held = None  # the expected table from a front of its own
    est = box_dimension_estimate(front(presentation, depth).sample, k_range=(kmin, kmax))
    local = [*est.local_slopes.tolist(), ""]
    rows = [[rec.k, rec.r, rec.cell_count, rec.volume, slope]
            for rec, slope in zip(est.records, local)]
    assert out.read_bytes() == csv_bytes(["k", "r", "cell_count", "volume", "local_slope"], rows)
    capsys.readouterr()


@pytest.mark.parametrize("fixture,depth,code", [
    ("schottky", 6, 0), ("lattice", 12, 0), ("cyclic", 8, 2),
])
def test_verify_table_bytes(request, tmp_path, fixture, depth, code, capsys):
    presentation, path = _group_file(request, tmp_path, fixture)
    out = tmp_path / "report.csv"
    assert main(["verify", path, "--depth", str(depth), "--out", str(out)]) == code
    verify._held = None  # the expected table from a front of its own
    report = verify_inequality(presentation, depth)
    d, b = report.delta_estimate, report.dim_estimate
    row = [report.group_name, report.depth, d.delta_est, d.method, d.slope_stderr,
           float(d.fit_window[0]), float(d.fit_window[1]), b.dim_est, b.fit_window[0],
           b.fit_window[1], report.margin, report.tolerance, report.passed]
    assert isinstance(report.passed, bool) and report.passed == (code == 0)
    header = ["group", "depth", "delta_est", "delta_method", "delta_stderr",
              "delta_window_lo", "delta_window_hi", "dim_est", "dim_kmin", "dim_kmax",
              "margin", "tolerance", "passed"]
    assert out.read_bytes() == csv_bytes(header, [row])
    capsys.readouterr()


@pytest.mark.parametrize("fixture,depth,kmax", [("schottky", 8, 12), ("lattice", 10, 6)])
def test_chain_table_bytes(request, tmp_path, fixture, depth, kmax, capsys):
    presentation, path = _group_file(request, tmp_path, fixture)
    out = tmp_path / "chain.csv"
    assert main(["chain", path, "--depth", str(depth), "--s", "1.5", "--t", "1.3",
                 "--kmax", str(kmax), "--out", str(out)]) == 0
    verify._held = None  # the expected table from a front of its own
    report = series_chain_report(presentation, depth, 1.5, 1.3, k_max=kmax)
    header = ["k", "count", "series_partial", "lhs", "mid", "rhs", "tail"]
    rows = [[int(k), int(n), *(float(v) for v in values)]
            for k, n, *values in zip(*(getattr(report, field) for field in header))]
    assert out.read_bytes() == csv_bytes(header, rows)
    capsys.readouterr()


def test_fixtures_emit_cantor_bytes(tmp_path, capsys):
    path = tmp_path / "cantor.csv"
    assert main(["fixtures", "--emit", "cantor_test", str(path)]) == 0
    sample = cantor_test()
    rows = [[float(pt[0]), float(pt[1]), ".".join(str(d) for d in word)]
            for pt, word in zip(sample.points, sample.witnesses)]
    assert path.read_bytes() == csv_bytes(["x", "y", "witness"], rows)
    capsys.readouterr()


def _trie(parent_picks, letters):
    """A parent-pointer trie from fractions of each row's index: row 0 the identity."""
    parents = [-1] + [int(f * i) for i, f in enumerate(parent_picks, start=1)]
    words = [()]
    for p, letter in zip(parents[1:], letters):
        words.append(words[p] + (letter,))
    return np.array(parents), np.array([0, *letters]), words


_LETTERS = st.integers(1, 40).flatmap(lambda a: st.sampled_from([a, -a]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.999), _LETTERS), max_size=60))
@example([])
@example([(0.0, 1), (0.9, -26), (0.9, 2), (0.5, 26)])  # compact only
@example([(0.0, 27), (0.9, -40), (0.0, -30), (0.9, 33)])  # dotted only
@example([(0.0, 3), (0.9, 27), (0.9, -1), (0.0, -27), (0.7, 26), (0.9, 40)])  # mixed
def test_trie_spelling_matches_word_to_str(rows):
    parents, letters, words = _trie([f for f, _ in rows], [letter for _, letter in rows])
    spelled = _spell_words(parents, letters)
    assert spelled[0] == "1"
    assert spelled == [word_to_str(word) for word in words]


def test_tables_spell_from_the_trie(tmp_path, schottky_file, monkeypatch, capsys):
    calls = []
    real = group._spell_words

    def counting(parents, letters):
        calls.append(len(parents))
        return real(parents, letters)

    monkeypatch.setattr(group, "_spell_words", counting)
    out = str(tmp_path / "out.csv")
    for argv in (["orbit", schottky_file, "--depth", "5", "--out", out],
                 ["orbit", schottky_file, "--depth", "5", "--basepoint", "0.1,0.2", "--out", out],
                 ["limitset", schottky_file, "--depth", "5", "--out", out]):
        calls.clear()
        verify._held = None  # each command as its own process
        assert main(argv) == 0
        assert calls == [485]  # one spelling of the whole depth-5 ball per command
    capsys.readouterr()


@pytest.mark.parametrize("fixture,k", [("schottky", 11), ("schottky", 0), ("ball_schottky", 6)])
def test_limitset_checks_the_raster_before_writing(request, tmp_path, fixture, k, capsys):
    _, path = _group_file(request, tmp_path, fixture)
    pts, img = tmp_path / "pts.csv", tmp_path / "x.pgm"
    assert main(["limitset", path, "--depth", "5", "--out", str(pts),
                 "--image", str(img), "--k", str(k)]) == 1
    captured = capsys.readouterr()
    assert not pts.exists() and not img.exists()
    assert "wrote" not in captured.out + captured.err
    assert ("planar-model only" if fixture == "ball_schottky" else "image scale k") in captured.err
