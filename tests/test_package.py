"""The package's export list and import footprint."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import kleindim


def test_public_names_resolve():
    names = kleindim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(kleindim, name), name


def _fresh_python(*args):
    """Run a fresh interpreter that imports this same package from its source tree."""
    src = str(Path(kleindim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def test_import_does_not_load_scipy_stats():
    # the fits use numpy alone
    out = _fresh_python("-c", "import sys, kleindim; print('scipy.stats' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_scipy_spatial_loads_only_with_a_kd_tree(tmp_path):
    kleindim.save_group(kleindim.schottky_f2(), tmp_path / "group.json")
    kleindim.save_group(kleindim.fuchsian_lattice(), tmp_path / "lattice.json")
    probe = "import sys, kleindim; {} print('scipy.spatial' in sys.modules)"
    run = "from kleindim.cli import main; assert main({!r}) == 0;"
    group, lattice = str(tmp_path / "group.json"), str(tmp_path / "lattice.json")
    cases = {
        "import": ("", "False"),
        "orbit": (run.format(["orbit", group, "--depth", "7",
                              "--out", str(tmp_path / "orbit.csv")]), "False"),
        # the box counts and the under-resolution check read the dyadic index alone
        "boxdim": (run.format(["boxdim", group, "--depth", "7",
                               "--out", str(tmp_path / "boxdim.csv")]), "False"),
        "verify": (run.format(["verify", group, "--depth", "9"]), "False"),
        # on the lattice at depth 14 the under-resolution note fires, from the index too
        "boxdim lattice": (run.format(["boxdim", lattice, "--depth", "14",
                                       "--out", str(tmp_path / "boxdim.csv")]), "False"),
        "verify lattice": (run.format(["verify", lattice, "--depth", "14"]), "False"),
        # the packing and containment checks query KD-trees
        "chain": (run.format(["chain", group, "--depth", "8", "--s", "1.2", "--t", "1.0"]),
                  "True"),
    }
    for name, (command, loaded) in cases.items():
        out = _fresh_python("-c", probe.format(command))
        assert out.stdout.splitlines()[-1] == loaded, name


def test_python_dash_m_runs_the_cli():
    out = _fresh_python("-m", "kleindim", "fixtures", "--list")
    assert out.stdout.split() == [
        "cyclic_loxodromic", "fuchsian_lattice", "schottky_f2", "cantor_test"]
