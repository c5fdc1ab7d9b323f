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


def test_python_dash_m_runs_the_cli():
    out = _fresh_python("-m", "kleindim", "fixtures", "--list")
    assert out.stdout.split() == [
        "cyclic_loxodromic", "fuchsian_lattice", "schottky_f2", "cantor_test"]
