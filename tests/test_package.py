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


def test_import_does_not_load_scipy_stats():
    # a fresh interpreter, importing this same package: the fits use numpy alone
    src = str(Path(kleindim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, kleindim; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
