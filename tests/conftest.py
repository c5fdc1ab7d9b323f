"""Shared fixtures: expensive orbits, pipeline runs, and their wall-clock times.

Everything here is deterministic, so session scope is safe and keeps the
suite from re-enumerating the same orbits in every module.
"""

from __future__ import annotations

import gc
import math
import sys
import time

import numpy as np
import pytest

from kleindim import (
    GroupBall,
    GroupPresentation,
    MoebiusMap,
    OrbitSet,
    build_ball,
    choose_basepoint,
    cyclic_loxodromic,
    enumerate_orbit,
    find_loxodromic,
    fuchsian_lattice,
    origin,
    sample_limit_set,
    schottky_f2,
    series_chain_report,
    verify_inequality,
)
from kleindim import cli


def identity_only_orbit(model=2):
    """An orbit of the identity alone: a one-row ball of a cyclic group, at the center."""
    t = 0.5
    boost = MoebiusMap(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t), model=model)
    ball = GroupBall(GroupPresentation([boost], model=model),
                     np.array([[1.0, 0.0, 0.0, 1.0]], dtype=complex),
                     np.array([-1]), np.array([0]), np.array([0]), 1)
    return OrbitSet(ball, origin(model))


@pytest.fixture(autouse=True)
def fresh_cli_session():
    """Every test starts as a new `kleindim` process does: with no CLI session front."""
    cli._session_front = None
    yield
    cli._session_front = None


@pytest.fixture()
def ball_builds(monkeypatch):
    """Calls to build_ball, counted at every module that binds it.

    Cyclic garbage is collected first, so a front that an earlier test left
    in a reference cycle is not served to this one.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_ball(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kleindim") and getattr(module, "build_ball", None) is build_ball:
            monkeypatch.setattr(module, "build_ball", counted)
    gc.collect()
    return calls


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def schottky():
    return schottky_f2()


@pytest.fixture(scope="session")
def cyclic():
    return cyclic_loxodromic()


@pytest.fixture(scope="session")
def lattice():
    return fuchsian_lattice()


@pytest.fixture(scope="session")
def ball_schottky():
    """The Schottky group of `schottky` carried into the ball model (n = 3)."""
    g1 = MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    return GroupPresentation([g1, g2], model=3, name="schottky_ball")


@pytest.fixture(scope="session")
def schottky_orbit8(schottky):
    return enumerate_orbit(schottky, origin(2), 8)


@pytest.fixture(scope="session")
def schottky_orbit10(schottky):
    return enumerate_orbit(schottky, origin(2), 10)


@pytest.fixture(scope="session")
def schottky_h(schottky):
    return find_loxodromic(schottky, 6)


@pytest.fixture(scope="session")
def schottky_sample10(schottky_orbit10, schottky_h):
    return sample_limit_set(schottky_orbit10, schottky_h)


@pytest.fixture(scope="session")
def cyclic_orbit10(cyclic):
    return enumerate_orbit(cyclic, origin(2), 10)


@pytest.fixture(scope="session")
def cyclic_h(cyclic):
    return find_loxodromic(cyclic, 6)


@pytest.fixture(scope="session")
def lattice_basepoint(lattice):
    h = find_loxodromic(lattice, 6)
    return choose_basepoint(h, lattice, 6)


@pytest.fixture(scope="session")
def verify_cyclic10(cyclic):
    return _timed(verify_inequality, cyclic, 10)


@pytest.fixture(scope="session")
def verify_schottky10(schottky):
    return _timed(verify_inequality, schottky, 10)


@pytest.fixture(scope="session")
def verify_lattice10(lattice):
    return _timed(verify_inequality, lattice, 10)


@pytest.fixture(scope="session")
def chain_schottky10(schottky, verify_schottky10):
    report, _ = verify_schottky10
    dim = report.dim_est
    return series_chain_report(schottky, 10, dim + 0.4, dim + 0.2)
