"""Benchmark workloads: seeded inputs, one operation each, output checks.

Inputs come only from the seed (see ``seeded_inputs``).  Seed 0 is the
shipped fixture; any other seed gives conjugates of it by seeded rotations,
which leave the group, its orbit sizes and its exact exponent and dimension
unchanged while moving every matrix entry, orbit point and sample point.

Each workload's ``run`` performs one operation and returns a ``Result``:
the wall time of each stage, named values, and the output checks.  All
kleindim calls go through module attributes, so the tracer's wrappers see
them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import kleindim
from kleindim import cli, geometry, group, groupio, verify

# Bands asserted by tests/test_verify.py for the same groups.
SCHOTTKY_MIN_MARGIN = -0.05      # margin = dim_est - delta_est
SCHOTTKY_MAX_GAP = 0.15          # |delta_est - dim_est|
LATTICE_DELTA_BAND = (0.85, 1.0)
LATTICE_DIM_BAND = (0.9, 1.05)

FREE_DEPTH = 9
LATTICE_DEPTH = 14
LATTICE_ORBIT_SIZE = 5162        # seed-0 count at LATTICE_DEPTH
BALL_DEPTH = 8
CLI_DEPTH = 7
CLI_S_GRID = "0.5:1.5:0.05"
CLI_IMAGE_K = 7
CLI_BOX_K = (3, 9)               # the boxdim subcommand's default window
POOL = 8                         # seeded inputs per run


def free_orbit_size(k, depth):
    """Reduced words of length <= depth in a free group of rank k."""
    return 1 + 2 * k * ((2 * k - 1) ** depth - 1) // (2 * k - 2)


def ball_schottky():
    """The n = 3 Schottky group of tests/test_verify.py."""
    g1 = geometry.MoebiusMap(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0, model=3)
    g2 = geometry.MoebiusMap(5.0 / 3.0, 4.0j / 3.0, -4.0j / 3.0, 5.0 / 3.0, model=3)
    return group.GroupPresentation([g1, g2], model=3, name="schottky_ball")


def rotation(rng, model):
    """Uniformly random rotation about the ball center (an elliptic isometry)."""
    if model == 2:
        half = cmath.exp(1j * math.pi * rng.random())
        return geometry.MoebiusMap(half, 0.0, 0.0, half.conjugate(), 2)
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in q))
    a, b = complex(q[0], q[1]) / norm, complex(q[2], q[3]) / norm
    return geometry.MoebiusMap(a, b, -b.conjugate(), a.conjugate(), 3)


def conjugate(presentation, m):
    """The presentation with every generator g replaced by m^-1 g m."""
    m_inv = geometry.inverse(m)
    gens = [geometry.compose(geometry.compose(m_inv, g), m) for g in presentation.generators]
    return group.GroupPresentation(gens, model=presentation.model, name=presentation.name)


def seeded_inputs(presentation, seed):
    """POOL presentations for one run; operation i uses entry i % POOL.

    Seed 0 gives the presentation itself every time.  Other seeds give
    conjugates by seeded rotations: these keep the group, so orbit sizes and
    the exact exponent and dimension, and they keep the Euclidean size of
    the limit set, so the work of an operation varies only with how the
    sample sits on the dyadic grid.  Cycling through several rotations in
    one run makes the run's median average over that alignment.
    """
    if seed == 0:
        return [presentation] * POOL
    rng = random.Random(seed)
    return [conjugate(presentation, rotation(rng, presentation.model)) for _ in range(POOL)]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Result:
    stages: dict = field(default_factory=dict)   # stage -> wall seconds
    values: dict = field(default_factory=dict)   # named outputs
    checks: list = field(default_factory=list)

    def check(self, name, ok, detail=""):
        self.checks.append(Check(name, bool(ok), detail))

    @property
    def failed(self):
        return [c for c in self.checks if not c.ok]


@contextlib.contextmanager
def _stage(result, name):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        result.stages[name] = time.perf_counter() - t0


def check_verify(result, report, orbit_size, delta_band=None, dim_band=None,
                 min_margin=None, max_gap=None):
    """Output checks on one VerificationReport."""
    d, b = report.delta_est, report.dim_est
    result.check("orbit_size", report.orbit_size == orbit_size,
                 f"{report.orbit_size} != {orbit_size}")
    result.check("passed", report.passed, f"margin {report.margin:.4f}")
    if delta_band is not None:
        result.check("delta_band", delta_band[0] <= d <= delta_band[1], f"delta_est {d:.4f}")
    if dim_band is not None:
        result.check("dim_band", dim_band[0] <= b <= dim_band[1], f"dim_est {b:.4f}")
    if min_margin is not None:
        result.check("margin", report.margin >= min_margin, f"margin {report.margin:.4f}")
    if max_gap is not None:
        result.check("gap", abs(d - b) <= max_gap, f"|delta - dim| {abs(d - b):.4f}")


# ---------------------------------------------------------------------------
# Workloads.  build(seed) is set-up; run(inputs, workdir) is one operation.


class FreeVerify:
    """Enumeration-bound; the group is free, so dedup never rejects a word."""

    name = "free_verify"

    def build(self, seed):
        return seeded_inputs(kleindim.schottky_f2(), seed)

    def run(self, presentation, workdir):
        res = Result()
        with _stage(res, "verify_s"):
            report = verify.verify_inequality(presentation, FREE_DEPTH)
        check_verify(res, report, free_orbit_size(2, FREE_DEPTH),
                     min_margin=SCHOTTKY_MIN_MARGIN, max_gap=SCHOTTKY_MAX_GAP)
        res.values.update(delta_est=report.delta_est, dim_est=report.dim_est)
        return res


class LatticeChain:
    """Relation-heavy enumeration, per-shell grid counts, the O(N^2) packing
    oracle, and the only exact reference: delta = dim = 1."""

    name = "lattice_chain"

    def build(self, seed):
        return seeded_inputs(kleindim.fuchsian_lattice(), seed)

    def run(self, presentation, workdir):
        res = Result()
        with _stage(res, "verify_s"):
            report = verify.verify_inequality(presentation, LATTICE_DEPTH)
        check_verify(res, report, LATTICE_ORBIT_SIZE,
                     delta_band=LATTICE_DELTA_BAND, dim_band=LATTICE_DIM_BAND)
        s, t = report.dim_est + 0.4, report.dim_est + 0.2
        with _stage(res, "chain_s"):
            chain = verify.series_chain_report(presentation, LATTICE_DEPTH, s, t)
        res.check("chain_ok", chain.chain_ok,
                  f"radial {chain.radial_ok} volume {chain.volume_ok} tail {chain.tail_ok}")
        h = group.find_loxodromic(presentation, 6)
        z = group.choose_basepoint(h, presentation, 6)
        orbit = group.enumerate_orbit(presentation, z, LATTICE_DEPTH)
        radius = group.packing_radius(orbit).radius
        with _stage(res, "packing_s"):
            packing = group.check_packing_disjoint(orbit, radius)
        res.check("packing_ok", packing.ok, f"pair {packing.pair}")
        res.check("packing_points", len(orbit) == LATTICE_ORBIT_SIZE,
                  f"{len(orbit)} != {LATTICE_ORBIT_SIZE}")
        res.values.update(
            delta_est=report.delta_est, dim_est=report.dim_est,
            delta_ref_err=abs(report.delta_est - 1.0),
            dim_ref_err=abs(report.dim_est - 1.0),
        )
        return res


class BallVerify:
    """The ball model: per-element sampling loop, 3-D box counting, the
    second estimator; the same group as free_verify."""

    name = "ball_verify"

    def build(self, seed):
        return seeded_inputs(ball_schottky(), seed)

    def run(self, presentation, workdir):
        res = Result()
        with _stage(res, "verify_s"):
            report = verify.verify_inequality(
                presentation, BALL_DEPTH, exponent_method="divergence_scan")
        # tests/test_verify.py asserts the pass verdict and, for this group,
        # agreement within 0.15; the margin band belongs to counting_fit only.
        check_verify(res, report, free_orbit_size(2, BALL_DEPTH), max_gap=SCHOTTKY_MAX_GAP)
        res.values.update(delta_est=report.delta_est, dim_est=report.dim_est)
        return res


def _read_rows(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _stdout_value(text, key):
    for token in text.split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    return None


class CliExplore:
    """The CLI's pipeline copy (one enumeration per subcommand) and its
    write path: CSV, PGM and group JSON."""

    name = "cli_explore"

    def build(self, seed):
        return seeded_inputs(kleindim.schottky_f2(), seed)

    def run(self, presentation, workdir):
        res = Result()
        workdir = Path(workdir)
        fixture = workdir / "fixture.json"
        groupfile = workdir / "group.json"
        out = {name: workdir / name for name in
               ("orbit.csv", "poincare.csv", "limitset.csv", "limitset.pgm", "boxdim.csv")}
        depth = ["--depth", str(CLI_DEPTH)]
        commands = [
            ["fixtures", "--emit", "schottky_f2", str(fixture)],
            ["orbit", str(groupfile), *depth, "--out", str(out["orbit.csv"])],
            ["poincare", str(groupfile), *depth, "--s-grid", CLI_S_GRID,
             "--out", str(out["poincare.csv"])],
            ["exponent", str(groupfile), *depth],
            ["limitset", str(groupfile), *depth, "--out", str(out["limitset.csv"]),
             "--image", str(out["limitset.pgm"]), "--k", str(CLI_IMAGE_K)],
            ["boxdim", str(groupfile), *depth, "--out", str(out["boxdim.csv"])],
        ]
        stdout = {}
        with _stage(res, "session_s"):
            groupio.save_group(presentation, groupfile)
            for argv in commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                stdout[argv[0]] = buf.getvalue()
                res.check(f"exit_{argv[0]}", code == 0, f"exit code {code}")
        self.check_outputs(res, fixture, out, stdout)
        res.values["bytes_written"] = sum(
            p.stat().st_size for p in (fixture, groupfile, *out.values()) if p.exists())
        return res

    def check_outputs(self, res, fixture, out, stdout, orbit_size=None):
        orbit_size = free_orbit_size(2, CLI_DEPTH) if orbit_size is None else orbit_size
        try:
            loaded = groupio.load_group(fixture)
            reference = kleindim.schottky_f2()
            res.check("fixture_round_trip", all(
                g.entry_distance(r) <= 1e-12
                for g, r in zip(loaded.generators, reference.generators)))

            header, rows = _read_rows(out["orbit.csv"])
            res.check("orbit_rows", len(rows) == orbit_size, f"{len(rows)} != {orbit_size}")
            shells = {row[header.index("shell_index")] for row in rows}

            header, rows = _read_rows(out["poincare.csv"])
            grid = cli._parse_s_grid(CLI_S_GRID)
            res.check("poincare_rows", len(rows) == len(shells),
                      f"{len(rows)} shells, orbit.csv has {len(shells)}")
            res.check("poincare_cols", len(header) == 3 + len(grid), f"{len(header)} columns")

            res.check("exponent_orbit_size",
                      _stdout_value(stdout["exponent"], "orbit_size") == str(orbit_size))
            delta = float(_stdout_value(stdout["exponent"], "delta_est"))
            dim = float(_stdout_value(stdout["boxdim"], "dim_est"))
            res.check("margin", dim - delta >= SCHOTTKY_MIN_MARGIN, f"margin {dim - delta:.4f}")
            res.check("gap", abs(delta - dim) <= SCHOTTKY_MAX_GAP, f"gap {abs(delta - dim):.4f}")

            _, rows = _read_rows(out["limitset.csv"])
            res.check("limitset_rows", orbit_size <= len(rows) <= 2 * orbit_size
                      and f"wrote {len(rows)} sample points" in stdout["limitset"],
                      f"{len(rows)} rows")
            size = 2 ** (CLI_IMAGE_K + 1)  # pixels of side 2^-k across [-1, 1]
            header_bytes = f"P5 {size} {size} 255\n".encode("ascii")
            data = out["limitset.pgm"].read_bytes()
            res.check("pgm", data.startswith(header_bytes)
                      and len(data) == len(header_bytes) + size * size, f"{len(data)} bytes")

            _, rows = _read_rows(out["boxdim.csv"])
            n_scales = CLI_BOX_K[1] - CLI_BOX_K[0] + 1
            res.check("boxdim_rows", len(rows) == n_scales, f"{len(rows)} != {n_scales}")
            res.values.update(delta_est=delta, dim_est=dim)
        except (OSError, ValueError, TypeError, IndexError, kleindim.KleindimError) as err:
            res.check("outputs_readable", False, repr(err))


WORKLOADS = {w.name: w for w in (FreeVerify(), LatticeChain(), BallVerify(), CliExplore())}
