"""Command-line interface.

Subcommands
-----------
orbit     enumerate an orbit and write it as CSV
poincare  per-shell partial sums of the orbital series on an s-grid
exponent  estimate the growth exponent of one orbit
limitset  sample the limit set; optionally raster it to a PGM image
boxdim    dyadic scale series and the box-dimension estimate
verify    both sides of the exponent/dimension inequality
chain     shell-by-shell estimate chain with measured constants
fixtures  list built-in fixtures or write one to a file

Exit codes: 0 on success (and verification pass), 2 when a verification ran
to completion and failed, 1 on usage or resource errors.

Each setting's default and check live in its owning module (`poincare`,
`limitset`, `verify`); a bad setting fails before any ball, writing nothing.

A process builds one argument parser, on its first `main` call, and parses
every later call with it.  The parser records which subcommand ran; `main`
looks its handler `_cmd_<name>` up in this module at call time, so a handler
rebound after the first call is the one that runs.

Every CSV table goes through one writer, `_write_table`: a header row, then
one row template (floats "%.9g", so 9 significant digits; integers "%d";
text "%s") applied to the rows of the table's columns, joined into one
string and written atomically (temp file + rename) as UTF-8; `verify`'s
group field, the one free text, is quoted per RFC 4180 (`_csv_text`).
Every stdout line that prints the group name or a path, and every
`error:` line, shows each unprintable character as its Python escape
(`_one_line`), so one message is one line.
Identical inputs give byte-identical outputs.  Group words are spelled
once per ball from its parent-pointer trie (`GroupBall.spellings`).

Every command that runs a group reads the process's one front,
`verify.front`, held under its `group.ball_key` (see `kleindim.verify`):
on a key hit no command builds a ball, basepoint, orbit, sample or word
spelling, and a `--basepoint` command maps the held ball to its own point.
A depth below 1 fails before the front.  Every output is byte-identical to
that of one process per command.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import limitset, poincare, verify
from .errors import KleindimError, UsageError
from .fixtures import GROUP_FIXTURES, POINT_FIXTURES, fixture_names, get_group_fixture
from .geometry import InteriorPoint
from .groupio import atomic_write_bytes, load_group, save_group
from .limitset import box_dimension_estimate, check_window
from .poincare import exponent_estimate, truncated_series
from .verify import front, series_chain_report, verify_inequality

S_GRID_CAP = 10_000  # most exponents one --s-grid may hold


def _fmt(v):
    """Stdout and header-label formatting: floats at 9 significant digits, rest as str."""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _write_table(path, header, template, columns):
    """Write one CSV table: the header, then `template` applied to every row of `columns`.

    `columns` are equal-length sequences of Python values (`.tolist()` views
    of arrays), one per template field; the rows are formatted and joined
    into one string and written with one atomic write.
    """
    row = template + "\n"
    body = "".join(map(row.__mod__, zip(*columns)))
    atomic_write_bytes(path, (",".join(header) + "\n" + body).encode("utf-8"))


def _csv_text(text):
    """A free-text CSV field, quoted per RFC 4180 where it holds `,`, `"`, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if re.search('[,"\r\n]', text) else text


def _one_line(text):
    """`text` on one line: each unprintable character as its Python escape (\\n, \\x1b)."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _parse_s_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"s-grid must be start:stop:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as err:
        raise UsageError(f"s-grid must be numeric start:stop:step, got {text!r}") from err
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"s-grid values must be finite, got {text!r}")
    if step <= 0.0 or hi < lo or lo < 0.0:
        raise UsageError("s-grid needs 0 <= start <= stop and step > 0")
    steps = (hi - lo) / step + 1e-9  # inf once the ratio overflows
    if not steps < S_GRID_CAP:
        raise UsageError(f"s-grid must hold at most {S_GRID_CAP} values, got {text!r}")
    count = int(math.floor(steps)) + 1
    return [lo + i * step for i in range(count)]


def _parse_point(text, model):
    try:
        coords = [float(p) for p in text.split(",")]
    except ValueError as err:
        raise UsageError(f"basepoint must be comma-separated floats, got {text!r}") from err
    if len(coords) != model:
        raise UsageError(f"basepoint needs {model} coordinates, got {len(coords)}")
    return InteriorPoint(coords)


def _front_orbit(args, basepoint=None):
    """The held front's orbit, mapped to the parsed basepoint when given."""
    presentation = load_group(args.groupfile)
    z = None if basepoint is None else _parse_point(basepoint, presentation.model)
    held = front(presentation, args.depth)
    return held.orbit if z is None else held.map(z)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.


def _cmd_orbit(args):
    orbit = _front_orbit(args, args.basepoint)
    n = orbit.model
    header = ["word", "word_length", *"xyz"[:n], "radial_gap", "shell_index", "displacement"]
    _write_table(args.out, header, "%s,%d," + "%.9g," * n + "%.9g,%d,%.9g", [
        orbit.ball.spellings,
        orbit.word_lengths.tolist(),
        *orbit.points.T.tolist(),
        orbit.gaps.tolist(),
        orbit.shells.tolist(),
        orbit.displacements.tolist(),
    ])
    print(f"wrote {len(orbit)} elements to {_one_line(args.out)}")
    return 0


def _cmd_poincare(args):
    grid = _parse_s_grid(args.s_grid)
    orbit = _front_orbit(args, args.basepoint)
    evals = [truncated_series(orbit, s) for s in grid]
    header = ["k", "r", "shell_count", *(f"partial_s={_fmt(s)}" for s in grid)]
    # every evaluation on the orbit has one partial per occupied shell, in this order
    ks = orbit.shell_runs.shells.tolist()
    _write_table(args.out, header, "%d,%.9g,%d" + ",%.9g" * len(grid), [
        ks,
        [2.0 ** -k for k in ks],
        orbit.shell_runs.counts.tolist(),
        *(ev.partials.tolist() for ev in evals),
    ])
    for s, ev in zip(grid, evals):
        print(f"s={_fmt(s)} value={_fmt(ev.value)}")
    print(f"wrote {len(ks)} shells to {_one_line(args.out)}")
    return 0


def _cmd_exponent(args):
    orbit = _front_orbit(args)
    est = exponent_estimate(orbit, method=args.method)
    print(f"method={est.method}")
    print(f"delta_est={_fmt(est.delta_est)}")
    print(f"fit_window=[{_fmt(est.fit_window[0])}, {_fmt(est.fit_window[1])}]")
    print(f"slope_stderr={_fmt(est.slope_stderr)}")
    print(f"orbit_size={len(orbit)}")
    for key in sorted(est.diagnostics):
        print(f"diagnostic {key}={est.diagnostics[key]}")
    return 0


def _check_raster(model, k):
    """The raster's preconditions, checked before a command writes anything."""
    if model != 2:
        raise UsageError("raster output is planar-model only")
    if not 1 <= k <= 10:
        raise UsageError(f"image scale k must be in [1, 10], got {k}")


def _write_pgm(path, sample, k):
    """P5 raster: sample pixels 255, r-neighborhood 128, background 0 (see `_check_raster`)."""
    r = 2.0 ** -k
    size = int(round(2.0 / r))
    xs = -1.0 + (np.arange(size) + 0.5) * r
    ys = 1.0 - (np.arange(size) + 0.5) * r
    px, py = sample.points[:, 0], sample.points[:, 1]
    cols = np.clip(np.floor((px + 1.0) / r), 0, size - 1).astype(int)
    rows = np.clip(np.floor((1.0 - py) / r), 0, size - 1).astype(int)
    # a pixel center within r of a point is at most one pixel from the point's
    # own; the 5 x 5 block also absorbs the clip at the border and floor rounding.
    # Block offsets lead and points run last, so every array op runs over the points.
    step = np.arange(-2, 3)[:, None]
    block_rows = np.clip(rows + step, 0, size - 1)
    block_cols = np.clip(cols + step, 0, size - 1)
    dx = xs[block_cols] - px
    dy = ys[block_rows] - py
    dist = (dx * dx)[None, :, :] + (dy * dy)[:, None, :]
    i, j, at = np.nonzero(np.sqrt(dist, out=dist) <= r)
    img = np.zeros(size * size, dtype=np.uint8)  # pixel (row, col) at row * size + col
    img[block_rows[i, at] * size + block_cols[j, at]] = 128
    img[rows * size + cols] = 255
    atomic_write_bytes(path, f"P5 {size} {size} 255\n".encode("ascii") + img.tobytes())


def _cmd_limitset(args):
    presentation = load_group(args.groupfile)
    if args.image is not None:
        _check_raster(presentation.model, args.k)
    held = front(presentation, args.depth)
    sample, words = held.sample, held.ball.spellings
    n = sample.model
    _write_table(args.out, [*"xyz"[:n], "witness"], "%.9g," * n + "%s", [
        *sample.points.T.tolist(),
        [words[i] for i in sample.witnesses.tolist()],
    ])
    print(f"wrote {len(sample)} sample points to {_one_line(args.out)} (source {sample.source})")
    if args.image is not None:
        _write_pgm(args.image, sample, args.k)
        print(f"wrote raster to {_one_line(args.image)}")
    return 0


def _cmd_boxdim(args):
    k_range = check_window((args.kmin, args.kmax))
    est = box_dimension_estimate(front(load_group(args.groupfile), args.depth).sample,
                                 k_range=k_range)
    recs = est.records
    header = ["k", "r", "cell_count", "volume", "local_slope"]
    # the last scale has no forward difference: its slope cell is empty
    _write_table(args.out, header, "%d,%.9g,%d,%.9g,%s", [
        [rec.k for rec in recs],
        [rec.r for rec in recs],
        [rec.cell_count for rec in recs],
        [rec.volume for rec in recs],
        [*("%.9g" % v for v in est.local_slopes.tolist()), ""],
    ])
    print(f"dim_est={_fmt(est.dim_est)}")
    print(f"fit_window=[{est.fit_window[0]}, {est.fit_window[1]}]")
    print(f"note: {est.method_note}")
    print(f"wrote {len(recs)} scales to {_one_line(args.out)}")
    return 0


def _cmd_verify(args):
    presentation = load_group(args.groupfile)
    report = verify_inequality(
        presentation, args.depth, tolerance=args.tolerance, exponent_method=args.method,
    )
    header = [
        "group", "depth", "delta_est", "delta_method", "delta_stderr",
        "delta_window_lo", "delta_window_hi", "dim_est", "dim_kmin", "dim_kmax",
        "margin", "tolerance", "passed",
    ]
    d, b = report.delta_estimate, report.dim_estimate
    row = [
        _csv_text(report.group_name or args.groupfile), report.depth,
        d.delta_est, d.method, d.slope_stderr,
        float(d.fit_window[0]), float(d.fit_window[1]),
        b.dim_est, b.fit_window[0], b.fit_window[1],
        report.margin, report.tolerance, report.passed,
    ]
    if args.out is not None:
        template = "%s,%d,%.9g,%s" + ",%.9g" * 4 + ",%d,%d,%.9g,%.9g,%s"
        _write_table(args.out, header, template, [[v] for v in row])
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"group={_one_line(report.group_name or args.groupfile)} depth={report.depth} "
        f"delta_est={_fmt(d.delta_est)} dim_est={_fmt(b.dim_est)} "
        f"margin={_fmt(report.margin)} tolerance={_fmt(report.tolerance)} result={verdict}"
    )
    return 0 if report.passed else 2


def _cmd_chain(args):
    presentation = load_group(args.groupfile)
    report = series_chain_report(
        presentation, args.depth, args.s, args.t, k_max=args.kmax,
    )
    header = ["k", "count", "series_partial", "lhs", "mid", "rhs", "tail"]
    if args.out is not None:
        _write_table(args.out, header, "%d,%d" + ",%.9g" * 5, [
            getattr(report, field).tolist() for field in header
        ])
    print(f"s={_fmt(report.s)} t={_fmt(report.t)} dim_est={_fmt(report.dim_estimate.dim_est)}")
    print(f"packing_radius={_fmt(report.packing_radius)} c_hat={_fmt(report.c_hat)}")
    print(f"C1={_fmt(report.c1)} C2={_fmt(report.c2)} C3={_fmt(report.c3)}")
    print(
        f"radial_ok={report.radial_ok} volume_ok={report.volume_ok} "
        f"tail_ok={report.tail_ok} packing_ok={report.packing_ok}"
    )
    print(
        f"tail_partial_sum={_fmt(report.tail_partial_sum)} "
        f"closed_form={_fmt(report.tail_closed_form)}"
    )
    verdict = "PASS" if report.chain_ok else "FAIL"
    print(f"result={verdict}")
    return 0 if report.chain_ok else 2


def _cmd_fixtures(args):
    if args.list:
        for name in fixture_names():
            print(name)
        return 0
    name, path = args.emit
    if name in GROUP_FIXTURES:
        save_group(get_group_fixture(name), path)
        print(f"wrote group fixture {name} to {_one_line(path)}")
        return 0
    if name in POINT_FIXTURES:
        sample = POINT_FIXTURES[name]()
        # synthetic label words, dotted digit by digit
        _write_table(path, ["x", "y", "witness"], "%.9g,%.9g,%s", [
            *sample.points.T.tolist(),
            [".".join(map(str, word)) for word in sample.witnesses.tolist()],
        ])
        print(f"wrote point fixture {name} ({len(sample)} points) to {_one_line(path)}")
        return 0
    raise UsageError(f"unknown fixture {name!r}; choices: {', '.join(fixture_names())}")


# ---------------------------------------------------------------------------
# Parser assembly.


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (not argparse's 2).

    Words starting "-" or "-." and a digit are values, so every subparser
    takes `--basepoint -0.3,0.05` with a negative first coordinate.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_group_command(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("groupfile", help="group-definition JSON file")
    p.add_argument("--depth", type=int, required=True,
                   help="maximum word length to enumerate")
    return p


@functools.cache
def build_parser():
    """The process's one parser, built on its first call rather than at import."""
    parser = _Parser(prog="kleindim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_group_command(sub, "orbit", "enumerate an orbit to CSV")
    p.add_argument("--basepoint", help="comma-separated interior coordinates")
    p.add_argument("--out", required=True, help="output CSV path")

    p = _add_group_command(sub, "poincare", "per-shell series partial sums")
    p.add_argument("--basepoint", help="comma-separated interior coordinates")
    p.add_argument("--s-grid", required=True, dest="s_grid",
                   help="exponent grid start:stop:step")
    p.add_argument("--out", required=True, help="output CSV path")

    p = _add_group_command(sub, "exponent", "estimate the growth exponent")
    p.add_argument("--method", choices=poincare.METHODS, default=poincare.METHODS[0])

    p = _add_group_command(sub, "limitset", "sample the limit set")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--image", help="optional P5 PGM raster path")
    p.add_argument("--k", type=int, default=8, help="raster scale, pixels of side 2^-k")

    p = _add_group_command(sub, "boxdim", "dyadic scale series and dimension")
    p.add_argument("--kmin", type=int, default=limitset.K_RANGE[0])
    p.add_argument("--kmax", type=int, default=limitset.K_RANGE[1])
    p.add_argument("--out", required=True, help="output CSV path")

    p = _add_group_command(sub, "verify", "check delta_est <= dim_est + tolerance")
    p.add_argument("--tolerance", type=float, default=verify.TOLERANCE)
    p.add_argument("--method", choices=poincare.METHODS, default=poincare.METHODS[0],
                   help="exponent estimator")
    p.add_argument("--out", help="optional report CSV path")

    p = _add_group_command(sub, "chain", "shell-by-shell estimate chain")
    p.add_argument("--s", type=float, required=True, help="series exponent, s > t")
    p.add_argument("--t", type=float, required=True,
                   help="comparison exponent, t above the dimension estimate")
    p.add_argument("--kmax", type=int, default=verify.CHAIN_K_MAX, help="deepest shell to measure")
    p.add_argument("--out", help="optional per-shell CSV path")

    p = sub.add_parser("fixtures", help="list or emit built-in fixtures")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="print fixture names")
    mode.add_argument("--emit", nargs=2, metavar=("NAME", "PATH"),
                      help="write a fixture to a file")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 1
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (KleindimError, OSError) as err:
        print(f"error: {_one_line(str(err))}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
