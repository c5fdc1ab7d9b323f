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
to completion and failed, 1 on usage or resource errors.  All CSV output
has a header row, floats carry 9 significant digits, and files are written
atomically (temp file + rename), so identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import KleindimError, UsageError
from .fixtures import GROUP_FIXTURES, POINT_FIXTURES, fixture_names, get_group_fixture
from .geometry import InteriorPoint
from .groupio import atomic_write_bytes, load_group, save_group
from .limitset import K_RANGE, box_dimension_estimate
from .poincare import exponent_estimate, truncated_series
from .verify import pipeline_front, sampling_front, series_chain_report, verify_inequality

_METHODS = ("counting_fit", "divergence_scan")


def _fmt(v):
    """CSV cell formatting: floats at 9 significant digits, rest as str."""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def word_to_str(word):
    """Compact word spelling: a..z generators, A..Z inverses, '1' identity."""
    if not word:
        return "1"
    if all(1 <= abs(letter) <= 26 for letter in word):
        return "".join(
            chr(ord("a") + letter - 1) if letter > 0 else chr(ord("A") - letter - 1)
            for letter in word
        )
    return ".".join(str(letter) for letter in word)


def _parse_s_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"s-grid must be start:stop:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as err:
        raise UsageError(f"s-grid must be numeric start:stop:step, got {text!r}") from err
    if step <= 0.0 or hi < lo or lo < 0.0:
        raise UsageError("s-grid needs 0 <= start <= stop and step > 0")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
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
    """Orbit of the pipeline front, mapped to the parsed basepoint when given."""
    presentation = load_group(args.groupfile)
    z = None if basepoint is None else _parse_point(basepoint, presentation.model)
    return pipeline_front(presentation, args.depth, z)[1]


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.


def _cmd_orbit(args):
    orbit = _front_orbit(args, args.basepoint)
    coord_names = ["x", "y", "z"][: orbit.model]
    header = ["word", "word_length", *coord_names, "radial_gap", "shell_index", "displacement"]
    rows = []
    for i, word in enumerate(orbit.ball.words):
        rows.append([
            word_to_str(word),
            len(word),
            *(float(c) for c in orbit.points[i]),
            float(orbit.gaps[i]),
            int(orbit.shells[i]),
            float(orbit.displacements[i]),
        ])
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} elements to {args.out}")
    return 0


def _cmd_poincare(args):
    orbit = _front_orbit(args, args.basepoint)
    grid = _parse_s_grid(args.s_grid)
    evals = [truncated_series(orbit, s) for s in grid]
    header = ["k", "r", "shell_count", *(f"partial_s={_fmt(s)}" for s in grid)]
    rows = []
    unshelled = int(np.count_nonzero(orbit.shells == 0))
    if unshelled:
        rows.append([0, 1.0, unshelled, *(ev.unshelled for ev in evals)])
    counts = orbit.shell_counts()
    for k in sorted(counts):
        rows.append([k, 2.0 ** -k, counts[k], *(ev.partial_for(k) for ev in evals)])
    _write_csv(args.out, header, rows)
    for s, ev in zip(grid, evals):
        print(f"s={_fmt(s)} value={_fmt(ev.value)}")
    print(f"wrote {len(rows)} shells to {args.out}")
    return 0


def _cmd_exponent(args):
    orbit = _front_orbit(args)
    est = exponent_estimate(orbit, method=args.method, bin_width=args.bin_width)
    print(f"method={est.method}")
    print(f"delta_est={_fmt(est.delta_est)}")
    print(f"fit_window=[{_fmt(est.fit_window[0])}, {_fmt(est.fit_window[1])}]")
    print(f"slope_stderr={_fmt(est.slope_stderr)}")
    print(f"orbit_size={len(orbit)}")
    for key in sorted(est.diagnostics):
        print(f"diagnostic {key}={est.diagnostics[key]}")
    return 0


def _write_pgm(path, sample, k):
    """P5 raster: sample pixels 255, r-neighborhood 128, background 0."""
    if sample.model != 2:
        raise UsageError("raster output is planar-model only")
    if not 1 <= k <= 10:
        raise UsageError(f"image scale k must be in [1, 10], got {k}")
    r = 2.0 ** -k
    size = int(round(2.0 / r))
    xs = -1.0 + (np.arange(size) + 0.5) * r
    ys = 1.0 - (np.arange(size) + 0.5) * r
    grid_x, grid_y = np.meshgrid(xs, ys)
    centers = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    # the bound is strict, hence nextafter; pixels with no point within r get inf
    bound = np.nextafter(r, np.inf)
    dist, _ = sample.tree.query(centers, k=1, distance_upper_bound=bound)
    img = np.where(dist.reshape(size, size) <= r, 128, 0).astype(np.uint8)
    cols = np.clip(np.floor((sample.points[:, 0] + 1.0) / r), 0, size - 1).astype(int)
    rows = np.clip(np.floor((1.0 - sample.points[:, 1]) / r), 0, size - 1).astype(int)
    img[rows, cols] = 255
    atomic_write_bytes(path, f"P5 {size} {size} 255\n".encode("ascii") + img.tobytes())


def _cmd_limitset(args):
    orbit, sample = sampling_front(load_group(args.groupfile), args.depth)
    coord_names = ["x", "y", "z"][: sample.model]
    header = [*coord_names, "witness"]
    words = orbit.ball.words
    rows = [
        [*(float(c) for c in pt), word_to_str(words[i])]
        for pt, i in zip(sample.points, sample.witnesses.tolist())
    ]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} sample points to {args.out} (source {sample.source})")
    if args.image is not None:
        _write_pgm(args.image, sample, args.k)
        print(f"wrote raster to {args.image}")
    return 0


def _cmd_boxdim(args):
    _, sample = sampling_front(load_group(args.groupfile), args.depth)
    est = box_dimension_estimate(sample, k_range=(args.kmin, args.kmax))
    local = dict(est.per_scale_slopes)
    header = ["k", "r", "cell_count", "volume", "local_slope"]
    rows = []
    for rec in est.records:
        slope = local.get(rec.k)
        rows.append([rec.k, rec.r, rec.cell_count, rec.volume,
                     "" if slope is None else _fmt(slope)])
    _write_csv(args.out, header, rows)
    print(f"dim_est={_fmt(est.dim_est)}")
    print(f"fit_window=[{est.fit_window[0]}, {est.fit_window[1]}]")
    print(f"note: {est.method_note}")
    print(f"wrote {len(rows)} scales to {args.out}")
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
        report.group_name or args.groupfile, report.depth,
        d.delta_est, d.method, d.slope_stderr,
        float(d.fit_window[0]), float(d.fit_window[1]),
        b.dim_est, b.fit_window[0], b.fit_window[1],
        report.margin, report.tolerance, report.passed,
    ]
    if args.out is not None:
        _write_csv(args.out, header, [row])
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"group={report.group_name or args.groupfile} depth={report.depth} "
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
    rows = [
        [r.k, r.count, r.series_partial, r.lhs, r.mid, r.rhs, r.tail]
        for r in report.rows
    ]
    if args.out is not None:
        _write_csv(args.out, header, rows)
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
        print(f"wrote group fixture {name} to {path}")
        return 0
    if name in POINT_FIXTURES:
        sample = POINT_FIXTURES[name]()
        header = ["x", "y", "witness"]
        rows = [
            [float(pt[0]), float(pt[1]), ".".join(str(d) for d in word)]
            for pt, word in zip(sample.points, sample.witnesses)
        ]
        _write_csv(path, header, rows)
        print(f"wrote point fixture {name} ({len(rows)} points) to {path}")
        return 0
    raise UsageError(f"unknown fixture {name!r}; choices: {', '.join(fixture_names())}")


# ---------------------------------------------------------------------------
# Parser assembly.


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_group_command(sub, name, help_text, depth_required=True):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("groupfile", help="group-definition JSON file")
    p.add_argument("--depth", type=int, required=depth_required,
                   help="maximum word length to enumerate")
    return p


def build_parser():
    parser = _Parser(prog="kleindim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_group_command(sub, "orbit", "enumerate an orbit to CSV")
    p.add_argument("--basepoint", help="comma-separated interior coordinates")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_orbit)

    p = _add_group_command(sub, "poincare", "per-shell series partial sums")
    p.add_argument("--basepoint", help="comma-separated interior coordinates")
    p.add_argument("--s-grid", required=True, dest="s_grid",
                   help="exponent grid start:stop:step")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_poincare)

    p = _add_group_command(sub, "exponent", "estimate the growth exponent")
    p.add_argument("--method", choices=_METHODS, default="counting_fit")
    p.add_argument("--bin-width", type=float, default=0.5, dest="bin_width",
                   help="counting-function bin width (counting_fit only)")
    p.set_defaults(func=_cmd_exponent)

    p = _add_group_command(sub, "limitset", "sample the limit set")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--image", help="optional P5 PGM raster path")
    p.add_argument("--k", type=int, default=8, help="raster scale, pixels of side 2^-k")
    p.set_defaults(func=_cmd_limitset)

    p = _add_group_command(sub, "boxdim", "dyadic scale series and dimension")
    p.add_argument("--kmin", type=int, default=K_RANGE[0])
    p.add_argument("--kmax", type=int, default=K_RANGE[1])
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_boxdim)

    p = _add_group_command(sub, "verify", "check delta_est <= dim_est + tolerance")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--method", choices=_METHODS, default="counting_fit",
                   help="exponent estimator")
    p.add_argument("--out", help="optional report CSV path")
    p.set_defaults(func=_cmd_verify)

    p = _add_group_command(sub, "chain", "shell-by-shell estimate chain")
    p.add_argument("--s", type=float, required=True, help="series exponent, s > t")
    p.add_argument("--t", type=float, required=True,
                   help="comparison exponent, t above the dimension estimate")
    p.add_argument("--kmax", type=int, default=12, help="deepest shell to measure")
    p.add_argument("--out", help="optional per-shell CSV path")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("fixtures", help="list or emit built-in fixtures")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="print fixture names")
    mode.add_argument("--emit", nargs=2, metavar=("NAME", "PATH"),
                      help="write a fixture to a file")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 1
    try:
        return args.func(args)
    except KleindimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
