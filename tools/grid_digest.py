"""One sha256 line per grid-count case over a fixed matrix, to compare two trees.

Usage, from a checkout (the tree under test is the one PYTHONPATH names):

    PYTHONPATH=src python tools/grid_digest.py > grid.txt

A case is one group, seed and pooled input of the benchmark
(`perfbench/workloads.seeded_inputs`, which this only imports): seed 0 is
the shipped group, seed 29 its eight seeded rotations.  The groups are
`schottky_f2` at depth 9, `fuchsian_lattice` at depth 14 and the n = 3
Schottky group at depth 8.  Each case runs the pipeline's sampling front
and prints three lines: the sha256 of every box count over `K_RANGE`, and
of c_hat with every chain count of radius c_hat * 2^-k at cell 2^-k for
k = 1..12, where c_hat comes from the containment check at the packing
radius.  Scales, radii and c_hat enter as hex floats, counts as integers.
The third line hashes the per-shell stages: the series partials at
s = 0, 0.5, 1 and 1.5; both exponent estimates (or the error each
raises); the packing check's verdict, pair and distance (a hex float,
or None), and the containment shells and c, at 1, 2 and 8 times the
packing radius, where each ball's radius weighs more in its bound; and
the chain report's columns k to tail with c1 to c3,
at s = dim_est + 0.4 and t = dim_est + 0.2.
Every case prints a fourth line, the sha256 of the fine-scale counts at
k = 18 and 24 with radius 1 and 6 times the cell, where the cell indices,
and the ends of the runs' key boxes in cell units, are largest.  At k = 24
the grid count of each n = 3 seed-29 rotation ranks its lines
(`limitset._line_events`), which no count at k <= 12 does; the n = 3 seed-0
limit set lies in a coordinate plane, so its lines stay narrow enough for
offset keys.  The fifth line hashes `box_dimension_estimate`'s dim_est, as a hex
float, and its method note, whose spacing note fires on every lattice
case; it is taken first, before the case's other checks.  That makes 135
lines.  Two trees whose grid counts,
estimates and per-shell numbers match bit for bit print the same lines.  It
takes no options.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import kleindim  # noqa: E402
from kleindim import (  # noqa: E402
    InsufficientDataError,
    ball_containment_check,
    box_dimension_estimate,
    check_packing_disjoint,
    exponent_estimate,
    neighborhood_volume,
    packing_radius,
    series_chain_report,
    truncated_series,
)
from kleindim.limitset import K_RANGE  # noqa: E402
from kleindim.verify import front  # noqa: E402
from workloads import ball_schottky, seeded_inputs  # noqa: E402

GROUPS = [
    ("schottky_f2", kleindim.schottky_f2, 9),
    ("fuchsian_lattice", kleindim.fuchsian_lattice, 14),
    ("schottky_ball", ball_schottky, 8),
]
SEEDS = (0, 29)
K_MAX = 12  # the deepest shell of the containment checks and chain counts
CHAIN_K = range(1, K_MAX + 1)
SERIES_S = (0.0, 0.5, 1.0, 1.5)
PACKING_FACTORS = (1.0, 2.0, 8.0)
FINE_K = (18, 24)
FINE_FACTORS = (1.0, 6.0)


def _line(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _hex(values):
    return " ".join(float(v).hex() for v in values)


def _estimate(orbit, method):
    try:
        est = exponent_estimate(orbit, method=method)
    except InsufficientDataError as err:
        return f"{method} {type(err).__name__}: {err}"
    return f"{method} {_hex([est.delta_est, *est.fit_window, est.slope_stderr])} {est.diagnostics}"


def _per_shell(presentation, depth, orbit, sample):
    parts = []
    shells = orbit.shell_runs.shells.tolist()
    for s in SERIES_S:
        ev = truncated_series(orbit, s)
        parts.append(f"series {s} {shells} {_hex(ev.partials)} {ev.value.hex()}")
    parts += [_estimate(orbit, method) for method in ("counting_fit", "divergence_scan")]
    radius = packing_radius(orbit).radius
    for factor in PACKING_FACTORS:
        check = check_packing_disjoint(orbit, factor * radius)
        distance = None if check.distance is None else check.distance.hex()
        parts.append(f"packing {factor} {check.ok} {check.pair} {distance}")
        containment = ball_containment_check(orbit, factor * radius, sample, k_max=K_MAX)
        parts.append(f"containment {factor} {containment.shells.tolist()} {_hex(containment.c)}")
    dim = box_dimension_estimate(sample).dim_est
    chain = series_chain_report(presentation, depth, dim + 0.4, dim + 0.2)
    parts.append(f"chain {chain.k.tolist()} {chain.count.tolist()}")
    for column in (chain.series_partial, chain.lhs, chain.mid, chain.rhs, chain.tail):
        parts.append(_hex(column))
    parts.append(_hex([chain.c1, chain.c2, chain.c3]))
    return parts


def main():
    for name, make, depth in GROUPS:
        for seed in SEEDS:
            inputs = seeded_inputs(make(), seed)
            for i, presentation in enumerate(inputs[:1] if seed == 0 else inputs):
                held = front(presentation, depth)
                orbit, sample = held.orbit, held.sample
                est = box_dimension_estimate(sample)
                box = []
                for k in range(K_RANGE[0], K_RANGE[1] + 1):
                    rec = neighborhood_volume(sample, 2.0 ** -k)
                    box.append(f"{k} {rec.r.hex()} {rec.cell_count}")
                pack = packing_radius(orbit).radius
                c_hat = ball_containment_check(orbit, pack, sample, k_max=K_MAX).c_hat
                chain = [c_hat.hex()]
                for k in CHAIN_K:
                    radius = c_hat * 2.0 ** -k
                    rec = neighborhood_volume(sample, 2.0 ** -k, radius=radius)
                    chain.append(f"{k} {radius.hex()} {rec.cell_count}")
                label = f"{name} depth={depth} seed={seed} input={i}"
                print(_line(box), label, "box", flush=True)
                print(_line(chain), label, "chain", flush=True)
                print(_line(_per_shell(presentation, depth, orbit, sample)), label, "shells",
                      flush=True)
                fine = []
                for k in FINE_K:
                    for factor in FINE_FACTORS:
                        rec = neighborhood_volume(sample, 2.0 ** -k, radius=factor * 2.0 ** -k)
                        fine.append(f"{k} {factor} {rec.cell_count}")
                print(_line(fine), label, "fine", flush=True)
                print(_line([est.dim_est.hex(), est.method_note]), label, "estimate", flush=True)


if __name__ == "__main__":
    main()
