"""One sha256 line per grid-count case over a fixed matrix, to compare two trees.

Usage, from a checkout (the tree under test is the one PYTHONPATH names):

    PYTHONPATH=src python tools/grid_digest.py > grid.txt

A case is one group, seed and pooled input of the benchmark
(`perfbench/workloads.seeded_inputs`, which this only imports): seed 0 is
the shipped group, seed 29 its eight seeded rotations.  The groups are
`schottky_f2` at depth 9, `fuchsian_lattice` at depth 14 and the n = 3
Schottky group at depth 8.  Each case runs the pipeline's sampling front
and prints two lines: the sha256 of every box count over `K_RANGE`, and
of c_hat with every chain count of radius c_hat * 2^-k at cell 2^-k for
k = 1..12, where c_hat comes from the containment check at the packing
radius.  Scales, radii and c_hat enter as hex floats, counts as integers.
Two trees whose grid counts match bit for bit print the same lines.  It
takes no options.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import kleindim  # noqa: E402
from kleindim import ball_containment_check, neighborhood_volume, packing_radius  # noqa: E402
from kleindim.limitset import K_RANGE  # noqa: E402
from kleindim.verify import sampling_front  # noqa: E402
from workloads import ball_schottky, seeded_inputs  # noqa: E402

GROUPS = [
    ("schottky_f2", kleindim.schottky_f2, 9),
    ("fuchsian_lattice", kleindim.fuchsian_lattice, 14),
    ("schottky_ball", ball_schottky, 8),
]
SEEDS = (0, 29)
CHAIN_K = range(1, 13)


def _line(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def main():
    for name, make, depth in GROUPS:
        for seed in SEEDS:
            inputs = seeded_inputs(make(), seed)
            for i, presentation in enumerate(inputs[:1] if seed == 0 else inputs):
                orbit, sample = sampling_front(presentation, depth)
                box = []
                for k in range(K_RANGE[0], K_RANGE[1] + 1):
                    rec = neighborhood_volume(sample, 2.0 ** -k)
                    box.append(f"{k} {rec.r.hex()} {rec.cell_count}")
                c_hat = ball_containment_check(orbit, packing_radius(orbit).radius, sample).c_hat
                chain = [c_hat.hex()]
                for k in CHAIN_K:
                    radius = c_hat * 2.0 ** -k
                    rec = neighborhood_volume(sample, 2.0 ** -k, radius=radius)
                    chain.append(f"{k} {radius.hex()} {rec.cell_count}")
                label = f"{name} depth={depth} seed={seed} input={i}"
                print(_line(box), label, "box", flush=True)
                print(_line(chain), label, "chain", flush=True)


if __name__ == "__main__":
    main()
