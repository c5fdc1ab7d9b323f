"""One sha256 line per group-ball case over a fixed matrix, to compare two trees.

Usage, from a checkout (the tree under test is the one PYTHONPATH names):

    PYTHONPATH=src python tools/ball_digest.py > ball.txt

A case is one group, depth and seeded input of the benchmark
(`perfbench/workloads.seeded_inputs`, which this only imports): seed 0 is
the shipped group, seed 29 its eight seeded rotations.  The groups and
depths are `schottky_f2` at 1, 5, 9 and 10, `fuchsian_lattice` at 6, 14
and 20, the n = 3 Schottky group at 6 and 8, and `cyclic_loxodromic` at 14
and 40.  Each case builds the group ball and prints the sha256 of the bytes
of its `entries`, `parents`, `letters` and `word_lengths` (each with its
dtype and shape), then the element count and the index of the first
loxodromic element: 99 lines.  Then, for every case but a group's deepest,
it prints one `head` line, the same three fields for the group's deepest
ball of that input cut by `GroupBall.head(depth)`: 63 lines, each equal to
its case's line but for the `head=` field.  Two trees whose balls match
byte for byte print the same lines.  It takes no options.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import kleindim  # noqa: E402
from kleindim.group import build_ball  # noqa: E402
from workloads import ball_schottky, seeded_inputs  # noqa: E402

GROUPS = [
    ("schottky_f2", kleindim.schottky_f2, (1, 5, 9, 10)),
    ("fuchsian_lattice", kleindim.fuchsian_lattice, (6, 14, 20)),
    ("schottky_ball", ball_schottky, (6, 8)),
    ("cyclic_loxodromic", kleindim.cyclic_loxodromic, (14, 40)),
]
SEEDS = (0, 29)


def ball_digest(ball):
    """sha256 over the dtype, shape and bytes of the ball's four arrays."""
    digest = hashlib.sha256()
    for array in (ball.entries, ball.parents, ball.letters, ball.word_lengths):
        digest.update(f"{array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def line(ball, case):
    """The digest, the case, the element count and the first loxodromic index."""
    return (f"{ball_digest(ball)} {case} "
            f"elements={len(ball)} first_loxodromic={ball.first_loxodromic()}")


def main():
    heads = []
    for name, make, depths in GROUPS:
        for seed in SEEDS:
            inputs = seeded_inputs(make(), seed)
            for i, presentation in enumerate(inputs[:1] if seed == 0 else inputs):
                for depth in depths:
                    ball = build_ball(presentation, depth)
                    print(line(ball, f"{name} depth={depth} seed={seed} input={i}"), flush=True)
                heads += [line(ball.head(depth), f"{name} depth={depth} seed={seed} input={i} "
                               f"head={depths[-1]}") for depth in depths[:-1]]
    print(*heads, sep="\n")


if __name__ == "__main__":
    main()
