"""One sha256 line per CLI command over a fixed matrix, to compare two trees.

Usage, from a checkout (the tree under test is the one PYTHONPATH names):

    PYTHONPATH=src python tools/cli_digest.py > digest.txt

Each command runs in a fresh `python -m kleindim` process inside a new
temporary directory.  Its line is the sha256 of the exit code, stdout,
stderr and the bytes of every file the command wrote, with the temporary
directory masked as "<tmp>" in each, then the command itself.  Two trees
whose outputs match byte for byte print the same lines, so `diff` of two
digests lists exactly the commands whose output changed.

The matrix runs every subcommand on `schottky_f2`, `fuchsian_lattice`,
`cyclic_loxodromic` and the n = 3 Schottky group, at two depths each:
`orbit` with and without `--basepoint`, `poincare` with and without a
basepoint, `exponent` by both methods, `limitset` (with `--image` on the
planar groups), `boxdim`, `verify --out` by both methods and `chain --out`,
plus `fixtures --list` and `fixtures --emit` of every fixture, group and
point set alike, then seven commands whose arguments must be rejected
before any group ball is built (an s-grid whose value count overflows,
`chain --kmax 0`, `chain --kmax 25`, past the finest grid scale 2^-24,
`exponent --bin-width 0` (an option that does not exist), `boxdim --kmin 9
--kmax 3`, `chain --s 1.0 --t 1.2`, and `chain --s 1100`, past
(k_max + 1) s = 1022), and last `orbit` on six malformed group files: five
whose second generator holds a non-numeric entry, a ragged pair, a string,
an object or a non-finite entry (JSON's Infinity), and one that is UTF-16
text, not UTF-8: 106 commands, so 106 lines.

Then the same matrix runs again as one session: every command through
`kleindim.cli.main` in this interpreter, in matrix order, each in its own
new temporary directory as before, so later commands on the same group
and depth reuse the front an earlier one built.  Its lines repeat the
digest with "session" before the command: 106 more, so 212 lines.

Then comes a case where the library builds the front and the front
commands read it: on a key no earlier command used, `schottky_f2` at depth
8, `chain`, then `orbit`, `limitset --image` and `boxdim`.  It runs in
fresh processes, then in the session, after the matrix: 4 lines and 4
session lines, so 220 lines.

Then `verify --out` on the n = 3 group at depth 6 from five group files
that differ only in the name they hold: a non-ASCII name, a name with a
comma, an empty name in a file whose path holds a comma and a non-ASCII
letter (the report's group field is then the path), a name holding a
quote, CR, LF and a tab, which stdout prints escaped on one line, and a
name that is a list, which is rejected.  They run in fresh processes, then
in the session, so 230 lines.

Last, `orbit --out` to a path that holds LF, which stdout prints escaped on
one line, fresh and in the session: 232 lines in all.  Each line shows its
command with unprintable characters escaped.  A session line that differs
from its fresh-process line is also reported on stderr, and the exit
status is then 1.  It takes no options.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from kleindim import cli

# the Schottky group of the rank-2 fixture carried into the ball model
BALL_GROUP = {
    "name": "schottky_ball",
    "model_dimension": 3,
    "chart": "halfspace",
    "generators": [
        [[5 / 3, 0.0], [4 / 3, 0.0], [4 / 3, 0.0], [5 / 3, 0.0]],
        [[5 / 3, 0.0], [0.0, 4 / 3], [0.0, -4 / 3], [5 / 3, 0.0]],
    ],
}

# group file -> (depths, basepoint); the planar groups come from `fixtures --emit`
GROUPS = {
    "schottky_f2": ((7, 9), "0.1,-0.2"),
    "fuchsian_lattice": ((10, 12), "0.3,-0.05"),
    "cyclic_loxodromic": ((8, 10), "0.2,0.1"),
    "schottky_ball": ((6, 8), "0.1,0.2,-0.05"),
}


def group_commands(name, depth, basepoint):
    """The matrix rows of one group at one depth; "{tmp}" marks the work directory."""
    group, d = f"{{tmp}}/{name}.json", ["--depth", str(depth)]
    planar = name != "schottky_ball"
    return [
        ["orbit", group, *d, "--out", "{tmp}/orbit.csv"],
        ["orbit", group, *d, f"--basepoint={basepoint}", "--out", "{tmp}/orbit.csv"],
        ["poincare", group, *d, "--s-grid", "0.5:1.5:0.25", "--out", "{tmp}/series.csv"],
        ["poincare", group, *d, f"--basepoint={basepoint}", "--s-grid", "0:2:0.5",
         "--out", "{tmp}/series.csv"],
        ["exponent", group, *d, "--method", "counting_fit"],
        ["exponent", group, *d, "--method", "divergence_scan"],
        ["limitset", group, *d, "--out", "{tmp}/points.csv",
         *(["--image", "{tmp}/points.pgm", "--k", "7"] if planar else [])],
        ["boxdim", group, *d, "--out", "{tmp}/scales.csv"],
        ["verify", group, *d, "--out", "{tmp}/report.csv"],
        ["verify", group, *d, "--method", "divergence_scan", "--out", "{tmp}/report.csv"],
        ["chain", group, *d, "--s", "1.5", "--t", "1.3", "--out", "{tmp}/chain.csv"],
    ]


# the second generator of each malformed group file, by the file's name
MALFORMED_GENERATORS = {
    "text_entry.json": [["a", 0], [0, 0], [0, 0], [1, 0]],
    "ragged_pair.json": [[1, 0], [0], [0, 0], [1, 0]],
    "string_generator.json": "zz",
    "object_generator.json": {},
    "nonfinite_entry.json": [[1e400, 0], [0, 0], [0, 0], [1, 0]],
}
# a well-formed group file in UTF-16 text, which starts with the bytes ff fe
UTF16_FILE = "utf16_text.json"

# rejected arguments, run after the matrix so the lines before them keep their order
BAD_ARGUMENTS = [
    ["poincare", "{tmp}/schottky_f2.json", "--depth", "7", "--s-grid", "0:1e308:1e-308",
     "--out", "{tmp}/series.csv"],
    ["chain", "{tmp}/schottky_f2.json", "--depth", "8", "--s", "1.5", "--t", "1.3",
     "--kmax", "0", "--out", "{tmp}/chain.csv"],
    ["chain", "{tmp}/schottky_f2.json", "--depth", "8", "--s", "1.5", "--t", "1.3",
     "--kmax", "25", "--out", "{tmp}/chain.csv"],
    ["exponent", "{tmp}/schottky_f2.json", "--depth", "7", "--bin-width", "0"],
    ["boxdim", "{tmp}/schottky_f2.json", "--depth", "7", "--kmin", "9", "--kmax", "3",
     "--out", "{tmp}/scales.csv"],
    ["chain", "{tmp}/schottky_f2.json", "--depth", "8", "--s", "1.0", "--t", "1.2",
     "--out", "{tmp}/chain.csv"],
    ["chain", "{tmp}/schottky_f2.json", "--depth", "8", "--s", "1100", "--t", "1.3",
     "--out", "{tmp}/chain.csv"],
] + [
    ["orbit", f"{{tmp}}/{name}", "--depth", "2", "--out", "{tmp}/orbit.csv"]
    for name in [*MALFORMED_GENERATORS, UTF16_FILE]
]


# group files of the n = 3 group by the name they hold; `verify` writes the
# name, or the file's path when it is empty, as the report's group field
NAMED_FILES = {
    "schoettky.json": "schöttky",
    "comma.json": "a,b",
    "odd, nämed.json": "",
    "crlf_tab.json": 'say "hi"\r\nbye\tnow',
    "list_name.json": ["x"],
}
NAMED_VERIFY = [
    ["verify", f"{{tmp}}/{name}", "--depth", "6", "--out", "{tmp}/report.csv"]
    for name in NAMED_FILES
]


# the library's chain builds the front of a new key, which the front commands then read
LIBRARY_FRONT = [
    ["chain", "{tmp}/schottky_f2.json", "--depth", "8", "--s", "1.5", "--t", "1.3",
     "--out", "{tmp}/chain.csv"],
    ["orbit", "{tmp}/schottky_f2.json", "--depth", "8", "--out", "{tmp}/orbit.csv"],
    ["limitset", "{tmp}/schottky_f2.json", "--depth", "8", "--out", "{tmp}/points.csv",
     "--image", "{tmp}/points.pgm", "--k", "7"],
    ["boxdim", "{tmp}/schottky_f2.json", "--depth", "8", "--out", "{tmp}/scales.csv"],
]

# an output path that holds LF
ODD_PATHS = [["orbit", "{tmp}/schottky_f2.json", "--depth", "7", "--out", "{tmp}/a\nb.csv"]]


def fresh_process(argv):
    """Exit code, stdout and stderr of `python -m kleindim argv`."""
    proc = subprocess.run([sys.executable, "-m", "kleindim", *argv],
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def this_process(argv):
    """Exit code, stdout and stderr of `cli.main(argv)` in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def digest(argv, fixtures, run):
    """Run one command in a new directory; return the sha256 of its outputs.

    The group files in `fixtures` are copied in first and are not digested;
    a group file the command writes is moved back to `fixtures` for later commands.
    """
    with tempfile.TemporaryDirectory(dir=fixtures.parent) as tmp:
        for src in fixtures.iterdir():
            (Path(tmp) / src.name).write_bytes(src.read_bytes())
        before = set(os.listdir(tmp))
        code, stdout, stderr = run([a.replace("{tmp}", tmp) for a in argv])
        h = hashlib.sha256(f"exit={code}\n".encode())
        for stream in (stdout, stderr):
            h.update(stream.replace(tmp.encode(), b"<tmp>") + b"\n--\n")
        for name in sorted(set(os.listdir(tmp)) - before):
            data = (Path(tmp) / name).read_bytes()
            h.update(name.encode() + b"\n" + data.replace(tmp.encode(), b"<tmp>") + b"\n--\n")
            if name.endswith(".json"):
                (fixtures / name).write_bytes(data)
    return h.hexdigest()


def write_fixtures(fixtures):
    """The group files no command emits: the n = 3 group, the malformed files and
    the named files."""
    fixtures.mkdir()
    (fixtures / "schottky_ball.json").write_text(json.dumps(BALL_GROUP, indent=2) + "\n")
    identity = [[1, 0], [0, 0], [0, 0], [1, 0]]
    for name, generator in MALFORMED_GENERATORS.items():
        doc = {"name": "malformed", "model_dimension": 2, "chart": "disc",
               "generators": [identity, generator]}
        (fixtures / name).write_text(json.dumps(doc) + "\n")
    text = json.dumps(BALL_GROUP) + "\n"
    (fixtures / UTF16_FILE).write_bytes(codecs.BOM_UTF16_LE + text.encode("utf-16-le"))
    for name, group_name in NAMED_FILES.items():
        doc = {**BALL_GROUP, "name": group_name}
        (fixtures / name).write_text(json.dumps(doc, ensure_ascii=False) + "\n",
                                     encoding="utf-8")


def main():
    matrix = [["fixtures", "--list"]] + [
        ["fixtures", "--emit", name, f"{{tmp}}/{name}.json"]
        for name in ("schottky_f2", "fuchsian_lattice", "cyclic_loxodromic")
    ] + [["fixtures", "--emit", "cantor_test", "{tmp}/cantor.csv"]] + [
        argv
        for name, (depths, basepoint) in GROUPS.items()
        for depth in depths
        for argv in group_commands(name, depth, basepoint)
    ] + BAD_ARGUMENTS
    status = 0
    with tempfile.TemporaryDirectory() as root:
        runs = ((fresh_process, ""), (this_process, "session "))
        for run, _ in runs:
            write_fixtures(Path(root) / f"fixtures-{run.__name__}")
        for commands in (matrix, LIBRARY_FRONT, NAMED_VERIFY, ODD_PATHS):
            fresh = []
            for run, label in runs:
                fixtures = Path(root) / f"fixtures-{run.__name__}"
                for i, argv in enumerate(commands):
                    line = digest(argv, fixtures, run)
                    print(line, label + cli._one_line(" ".join(argv)), flush=True)
                    if run is fresh_process:
                        fresh.append(line)
                    elif line != fresh[i]:
                        print("session differs from a fresh process: "
                              + cli._one_line(" ".join(argv)),
                              file=sys.stderr)
                        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
