"""The package's size and surface: counted lines, parameters with a default, public names.

Usage, from a checkout (the tree measured is the one PYTHONPATH names):

    PYTHONPATH=src python tools/surface.py

A counted line is a line of a module under the imported `kleindim` package
that is neither blank nor a comment; docstrings count.  A parameter with a
default is one that a function signature (`def`, at any depth, methods and
nested functions included) gives a default value, found with `ast`.  It
prints one line per module, then the totals, then `len(kleindim.__all__)`.
It takes no options.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kleindim


def counted_lines(text):
    """Lines that are neither blank nor a comment."""
    stripped = (line.strip() for line in text.splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def defaulted_parameters(text):
    """Parameters given a default value, over every function signature."""
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def main():
    package = Path(kleindim.__file__).parent
    lines = defaults = 0
    print(f"{'module':<16}{'lines':>7}{'defaults':>10}")
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n, d = counted_lines(text), defaulted_parameters(text)
        lines, defaults = lines + n, defaults + d
        print(f"{path.name:<16}{n:>7}{d:>10}")
    print(f"{'total':<16}{lines:>7}{defaults:>10}")
    print(f"public names (kleindim.__all__): {len(kleindim.__all__)}")


if __name__ == "__main__":
    main()
