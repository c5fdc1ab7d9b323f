"""`python -m kleindim`: the command-line interface without an installed script."""

from .cli import entry

if __name__ == "__main__":
    entry()
