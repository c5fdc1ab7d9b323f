"""The package's export list."""

from __future__ import annotations

import kleindim


def test_public_names_resolve():
    names = kleindim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(kleindim, name), name
