"""Reading and writing group-definition files.

A group definition is one JSON document:

    {
      "name": "schottky_f2",
      "model_dimension": 2,
      "chart": "disc",
      "generators": [
        [[re, im], [re, im], [re, im], [re, im]],
        ...
      ]
    }

Each generator is a 2x2 complex matrix given row-major as four [re, im]
pairs (a, b, c, d).  The file must be UTF-8 text, and every entry a finite
number (JSON readers accept NaN, Infinity and overflowing literals such as
1e400; they are rejected before any arithmetic).  Matrices must have unit
determinant within 1e-6; they are renormalized exactly on load.  Charts:
planar groups may be given in "disc" form directly or as real "halfspace"
(upper half-plane) matrices, which are conjugated to the disc by the fixed
Cayley matrix; spatial groups (model 3) use the "halfspace" chart natively.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import UsageError
from .geometry import MoebiusMap
from .group import GroupPresentation

# Cayley matrix for the half-plane -> disc conjugation; the overall scale
# cancels in the conjugation, so the raw integer form is fine.
_CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]])
_CAYLEY_INV = np.array([[0.5, 0.5], [0.5j, -0.5j]])


def halfplane_to_disc(m):
    """Conjugate an SL(2, R) half-plane matrix into disc-preserving form."""
    m = np.asarray(m, dtype=complex)
    out = _CAYLEY @ m @ _CAYLEY_INV
    return MoebiusMap.from_matrix(out, model=2)


def atomic_write_bytes(path, data):
    """Write `data` to a new temp file beside `path`, then rename it into place.

    The temp file has a random name and is created exclusively, so no other
    file is touched, with the mode `open()` gives (0o666 less the umask).
    A write or rename that raises removes the temp file.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_group(presentation, path):
    """Write a presentation in its native chart (disc for 2, halfspace for 3)."""
    gens = []
    for g in presentation.generators:
        gens.append([[v.real, v.imag] for v in (g.a, g.b, g.c, g.d)])
    doc = {
        "name": presentation.name,
        "model_dimension": presentation.model,
        "chart": "disc" if presentation.model == 2 else "halfspace",
        "generators": gens,
    }
    atomic_write_bytes(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def load_group(path):
    """Read and validate a group-definition file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read group file {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"group file {path} is not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"group file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise UsageError("group file must hold one JSON object")

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise UsageError(f"group file {path}: name must be a string, got {name!r}")
    model = doc.get("model_dimension")
    chart = doc.get("chart")
    gens_raw = doc.get("generators")
    if model not in (2, 3):
        raise UsageError(f"model_dimension must be 2 or 3, got {model!r}")
    if chart not in ("disc", "halfspace"):
        raise UsageError(f"chart must be 'disc' or 'halfspace', got {chart!r}")
    if model == 3 and chart == "disc":
        raise UsageError("spatial groups (model 3) are stored in the halfspace chart")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise UsageError("generators must be a nonempty list")

    mats = []
    for idx, entry in enumerate(gens_raw):
        try:
            arr = np.asarray(entry, dtype=float)
        except (TypeError, ValueError) as err:
            raise UsageError(f"generator {idx} must be four [re, im] pairs of numbers") from err
        if arr.shape != (4, 2):
            raise UsageError(f"generator {idx} must be four [re, im] pairs, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise UsageError(f"generator {idx} has a non-finite entry")
        vals = arr[:, 0] + 1j * arr[:, 1]
        det = vals[0] * vals[3] - vals[1] * vals[2]
        if abs(det - 1.0) > 1e-6:
            raise UsageError(
                f"generator {idx} determinant {det:.8g} is not 1 within 1e-6"
            )
        mats.append(vals.reshape(2, 2))

    if model == 2 and chart == "halfspace":
        gens = [halfplane_to_disc(m) for m in mats]
    else:
        gens = [MoebiusMap.from_matrix(m, model=model) for m in mats]
    return GroupPresentation(gens, model=model, name=name)
