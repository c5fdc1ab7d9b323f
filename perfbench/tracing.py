"""Spans around the public functions of kleindim, recorded from outside.

A Tracer wraps each target function at every module attribute that binds
it (``enumerate_orbit`` is bound in ``group``, ``verify``, ``poincare`` and
``cli``), records one span per call, and restores the original bindings
when the traced block ends.  Spans stay in memory; ``layer_metrics`` turns
the spans of one operation into per-layer self times and counts.

Self time of a span is its duration minus the time covered by its direct
child spans.  The harness opens one root span per operation, so the self
times of all spans of an operation sum to that operation's traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "kleindim"
ROOT = "bench.op"

# CLI subcommand handlers, traced as cli.<subcommand>.
CLI_COMMANDS = ("fixtures", "orbit", "poincare", "exponent", "limitset", "boxdim")


def _orbit_points(args, kwargs, result):
    orbit = args[0] if args else kwargs["orbit"]
    return {"points": int(orbit.points.shape[0])}


def _level_counts(word_lengths, max_word_length, k):
    """Kept elements and candidate words per level 1..max_word_length.

    Level 1 tries all 2k letters; level L tries 2k-1 extensions of every
    element kept at level L-1 (the cancelling letter is skipped).
    """
    kept = np.bincount(word_lengths, minlength=max_word_length + 1)[: max_word_length + 1]
    candidates = np.zeros(max_word_length + 1, dtype=np.int64)
    candidates[1] = 2 * k
    candidates[2:] = (2 * k - 1) * kept[1:-1]
    return kept[1:], candidates[1:]


def _enumeration_counts(args, kwargs, result):
    k = len(result.presentation.generators)
    kept, candidates = _level_counts(result.word_lengths, result.max_word_length, k)
    return {
        "elements": len(result),
        "kept": int(kept.sum()),
        "candidates": int(candidates.sum()),
    }


def _sample_counts(args, kwargs, result):
    orbit = args[0] if args else kwargs["orbit"]
    return {"sampled": len(result), "images": 2 * len(orbit)}


def _cell_counts(args, kwargs, result):
    return {"cells": int(result.cell_count)}


def _mesh_counts(args, kwargs, result):
    orbit = args[0] if args else kwargs["orbit"]
    k_max = kwargs.get("k_max", args[3] if len(args) > 3 else 12)
    mesh_count = kwargs.get("mesh_count", args[4] if len(args) > 4 else 32)
    shelled = np.count_nonzero((orbit.shells >= 1) & (orbit.shells <= k_max))
    return {"mesh_points": int(shelled) * int(mesh_count)}


# module -> function -> count extractor (None: time only)
TARGETS = {
    "group": {
        "enumerate_orbit": _enumeration_counts,
        "find_loxodromic": None,
        "choose_basepoint": None,
        "packing_radius": None,
        "check_packing_disjoint": _orbit_points,
    },
    "limitset": {
        "sample_limit_set": _sample_counts,
        "box_dimension_estimate": None,
        "neighborhood_volume": _cell_counts,
        "ball_containment_check": _mesh_counts,
        "euclidean_balls": None,
    },
    "poincare": {"exponent_estimate": None, "truncated_series": None},
    "verify": {"verify_inequality": None, "series_chain_report": None},
    "groupio": {"load_group": None, "save_group": None},
    "cli": {f"_cmd_{name}": None for name in CLI_COMMANDS},
}


def span_name(module, func):
    if module == "cli":
        return "cli." + func[len("_cmd_"):]
    return f"{module}.{func}"


@dataclass
class Span:
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    args: tuple = ()


class Tracer:
    """In-memory span recorder with a call stack per (single) thread."""

    def __init__(self, keep_args=()):
        self.spans = []
        self._stack = []
        self._op_id = -1
        self._keep_args = set(keep_args)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._op_id, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self):
        """Root span of one benchmark operation."""
        self._op_id += 1
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            if count is not None:
                span.counts = count(args, kwargs, result)
            if name in self._keep_args:
                span.args = (args, kwargs)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of every target while the block runs."""
        patched = []
        try:
            for module, funcs in TARGETS.items():
                mod = sys.modules[f"{PACKAGE}.{module}"]
                for func, count in funcs.items():
                    original = getattr(mod, func)
                    wrapper = self.wrap(span_name(module, func), original, count)
                    for holder in package_modules():
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, attr, wrapper)
                                patched.append((holder, attr, original))
            yield
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)


def package_modules():
    """The loaded modules of kleindim, the package itself included."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def self_times(spans):
    """Self time per span: duration minus direct children's durations.

    ``spans`` is the tracer's whole list, since parents are indices into it.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans, selfs):
    """Per-layer metrics of the spans of one operation and their self times.

    Every traced function yields ``<name>.calls`` and ``<name>.self_s``;
    count extractors add sums of their counts, and a few ratios are derived
    where a layer can waste work.
    """
    out = {}
    for span, self_s in zip(spans, selfs):
        out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + self_s
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
    enum = "group.enumerate_orbit"
    if out.get(f"{enum}.candidates"):
        out[f"{enum}.kept_ratio"] = out.pop(f"{enum}.kept") / out[f"{enum}.candidates"]
        out[f"{enum}.elements_per_s"] = out[f"{enum}.elements"] / out[f"{enum}.self_s"]
    sample = "limitset.sample_limit_set"
    if out.get(f"{sample}.images"):
        out[f"{sample}.kept_ratio"] = out.pop(f"{sample}.sampled") / out.pop(f"{sample}.images")
    return out
