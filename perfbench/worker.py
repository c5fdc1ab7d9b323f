"""One benchmark process: set up one workload, run its operations, report JSON.

Run by run.py in a fresh single-threaded interpreter with ``src`` on
PYTHONPATH.  The last line of standard output is a JSON object.

  --setup-only   import kleindim, build the inputs, report the set-up time
                 and its calibrated value (see calibrate.py), exit
  --trace 0      run operations until --seconds have passed (at least two),
                 timing the reference kernel of calibrate.py between them
  --trace 1      alternate untraced and traced operations, then one
                 tracemalloc pass over the largest enumeration
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402  (imports kleindim)

MIN_OPS = 2


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--outdir", required=True)
    return p.parse_args(argv)


def _run_once(workload, presentation, outdir):
    """One operation; an exception counts as a failed operation."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=outdir)
    t0 = time.perf_counter()
    try:
        result = workload.run(presentation, workdir)
    except Exception:  # a failed operation is measured, not fatal
        result = workloads.Result()
        result.check("exception", False, traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, result


def _summary(results):
    failures = [f"{c.name}: {c.detail}" for r in results for c in r.failed]
    return {
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failed),
        "failures": failures[:20],
    }


def _medians(dicts):
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def measure(workload, inputs, seconds, outdir, kernel):
    """Operations until `seconds` have passed, each between two kernel passes.

    An operation's calibrated time uses the mean of the kernel passes just
    before and just after it.
    """
    kernels = [kernel()]
    walls, results = [], []
    start = time.perf_counter()
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        wall, result = _run_once(workload, inputs[len(walls) % len(inputs)], outdir)
        walls.append(wall)
        results.append(result)
        kernels.append(kernel())
    return {
        "op_s": walls,
        "op_cal_s": [calibrate.calibrated(w, 0.5 * (a + b))
                     for w, a, b in zip(walls, kernels, kernels[1:])],
        "kernel_s": kernels,
        "stages": _medians([r.stages for r in results]),
        "values": _medians([r.values for r in results]),
        **_summary(results),
    }


def measure_traced(workload, inputs, seconds, outdir):
    import tracing

    tracer = tracing.Tracer(keep_args=("group.enumerate_orbit",))
    untraced, traced, layers, results = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        presentation = inputs[len(traced) % len(inputs)]
        wall, result = _run_once(workload, presentation, outdir)
        untraced.append(wall)
        results.append(result)
        first = len(tracer.spans)
        with tracer.installed():
            with tracer.operation():
                wall, result = _run_once(workload, presentation, outdir)
        traced.append(wall)
        results.append(result)
        spans = tracer.spans[first:]
        selfs = tracing.self_times(tracer.spans)[first:]
        layers.append(tracing.layer_metrics(spans, selfs))
        root_s = spans[0].end - spans[0].start
        self_sum = sum(selfs)
        result.check("self_time_sum", abs(self_sum - root_s) <= 1e-6 * max(1.0, root_s),
                     f"{self_sum} != {root_s}")
    layer = _medians(layers)
    layer.update(_bytes_per_element(tracer))
    return {
        "untraced_op_s": untraced,
        "traced_op_s": traced,
        "layers": layer,
        "stages": _medians([r.stages for r in results[0::2]]),
        "values": _medians([r.values for r in results]),
        "spans": [
            {"name": s.name, "op": s.op_id, "parent": s.parent,
             "start": s.start, "end": s.end, "counts": s.counts}
            for s in tracer.spans
        ],
        **_summary(results),
    }


def _bytes_per_element(tracer):
    """tracemalloc peak of the largest enumeration, rerun untimed."""
    calls = [s for s in tracer.spans if s.name == "group.enumerate_orbit"]
    if not calls:
        return {}
    biggest = max(calls, key=lambda s: s.counts["elements"])
    args, kwargs = biggest.args
    from kleindim import group

    tracemalloc.start()
    try:
        orbit = group.enumerate_orbit(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"group.enumerate_orbit.bytes_per_element": peak / len(orbit)}


def main(argv=None):
    args = _parse(argv)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_s = time.perf_counter() - _T0
    kernel = calibrate.Kernel()
    # the first pass in a fresh process, so every set-up is scaled alike
    out = {"setup_s": setup_s, "setup_cal_s": calibrate.calibrated(setup_s, kernel())}
    if not args.setup_only:
        Path(args.outdir).mkdir(parents=True, exist_ok=True)
        if args.trace:
            out.update(measure_traced(workload, inputs, args.seconds, args.outdir))
        else:
            out.update(measure(workload, inputs, args.seconds, args.outdir, kernel))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
