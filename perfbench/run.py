"""kleindim benchmark harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each run starts fresh single-threaded
interpreters with ``src`` on PYTHONPATH (nothing is installed): a few
set-up-only processes, then one worker that runs the workload's operations
(see worker.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names, units and the layers they belong to are in BENCHMARK.json
and perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".bench_out"

SETUP_PROCESSES = 2      # plus the worker's own set-up
SETUP_TIMEOUT_S = 15
WORKER_TIMEOUT_S = 140


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--outdir", str(OUTDIR), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(args, spec):
    setups = [_worker(args, ["--setup-only"], SETUP_TIMEOUT_S) for _ in range(SETUP_PROCESSES)]
    out = _worker(args, ["--seconds", str(args.seconds), "--trace", "0"], WORKER_TIMEOUT_S)
    setups.append(out)
    measured = {
        "setup_s": statistics.median(s["setup_cal_s"] for s in setups),
        "op_s": statistics.median(out["op_cal_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    print(f"workload {args.workload} seed {args.seed}: {len(out['op_s'])} operations, "
          f"{len(setups)} set-ups")
    print(f"  wall medians: operation {statistics.median(out['op_s']):.4f} s, set-up "
          f"{statistics.median(s['setup_s'] for s in setups):.4f} s, reference kernel "
          f"{statistics.median(out['kernel_s']):.4f} s")
    for name, value in sorted(out["stages"].items()):
        print(f"  stage {name:<12} {value:.4f} s (median)")
    for name, value in sorted(out["values"].items()):
        print(f"  value {name:<14} {value:.6g}")
    return out, {m["name"]: _metric(measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def per_layer(args, spec):
    out = _worker(args, ["--seconds", str(args.seconds), "--trace", "1"], WORKER_TIMEOUT_S)
    OUTDIR.mkdir(exist_ok=True)
    spans_path = OUTDIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(out.pop("spans")))
    untraced = statistics.median(out["untraced_op_s"])
    traced = statistics.median(out["traced_op_s"])
    layers = dict(out["layers"])
    layers.update({f"stage.{k}": v for k, v in out["stages"].items()})
    for value, name in (("delta_ref_err", "verify.delta_ref_err"),
                        ("dim_ref_err", "verify.dim_ref_err"),
                        ("bytes_written", "cli.bytes_written")):
        if value in out["values"]:
            layers[name] = out["values"][value]
    layers.update({"trace.op_s": traced, "trace.overhead_s": traced - untraced})
    print(f"workload {args.workload} seed {args.seed}: {len(out['traced_op_s'])} traced "
          f"operations, untraced {untraced:.4f} s, traced {traced:.4f} s; spans in {spans_path}")
    metrics = {}
    for m in spec["per_layer"]:
        value = layers.get(m["name"], 0.0)
        metrics[m["name"]] = _metric(value, m["unit"])
        if m["name"] in layers:
            print(f"  {m['name']:<46} {value:.6g} {m['unit']}")
    return out, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "kleindim" / "__init__.py").is_file():
        sys.stderr.write(f"kleindim sources not found under {SRC}; run from a full checkout\n")
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; choices: {', '.join(names)}\n")
        return 2

    out, metrics = (per_layer if args.trace else end_to_end)(args, spec)
    for failure in out["failures"]:
        print(f"  FAILED {failure}")
    ratio = out["failed"] / out["attempted"]
    print(f"  failed_ratio {ratio:.4f} ({out['failed']}/{out['attempted']})")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
