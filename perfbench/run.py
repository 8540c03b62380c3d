"""Benchmark of the dgcrn library: one workload per process.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The library is imported from ``src/``; its
inputs are generated in-process from ``--seed``. The last line of standard
output is the result, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The line before it, ``{"info": ...}``, records
the environment, shapes, seed, tail percentile and any failed checks.
``--smoke`` runs every workload at toy shapes, traced and untraced, each in
its own process, and checks the result schema against BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

# BLAS reads its thread caps once, when numpy loads: pin them first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("train-small", "train-metrla", "infer-metrla", "fit-quickstart")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny shapes (used by --smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy shapes and check the results")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


def schema_problems(result: dict, declared: list) -> list:
    """Differences between a result line and the metrics BENCHMARK.json declares."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys %r" % sorted(result)]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("correct=%r failed=%r" % (result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted=%r" % (result["attempted"],))
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append("metrics/units differ: %r" % (set(got.items()) ^ set(want.items()),))
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append("%s value %r" % (k, v.get("value")))
    return problems


def smoke() -> int:
    """Every workload at toy shapes, untraced and traced, one process each."""
    from workloads import forward_calls

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    literal = {"model.cell_step": 24, "generator.generate": 24, "conv.dual_dgconv": 72,
               "conv.dgconv_forward@gate": 144, "conv.dgconv_forward@hyper": 48,
               "model.readout": 12, "tensor.matmul": 1356}
    if forward_calls(12, 12) != literal:
        failures.append("forward_calls(12, 12) = %r" % (forward_calls(12, 12),))
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])]
            else:
                problems = schema_problems(json.loads(lines[-1]), spec[key])
                if problems:
                    problems.append(lines[-2] if len(lines) > 1 else "")
            status = "ok" if not problems else "FAIL"
            print("%-15s trace=%d %s" % (w["name"], trace, status), flush=True)
            failures += ["%s trace=%d: %s" % (w["name"], trace, p) for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    try:
        from workloads import run_workload
    except ImportError as e:
        print("error: cannot import the dgcrn library from %s: %s" % (ROOT / "src", e),
              file=sys.stderr)
        return 2
    info, result = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.toy)
    for f in info["failures"]:
        print("check failed: %s" % f, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
