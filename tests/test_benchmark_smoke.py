"""The benchmark's smoke run, as a tier-1 test.

`perfbench/run.py --smoke` runs every workload at toy shapes, traced and
untraced. A traced run looks up library functions by name and asserts how
often each is called per forward, so renaming one of them or changing a
per-forward call count fails here rather than only inside the benchmark.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
