"""The benchmark's self-test at smoke size: a library change that breaks a
workload, or its agreement with ``benchmarks/reference.json``, fails here and
not only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
