"""Self-test of the benchmark, at smoke size (about half a minute):

    python3 benchmarks/selftest.py

* every workload, traced and untraced, at the reference seed and at another
  seed, prints a result whose metric names and units equal BENCHMARK.json's
  and reports no failed operation;
* a reference with one value off by 1e-6 relative is reported as a failure;
* in a directory that holds only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: Path, workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke", *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def corrupt_first_value(node):
    """Scale the first float found in a nested reference entry by 1 + 1e-6."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            node[key] = value * (1.0 + 1e-6)
            return True
        if isinstance(value, (dict, list)) and corrupt_first_value(value):
            return True
    return False


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures = []

    def check(ok, label):
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    try:
        for workload in workloads:
            for seed, trace in ((0, 0), (0, 1), (1, 0)):
                code, res = bench(ROOT, workload, seed, trace)
                label = f"{workload} seed={seed} trace={trace}"
                check(code == 0 and res is not None and set(res) == RESULT_KEYS,
                      f"{label}: exit 0 and a result line")
                if res is None:
                    continue
                units = {k: v["unit"] for k, v in res["metrics"].items()}
                check(units == expected[trace],
                      f"{label}: metric names and units match BENCHMARK.json")
                check(res["correct"] and res["failed"] == 0
                      and res["attempted"] >= 1, f"{label}: no failed operation")

            reference = json.loads((HERE / "reference.json").read_text())
            corrupt_first_value(reference[workload]["smoke"])
            bad_ref = scratch / f"reference_{workload}.json"
            bad_ref.write_text(json.dumps(reference))
            code, res = bench(ROOT, workload, 0, 0, "--reference", str(bad_ref))
            check(code == 0 and res is not None and not res["correct"]
                  and res["failed"] >= 1,
                  f"{workload}: a corrupted reference value is a failure")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, res = bench(bare, workloads[0], 0, 0)
        check(code != 0 and res is None,
              "without the library sources: non-zero exit and no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
