"""helmstab benchmark: run one workload for a time budget and report metrics.

    python3 benchmarks/run.py --workload campaign_2d --seed 1 --seconds 40 --trace 0

Each pass is a fresh process (``worker.py``) that imports the library from
``src/``, sets up the workload, times it and checks its outputs. Passes repeat
until the next one would overrun ``--seconds``; every reported value is the
median over passes. With ``--trace 0`` the result holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics, including the tracing overhead. The last line of
standard output is the JSON result; lines before it record the environment,
the workload's shape and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 170.0   # the whole run must end within 180 s

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchmarkError(Exception):
    """A pass could not be run or did not report; no result is printed."""


def run_pass(args, traced: bool, env: dict, time_left: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--reference", args.reference]
    if traced:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    result["process_s"] = time.monotonic() - spawned
    result["traced"] = traced
    return result


def run_passes(args) -> list:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    budget = min(float(args.seconds), PASS_TIMEOUT_S)
    start = time.monotonic()
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        elapsed = time.monotonic() - start
        passes.append(run_pass(args, traced, env, PASS_TIMEOUT_S - elapsed))
        elapsed = time.monotonic() - start
        complete = not args.trace or len(passes) >= 2
        if complete and elapsed + passes[-1]["process_s"] > budget:
            return passes


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def summarise(args, passes) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    if not args.trace:
        values = {name: median_of(untraced, name) for name, _unit in END_TO_END}
        units = dict(END_TO_END)
    else:
        traced = [p["layers"] | {"wall_s": p["wall_s"]}
                  for p in passes if p["traced"]]
        values = {name: median_of(traced, name)
                  for name, _unit in LAYER_METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median_of(traced, "wall_s")
                                      - median_of(untraced, "wall_s"))
        units = dict(LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: seconds-long inputs for the self-test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="reference outputs for seed 0")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "helmstab" / "__init__.py").is_file():
        print(f"error: no helmstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = summarise(args, passes)
    print("# env " + json.dumps(passes[0]["env"], sort_keys=True))
    print("# workload " + json.dumps(
        {"name": args.workload, "size": args.size, "seed": args.seed,
         "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
         **passes[0]["info"]}, sort_keys=True))
    for i, p in enumerate(passes):
        print(f"# pass {i} " + json.dumps(
            {k: p[k] for k in ("traced", "setup_s", "cpu_s", "wall_s",
                               "peak_rss_mb", "attempted", "failed")}))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          "operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
