"""One benchmark pass in a fresh process.

Sets up one workload, times it, checks its outputs and prints one JSON line.
``run.py`` starts this script once per pass; run it by hand only to refresh
the stored reference outputs:

    PYTHONPATH=src python3 benchmarks/worker.py --workload campaign_2d \\
        --size full --seed 0 --record-reference benchmarks/reference.json
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

# BLAS and OpenMP pools read these once, when numpy is first imported (by
# ``workloads`` below); one thread halves CPU time on these problems and costs
# no wall time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(str(lib)),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's own .git, without looking above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": _blas(), "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="record per-layer spans")
    parser.add_argument("--reference",
                        default=str(Path(__file__).with_name("reference.json")))
    parser.add_argument("--record-reference", metavar="PATH",
                        help="store this pass's outputs as the reference")
    args = parser.parse_args(argv)

    import workloads
    from spans import LuCounter, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.record_reference and args.seed != workloads.REFERENCE_SEED:
        parser.error(f"references are stored for seed {workloads.REFERENCE_SEED}")

    ref = None
    if args.seed == workloads.REFERENCE_SEED and not args.record_reference:
        with open(args.reference) as fh:
            ref = json.load(fh).get(args.workload, {}).get(args.size)
        if ref is None:
            print(f"error: {args.reference} has no {args.workload}/{args.size}",
                  file=sys.stderr)
            return 2

    lu = LuCounter(workloads.solver)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(workloads.MODULES)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = workloads.make(args.workload, args.size, args.seed, workdir)
        ready = time.monotonic()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            wl.run()
            error = None
        except Exception:  # a raising workload is a measured failure
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0

        failed = wl.n_ops
        if error is not None:
            print(error, file=sys.stderr)
        else:
            try:
                out = wl.outputs()
            except (OSError, ValueError, KeyError) as exc:
                print(f"unreadable outputs: {exc}", file=sys.stderr)
            else:
                failed = wl.failed_ops(out, ref)
                if args.record_reference and failed == 0:
                    _store_reference(args.record_reference, args.workload,
                                     args.size, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "ready_monotonic": ready, "cpu_s": cpu, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": wl.n_ops, "failed": failed,
        "info": dict(wl.info, lu_factorizations=lu.calls, lu_nnz=lu.nnz),
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(lu.nnz)
    print(json.dumps(result))
    return 0


def _store_reference(path, workload, size, outputs):
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref.setdefault(workload, {})[size] = outputs
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
