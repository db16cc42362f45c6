"""Spans and counters recorded around calls into the library's modules.

The library has no tracing of its own, so the benchmark wraps module
attributes from outside: each wrapper is installed where the calling module
binds the name (``helmstab.forward.assemble`` as well as
``helmstab.cli.assemble``), records one span per call and keeps the spans in
memory. A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import time
import weakref

import numpy as np

# Per-layer metrics in output order: (name, unit).
LAYER_METRICS = (
    ("solver.solve_rhs", "count"),
    ("solver.solve_s", "s"),
    ("solver.normal_derivative_s", "s"),
    ("solver.factorize_calls", "count"),
    ("solver.factorize_s", "s"),
    ("solver.lu_nnz", "count"),
    ("solver.assemble_calls", "count"),
    ("solver.assemble_s", "s"),
    ("solver.assemble_hit_ratio", "ratio"),
    ("forward.forward_map_calls", "count"),
    ("forward.forward_map_self_s", "s"),
    ("forward.gaussian_source_calls", "count"),
    ("forward.gaussian_source_s", "s"),
    ("forward.opnorm_s", "s"),
    ("spectrum.windows_calls", "count"),
    ("spectrum.windows_s", "s"),
    ("spectrum.eigen_calls", "count"),
    ("spectrum.eigen_s", "s"),
    ("derivative.frechet_calls", "count"),
    ("derivative.frechet_self_s", "s"),
    ("derivative.report_self_s", "s"),
    ("stability.estimate_calls", "count"),
    ("stability.estimate_self_s", "s"),
    ("stability.write_records_s", "s"),
    ("cli.load_config_s", "s"),
    ("cli.run_campaign_self_s", "s"),
    ("model.from_gridded_field_s", "s"),
    ("geometry.build_partition_s", "s"),
    ("trace.overhead_s", "s"),
)

# span name -> (module, attribute) pairs that bind the traced function
TRACED_BINDINGS = {
    "solver.assemble": [("forward", "assemble"), ("derivative", "assemble"),
                        ("cli", "assemble")],
    "solver.factorize": [("solver", "splu")],
    "solver.solve_dirichlet": [("forward", "solve_dirichlet"),
                               ("derivative", "solve_dirichlet")],
    "solver.normal_derivative": [("forward", "normal_derivative"),
                                 ("derivative", "normal_derivative")],
    "forward.forward_map": [("stability", "forward_map")],
    "forward.gaussian_source": [("forward", "gaussian_source"),
                                ("derivative", "gaussian_source")],
    "forward.opnorm": [("forward", "weighted_operator_norm"),
                       ("derivative", "weighted_operator_norm")],
    "spectrum.windows": [("spectrum", "windows_covering"),
                         ("forward", "windows_covering")],
    "spectrum.eigen": [("spectrum", "discrete_dirichlet_eigenvalues")],
    "derivative.frechet": [("derivative", "frechet_directional")],
    "derivative.report": [("derivative", "frechet_norm_bounds_report")],
    "stability.estimate": [("stability", "estimate_constant")],
    "stability.write_records": [("stability", "write_records_csv")],
    "cli.load_config": [("cli", "load_config")],
    "cli.run_campaign": [("cli", "run_campaign")],
    "model.from_gridded_field": [("model", "from_gridded_field")],
    "geometry.build_partition": [("cli", "build_partition"),
                                 ("geometry", "build_partition")],
}


def _rhs_columns(args, kwargs) -> int:
    g = kwargs["g"] if "g" in kwargs else args[1]
    return 1 if np.ndim(g) < 2 else int(np.shape(g)[1])


class LuCounter:
    """Counts factorizations and their fill; cheap enough for untraced passes,
    where it supplies the LU nnz recorded with every result."""

    def __init__(self, solver):
        self.calls = 0
        self.nnz = 0
        splu = solver.splu

        @functools.wraps(splu)
        def counted(*args, **kwargs):
            lu = splu(*args, **kwargs)
            self.calls += 1
            self.nnz += int(lu.nnz)
            return lu

        solver.splu = counted


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self._spans = []          # [name, parent index, start, end]
        self._stack = []
        self.counters = {"solve_rhs": 0, "assemble_hits": 0}
        self._systems = weakref.WeakSet()

    def _wrap(self, name, fn):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            self._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name, args, kwargs, result):
        if name == "solver.solve_dirichlet":
            self.counters["solve_rhs"] += _rhs_columns(args, kwargs)
        elif name == "solver.assemble":
            if result in self._systems:
                self.counters["assemble_hits"] += 1
            else:
                self._systems.add(result)

    def install(self, modules: dict):
        """Wrap every binding in TRACED_BINDINGS; ``modules`` maps short names
        to imported modules. A missing binding raises, so a renamed library
        function cannot silently drop out of the trace."""
        for name, bindings in TRACED_BINDINGS.items():
            for mod_name, attr in bindings:
                module = modules[mod_name]
                if not hasattr(module, attr):
                    raise AttributeError(
                        f"{module.__name__}.{attr} is gone; update "
                        f"TRACED_BINDINGS for span {name!r}")
                setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def summary(self) -> dict:
        """Per span name: call count, total seconds and self seconds."""
        child_time = [0.0] * len(self._spans)
        for name, parent, start, end in self._spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in TRACED_BINDINGS}
        for i, (name, _parent, start, end) in enumerate(self._spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def layer_metrics(self, lu_nnz: int) -> dict:
        """Every LAYER_METRICS value except the trace overhead, which needs an
        untraced pass to compare against."""
        s = self.summary()
        c = self.counters
        asm_calls = s["solver.assemble"]["calls"]
        return {
            "solver.solve_rhs": c["solve_rhs"],
            "solver.solve_s": s["solver.solve_dirichlet"]["self_s"],
            "solver.normal_derivative_s": s["solver.normal_derivative"]["total_s"],
            "solver.factorize_calls": s["solver.factorize"]["calls"],
            "solver.factorize_s": s["solver.factorize"]["total_s"],
            "solver.lu_nnz": lu_nnz,
            "solver.assemble_calls": asm_calls,
            "solver.assemble_s": s["solver.assemble"]["total_s"],
            "solver.assemble_hit_ratio":
                c["assemble_hits"] / asm_calls if asm_calls else 0.0,
            "forward.forward_map_calls": s["forward.forward_map"]["calls"],
            "forward.forward_map_self_s": s["forward.forward_map"]["self_s"],
            "forward.gaussian_source_calls": s["forward.gaussian_source"]["calls"],
            "forward.gaussian_source_s": s["forward.gaussian_source"]["total_s"],
            "forward.opnorm_s": s["forward.opnorm"]["total_s"],
            "spectrum.windows_calls": s["spectrum.windows"]["calls"],
            "spectrum.windows_s": s["spectrum.windows"]["total_s"],
            "spectrum.eigen_calls": s["spectrum.eigen"]["calls"],
            "spectrum.eigen_s": s["spectrum.eigen"]["total_s"],
            "derivative.frechet_calls": s["derivative.frechet"]["calls"],
            "derivative.frechet_self_s": s["derivative.frechet"]["self_s"],
            "derivative.report_self_s": s["derivative.report"]["self_s"],
            "stability.estimate_calls": s["stability.estimate"]["calls"],
            "stability.estimate_self_s": s["stability.estimate"]["self_s"],
            "stability.write_records_s": s["stability.write_records"]["total_s"],
            "cli.load_config_s": s["cli.load_config"]["total_s"],
            "cli.run_campaign_self_s": s["cli.run_campaign"]["self_s"],
            "model.from_gridded_field_s": s["model.from_gridded_field"]["total_s"],
            "geometry.build_partition_s": s["geometry.build_partition"]["total_s"],
        }
