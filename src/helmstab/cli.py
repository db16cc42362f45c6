"""Experiment runner: multi-scale, multi-frequency stability campaigns.

A campaign is described by a single YAML config file (schema below) and runs
one cell per (frequency, partition scale, acquisition mode): both models are
projected onto the scale's partition, the forward data are simulated,
and a stability record is written. Constants are fitted per frequency/mode
afterwards and every record gains its analytic bound columns.

Config schema::

    grid:
      extents: [1.0, 1.0]        # meters, 2 or 3 axes
      cells: [64, 64]
    model:
      bounds: [0.25, 1.0]        # B1, B2 for c^-2 (s^2/m^2)
      c1: {generator: two_layer, v_top: 1000, v_bottom: 2000, interface_depth: 0.5}
      c2: {generator: linear_depth, v_top: 1000, v_bottom: 2000}
      # or {file: model.hsmd} / {text_file: m.txt, quantity: wavespeed}
    frequencies_hz: [0.45]
    scales:
      blocks: [[2, 2], [4, 4], [8, 8]]   # strictly increasing N
    acquisition:
      modes: [full, top]
      source_spacing: 0.25       # meters, scalar or per axis
      receiver_spacing: 0.125
      sigma: 0.08
      absorbing: false           # absorbing sides in top mode; forward only
    fit:
      first_scales: 2            # optional; default ceil(n_scales / 2)
    output:
      directory: out

Exit codes: 0 success, 1 config error, 2 partial failure, 3 total failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import forward as fwd
from . import model as mdl
from . import spectrum, stability
from .errors import HelmstabError
from .geometry import BoxGrid, build_grid, build_partition
from .solver import assemble  # unused here; benchmarks/spans.py traces this binding
from .solver import cache_info

__all__ = [
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "run_campaign",
    "emit_plots",
    "main",
]

log = logging.getLogger("helmstab")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_TOTAL = 3

EDGE_MARGIN_WARN = 0.05   # warn when omega^2 sits within 5% of a window edge

# what a missing, truncated or mismatched model file raises on load
_MODEL_LOAD_ERRORS = (HelmstabError, ValueError, OSError)

GENERATORS = ("two_layer", "linear_depth", "constant")


@dataclass
class ModelSpec:
    kind: str                 # generator name, "file" or "text_file"
    params: dict

    def load(self, grid: BoxGrid, base_dir=".") -> np.ndarray:
        """Cell field of squared slowness for this spec."""
        if self.kind == "two_layer":
            return mdl.two_layer_field(grid, self.params["v_top"],
                                       self.params["v_bottom"],
                                       self.params["interface_depth"])
        if self.kind == "linear_depth":
            return mdl.linear_depth_field(grid, self.params["v_top"],
                                          self.params["v_bottom"])
        if self.kind == "constant":
            c = float(self.params["v"])
            return np.full(grid.n_cells,
                           float(mdl.wavespeed_to_squared_slowness(c)))
        if self.kind == "file":
            path = os.path.join(base_dir, self.params["file"])
            field_, extents, cells = mdl.read_field(path)
            if tuple(cells) != grid.cells_per_axis or \
                    tuple(extents) != grid.extents:
                raise ValueError(
                    f"{path}: grid mismatch (file {cells}/{extents}, "
                    f"config {grid.cells_per_axis}/{grid.extents})"
                )
            return field_
        if self.kind == "text_file":
            path = os.path.join(base_dir, self.params["text_file"])
            is_speed = self.params.get("quantity", "squared_slowness") == "wavespeed"
            field_ = mdl.read_text_field(path, is_wavespeed=is_speed)
            if field_.shape != (grid.n_cells,):
                raise ValueError(f"{path}: expected {grid.n_cells} values")
            return field_
        raise ValueError(f"unknown model spec kind {self.kind!r}")


@dataclass
class ExperimentConfig:
    extents: tuple
    cells: tuple
    bounds: tuple
    c1: ModelSpec
    c2: ModelSpec
    frequencies_hz: list
    scales: list              # list of blocks_per_axis tuples
    modes: list
    source_spacing: object
    receiver_spacing: object
    sigma: float
    absorbing: bool = False
    first_scales: int | None = None
    out_dir: str = "out"
    override_window_check: bool = False
    base_dir: str = "."
    failures: list = field(default_factory=list)

    def grid(self) -> BoxGrid:
        return build_grid(self.extents, self.cells)


def _require(section: dict, key: str, errors: list, where: str):
    if key not in section:
        errors.append(f"{where}: missing required field '{key}'")
        return None
    return section[key]


def _model_spec(raw, errors, where) -> ModelSpec | None:
    if not isinstance(raw, dict):
        errors.append(f"{where}: expected a mapping")
        return None
    if "file" in raw:
        return ModelSpec("file", dict(raw))
    if "text_file" in raw:
        return ModelSpec("text_file", dict(raw))
    gen = raw.get("generator")
    if gen not in GENERATORS:
        errors.append(
            f"{where}: 'generator' must be one of {GENERATORS} "
            f"(or use 'file'/'text_file'), got {gen!r}"
        )
        return None
    needed = {
        "two_layer": ("v_top", "v_bottom", "interface_depth"),
        "linear_depth": ("v_top", "v_bottom"),
        "constant": ("v",),
    }[gen]
    for name in needed:
        if name not in raw:
            errors.append(f"{where}: generator '{gen}' needs field '{name}'")
            return None
    return ModelSpec(gen, dict(raw))


def load_config(path):
    """Parse and validate a config file.

    Returns ``(config_or_None, errors, warnings)``; parse failures report the
    line/column from the YAML parser.
    """
    errors: list[str] = []
    warnings_: list[str] = []
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        return None, [f"{path}: no such file"], []
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        loc = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "?"
        return None, [f"{path}: parse error at {loc}: {exc.problem}"], []
    except yaml.YAMLError as exc:
        return None, [f"{path}: parse error: {exc}"], []
    if not isinstance(raw, dict):
        return None, [f"{path}: top level must be a mapping"], []

    grid_sec = raw.get("grid", {})
    extents = _require(grid_sec, "extents", errors, "grid")
    cells = _require(grid_sec, "cells", errors, "grid")
    model_sec = raw.get("model", {})
    bounds = _require(model_sec, "bounds", errors, "model")
    c1_raw = _require(model_sec, "c1", errors, "model")
    c2_raw = _require(model_sec, "c2", errors, "model")
    freqs = raw.get("frequencies_hz")
    if freqs is None:
        errors.append("frequencies_hz: missing required field")
    scales_sec = raw.get("scales", {})
    blocks = _require(scales_sec, "blocks", errors, "scales")
    acq_sec = raw.get("acquisition", {})
    for fld in ("source_spacing", "receiver_spacing", "sigma"):
        _require(acq_sec, fld, errors, "acquisition")

    if errors:
        return None, errors, warnings_

    c1 = _model_spec(c1_raw, errors, "model.c1")
    c2 = _model_spec(c2_raw, errors, "model.c2")

    try:
        grid = build_grid(extents, cells)
    except (TypeError, ValueError) as exc:
        errors.append(f"grid: {exc}")
        grid = None

    try:
        b1, b2 = float(bounds[0]), float(bounds[1])
        if not (0 < b1 <= b2):
            errors.append(f"model.bounds: need 0 < B1 <= B2, got {bounds}")
    except (TypeError, ValueError, IndexError):
        errors.append(f"model.bounds: expected [B1, B2], got {bounds!r}")
        b1 = b2 = None

    freq_list = []
    if not isinstance(freqs, (list, tuple)) or not freqs:
        errors.append("frequencies_hz: expected a non-empty list")
    else:
        for f in freqs:
            try:
                f = float(f)
            except (TypeError, ValueError):
                errors.append(f"frequencies_hz: non-numeric entry {f!r}")
                continue
            if f <= 0:
                errors.append(f"frequencies_hz: frequencies must be positive, got {f}")
            freq_list.append(f)

    scale_list = []
    if not isinstance(blocks, (list, tuple)) or not blocks:
        errors.append("scales.blocks: expected a non-empty list of block counts")
    else:
        for entry in blocks:
            try:
                scale_list.append(tuple(int(b) for b in entry))
            except (TypeError, ValueError):
                errors.append(f"scales.blocks: bad entry {entry!r}")
        ns = [int(np.prod(s)) for s in scale_list]
        if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
            errors.append(
                f"scales.blocks: subdomain counts must be strictly increasing, got {ns}"
            )
        if grid is not None:
            for s in scale_list:
                if len(s) != grid.dim:
                    errors.append(f"scales.blocks: {s} has wrong dimension")

    modes = acq_sec.get("modes", ["full"])
    if isinstance(modes, str):
        modes = [modes]
    for m in modes:
        if m not in (fwd.MODE_FULL, fwd.MODE_TOP):
            errors.append(f"acquisition.modes: unknown mode {m!r}")

    out_sec = raw.get("output", {})
    run_sec = raw.get("run", {})
    fit_sec = raw.get("fit", {})

    if errors or grid is None or c1 is None or c2 is None:
        return None, errors, warnings_

    cfg = ExperimentConfig(
        extents=grid.extents,
        cells=grid.cells_per_axis,
        bounds=(b1, b2),
        c1=c1,
        c2=c2,
        frequencies_hz=freq_list,
        scales=scale_list,
        modes=list(modes),
        source_spacing=acq_sec["source_spacing"],
        receiver_spacing=acq_sec["receiver_spacing"],
        sigma=float(acq_sec["sigma"]),
        absorbing=bool(acq_sec.get("absorbing", False)),
        first_scales=fit_sec.get("first_scales"),
        out_dir=out_sec.get("directory", "out"),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )

    # the run: block has no settings left; older configs still carry some
    for key in sorted(run_sec):
        warnings_.append(f"run.{key} is not a setting of this version; ignored")

    # window pre-check per frequency
    for f in freq_list:
        omega2 = (2.0 * np.pi * f) ** 2
        windows = spectrum.windows_covering(grid.extents, b1, b2, omega2)
        safety = spectrum.frequency_safety(omega2, windows)
        if not safety.inside:
            warnings_.append(
                f"{f} Hz (omega^2={omega2:.6g}) lies outside every admissible "
                f"window for bounds [{b1:g}, {b2:g}]; unique solvability is "
                f"not guaranteed for coefficients within these bounds "
                f"(nearest window {safety.nearest_window})"
            )
        elif safety.relative_edge_margin() < EDGE_MARGIN_WARN:
            warnings_.append(
                f"{f} Hz sits within {EDGE_MARGIN_WARN:.0%} of an admissible "
                f"window edge (window {safety.window})"
            )
    return cfg, errors, warnings_


def validate_config(path) -> int:
    """Print a validation report; exit status 0 (ok) or 1 (errors)."""
    cfg, errors, warnings_ = load_config(path)
    for e in errors:
        print(f"error: {e}")
    for w in warnings_:
        print(f"warning: {w}")
    if cfg is None:
        print("config: INVALID")
        return EXIT_CONFIG
    ns = [int(np.prod(s)) for s in cfg.scales]
    print("config: ok")
    print(f"  grid: {cfg.cells} cells on extents {cfg.extents}")
    print(f"  bounds: B1={cfg.bounds[0]:g}, B2={cfg.bounds[1]:g}")
    print(f"  frequencies: {cfg.frequencies_hz} Hz")
    print(f"  scales (N): {ns}")
    print(f"  modes: {cfg.modes}")
    print(f"  output: {cfg.out_dir}")
    return EXIT_OK


def _atomic_write_records(path, records, comments):
    tmp = f"{path}.tmp"
    stability.write_records_csv(tmp, records, comments=comments)
    os.replace(tmp, path)


def _record_comments(cfg: ExperimentConfig) -> list:
    return [
        f"norm_kind: {fwd.NORM_KIND}",
        "bound_exponents: 3D-nominal (1/5 lower, 4/7 upper)",
        f"r0_exponent_dim: {len(cfg.extents)}",
    ]


def run_campaign(cfg: ExperimentConfig) -> int:
    """Run every (frequency, scale, mode) cell and write the artifacts.

    Records are flushed to ``records.csv`` through an atomic rename after
    every cell, so a crashing cell cannot corrupt earlier rows. A failing
    cell is logged and skipped; the exit code reports partial (2) or total
    (3) failure. A model that cannot be loaded is a config error (1): one
    ``error:`` line on stderr and nothing written.
    """
    if cfg.absorbing:
        print("warning: acquisition.absorbing applies only to 'helmstab "
              "forward'; run ignores it", file=sys.stderr)
    grid = cfg.grid()
    try:
        field1 = cfg.c1.load(grid, cfg.base_dir)
        field2 = cfg.c2.load(grid, cfg.base_dir)
    except _MODEL_LOAD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(cfg.out_dir, exist_ok=True)
    records_path = os.path.join(cfg.out_dir, "records.csv")
    constants_path = os.path.join(cfg.out_dir, "constants.csv")
    comments = _record_comments(cfg)

    acquisitions = {
        mode: fwd.make_acquisition(grid, mode, cfg.source_spacing,
                                   cfg.receiver_spacing, cfg.sigma)
        for mode in cfg.modes
    }

    records: list[stability.StabilityRecord] = []
    per_group: dict = {}
    n_cells = 0
    n_failed = 0

    for f_hz in cfg.frequencies_hz:
        omega2 = (2.0 * np.pi * f_hz) ** 2
        for blocks in cfg.scales:
            partition = build_partition(grid, blocks)
            m1 = mdl.from_gridded_field(field1, partition, cfg.bounds)
            m2 = mdl.from_gridded_field(field2, partition, cfg.bounds)
            for mode in cfg.modes:
                n_cells += 1
                acq = acquisitions[mode]
                t0 = time.perf_counter()
                store0 = cache_info()
                try:
                    rec = stability.estimate_constant(
                        m1, m2, omega2, acq, freq_hz=f_hz,
                        override_window_check=cfg.override_window_check,
                    )
                except (HelmstabError, ValueError) as exc:
                    n_failed += 1
                    cfg.failures.append((f_hz, blocks, mode, str(exc)))
                    log.error("cell f=%gHz N=%d mode=%s failed: %s",
                              f_hz, partition.n_subdomains, mode, exc)
                    continue
                store = cache_info()
                log.info(
                    "cell f=%gHz N=%d mode=%s: %.3fs, c_est %.6g, "
                    "factorization store %d hits, %d misses",
                    f_hz, partition.n_subdomains, mode,
                    time.perf_counter() - t0, rec.c_est,
                    store["hits"] - store0["hits"],
                    store["misses"] - store0["misses"],
                )
                records.append(rec)
                per_group.setdefault((f_hz, mode), []).append(rec)
                _atomic_write_records(records_path, records, comments)

    # fit constants per (frequency, mode) and fill bounds
    constants_rows = []
    for (f_hz, mode), group in sorted(per_group.items()):
        try:
            consts = stability.fit_constants(group, b2=cfg.bounds[1],
                                             first_scale_count=cfg.first_scales)
        except ValueError as exc:
            log.error("constant fit for f=%gHz mode=%s failed: %s",
                      f_hz, mode, exc)
            continue
        constants_rows.append((f_hz, mode, group[0].omega2, consts))
        filled = [stability.fill_bounds(r, consts) for r in group]
        lookup = {id(r): fr for r, fr in zip(group, filled)}
        records = [lookup.get(id(r), r) for r in records]
        per_group[(f_hz, mode)] = filled

    if records:
        _atomic_write_records(records_path, records, comments)
    if constants_rows:
        tmp = f"{constants_path}.tmp"
        with open(tmp, "w", newline="") as fh:
            fh.write("freq_hz,mode,omega2,k,k1,b2,records_used,first_scale_count\n")
            for f_hz, mode, omega2, c in constants_rows:
                fh.write(
                    f"{f_hz:.17g},{mode},{omega2:.17g},{c.k:.17g},{c.k1:.17g},"
                    f"{c.b2:.17g},{c.records_used},{c.first_scale_count}\n"
                )
        os.replace(tmp, constants_path)

    if n_failed == 0:
        return EXIT_OK
    return EXIT_TOTAL if n_failed == n_cells else EXIT_PARTIAL


# -- plot-data emission ----------------------------------------------------------------

def _loglog(x: float) -> float:
    """log(log(x)), nan outside the domain (used for the Fig-style ordinate)."""
    if x is None or not np.isfinite(x) or x <= 1.0:
        return float("nan")
    return float(np.log(np.log(x)))


def emit_plots(records_csv, out_dir) -> list:
    """Write whitespace-separated plot-data files from a records CSV.

    Per (frequency, mode): columns log(N), loglog of omega^2 * c_est in both
    conventions, and loglog of the scaled bounds. Per frequency with both
    modes present: a comparison file with the per-N difference of the
    log-log ordinate and its spread.
    """
    rows = stability.read_records_csv(records_csv)
    if not rows:
        log.warning("no records in %s; nothing to plot", records_csv)
        return []
    os.makedirs(out_dir, exist_ok=True)
    written = []

    groups: dict = {}
    for row in rows:
        groups.setdefault((row["freq_hz"], row["mode"]), []).append(row)

    for (f_hz, mode), group in sorted(groups.items()):
        group = sorted(group, key=lambda r: r["N"])
        path = os.path.join(out_dir, f"plot_f{f_hz:g}_{mode}.dat")
        with open(path, "w") as fh:
            fh.write("# columns: log_N loglog_omega2_c_est "
                     "loglog_omega2_c_est_sq loglog_omega2_lower "
                     "loglog_omega2_upper\n")
            fh.write(f"# freq_hz={f_hz:g} mode={mode} "
                     "(ordinate: log(log(omega^2 * value)))\n")
            for r in group:
                w2 = r["omega2"]
                cols = [
                    np.log(r["N"]),
                    _loglog(w2 * r["c_est"]),
                    _loglog(w2 * r["c_est_sq"]),
                    _loglog(w2 * r["lower_bound"]),
                    _loglog(w2 * r["upper_bound"]),
                ]
                fh.write(" ".join(f"{c:.17g}" for c in cols) + "\n")
        written.append(path)

    # mode-comparison files (full vs top) per frequency
    freqs = sorted({f for f, _ in groups})
    for f_hz in freqs:
        full = {r["N"]: r for r in groups.get((f_hz, fwd.MODE_FULL), [])}
        top = {r["N"]: r for r in groups.get((f_hz, fwd.MODE_TOP), [])}
        shared = sorted(set(full) & set(top))
        if not shared:
            continue
        path = os.path.join(out_dir, f"plot_f{f_hz:g}_modes.dat")
        diffs = []
        with open(path, "w") as fh:
            fh.write("# columns: log_N loglog_full loglog_top diff\n")
            for n in shared:
                w2 = full[n]["omega2"]
                a = _loglog(w2 * full[n]["c_est"])
                b = _loglog(w2 * top[n]["c_est"])
                d = b - a
                diffs.append(d)
                fh.write(f"{np.log(n):.17g} {a:.17g} {b:.17g} {d:.17g}\n")
            diffs = np.asarray(diffs)
            ok = diffs[np.isfinite(diffs)]
            if ok.size:
                fh.write(f"# diff mean={np.mean(ok):.17g} "
                         f"std={np.std(ok):.17g}\n")
        written.append(path)
    return written


# -- entry point ------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helmstab",
        description="Stability-constant experiments for the Helmholtz "
                    "inverse boundary value problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a stability campaign")
    _add_common(p_run)
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--override-window-check", action="store_true",
                       help="run even when omega^2 is outside the admissible windows")

    p_val = sub.add_parser("validate", help="check a config file")
    _add_common(p_val)

    p_plot = sub.add_parser("plot-data", help="emit plot-data files from records")
    p_plot.add_argument("--records", required=True, help="records.csv path")
    p_plot.add_argument("--out", required=True, help="output directory")

    p_win = sub.add_parser("windows",
                           help="print admissible frequency windows for the config")
    _add_common(p_win)
    p_win.add_argument("--out", help="also write windows.csv here")

    p_fwd = sub.add_parser("forward", help="run a single forward map to file")
    _add_common(p_fwd)
    p_fwd.add_argument("--out", required=True, help="output directory")
    p_fwd.add_argument("--model", choices=["c1", "c2"], default="c1")
    p_fwd.add_argument("--frequency-index", type=int, default=0)
    p_fwd.add_argument("--mode", choices=[fwd.MODE_FULL, fwd.MODE_TOP])
    p_fwd.add_argument("--override-window-check", action="store_true")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(message)s")

    if args.command == "validate":
        return validate_config(args.config)

    if args.command == "plot-data":
        try:
            written = emit_plots(args.records, args.out)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for path in written:
            print(path)
        return EXIT_OK

    cfg, errors, warnings_ = load_config(args.config)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    for w in warnings_:
        print(f"warning: {w}", file=sys.stderr)
    if cfg is None:
        return EXIT_CONFIG

    if args.command == "windows":
        grid = cfg.grid()
        for f_hz in cfg.frequencies_hz:
            omega2 = (2.0 * np.pi * f_hz) ** 2
            windows = spectrum.windows_covering(grid.extents, *cfg.bounds,
                                                omega2=omega2)
            safety = spectrum.frequency_safety(omega2, windows)
            state = "inside" if safety.inside else "OUTSIDE"
            print(f"{f_hz:g} Hz -> omega^2 = {omega2:.6g} [{state}]")
            for lo, hi in windows.windows:
                mark = " <-- contains omega^2" if safety.window == (lo, hi) else ""
                print(f"    ({lo:.6g}, {hi:.6g}){mark}")
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                spectrum.write_windows_csv(
                    os.path.join(args.out, f"windows_f{f_hz:g}.csv"), windows)
        return EXIT_OK

    if args.command == "forward":
        if getattr(args, "out", None):
            cfg.out_dir = args.out
        if args.override_window_check:
            cfg.override_window_check = True
        grid = cfg.grid()
        spec = cfg.c1 if args.model == "c1" else cfg.c2
        try:
            field_ = spec.load(grid, cfg.base_dir)
        except _MODEL_LOAD_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        blocks = cfg.scales[-1]
        partition = build_partition(grid, blocks)
        m = mdl.from_gridded_field(field_, partition, cfg.bounds)
        idx = args.frequency_index
        if not (0 <= idx < len(cfg.frequencies_hz)):
            print(f"error: frequency index {idx} out of range", file=sys.stderr)
            return EXIT_CONFIG
        f_hz = cfg.frequencies_hz[idx]
        omega2 = (2.0 * np.pi * f_hz) ** 2
        mode = args.mode or cfg.modes[0]
        acq = fwd.make_acquisition(grid, mode, cfg.source_spacing,
                                   cfg.receiver_spacing, cfg.sigma)
        try:
            data = fwd.forward_map(
                m, omega2, acq,
                override_window_check=cfg.override_window_check,
                absorbing=cfg.absorbing and mode == fwd.MODE_TOP,
            )
        except HelmstabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TOTAL
        os.makedirs(cfg.out_dir, exist_ok=True)
        out_bin = os.path.join(cfg.out_dir,
                               f"forward_{args.model}_f{f_hz:g}_{mode}.hsdt")
        fwd.write_dtn(out_bin, data)
        out_csv = os.path.join(cfg.out_dir,
                               f"forward_{args.model}_f{f_hz:g}_{mode}_trace.csv")
        fwd.export_trace_csv(data, acq.n_sources // 2, out_csv)
        print(out_bin)
        print(out_csv)
        return EXIT_OK

    # run
    if args.out:
        cfg.out_dir = args.out
    if args.override_window_check:
        cfg.override_window_check = True
    status = run_campaign(cfg)
    if cfg.failures:
        print(f"{len(cfg.failures)} cell(s) failed:", file=sys.stderr)
        for f_hz, blocks, mode, msg in cfg.failures:
            print(f"  f={f_hz:g}Hz blocks={blocks} mode={mode}: {msg}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
