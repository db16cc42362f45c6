"""Experiment runner: multi-scale, multi-frequency stability campaigns.

A campaign is described by a single YAML config file (schema below) and runs
one cell per (frequency, partition scale, acquisition mode): both models are
projected onto the scale's partition, the forward data are simulated,
and a stability record is written. Constants are fitted per frequency/mode
afterwards and every record gains its analytic bound columns.

:func:`load_config` is the one place where a config becomes objects. It
loads both model fields, projects each onto every scale's partition, builds
the acquisition of every listed mode and the admissible windows of every
frequency, each once; ``run``, ``forward``, ``windows`` and ``validate``
only read what it built. So every subcommand fails the same way, with a
config error, on a model file that cannot be loaded, on a frequency or mode
listed twice and on a non-finite or mistyped setting (a boolean for a
number, a string for a list of numbers). Every value rule is the
library's: the loader calls the check of :mod:`model` (bounds, positive
fields), :mod:`forward` (Gaussian width), :mod:`solver` (omega^2) or
:mod:`geometry` (grid, block counts) and adds only the setting's name. A key
the schema does not list loads with the warning "<section>.<key> is not a
setting of this version; ignored", and a model whose block means leave
[B1, B2] with one warning per scale that counts the subdomains clamped into
the bounds.
``forward --mode`` must name a listed mode.

The library takes omega^2 as given; ``run`` and ``forward`` refuse a frequency
outside every admissible window (:meth:`spectrum.WindowSafety.refuse_outside`)
before assembling anything, unless ``--override-window-check`` is given.

Config schema::

    grid:
      extents: [1.0, 1.0]        # meters, 2 or 3 axes
      cells: [64, 64]
    model:
      bounds: [0.25, 1.0]        # B1, B2 for c^-2 (s^2/m^2)
      c1: {generator: two_layer, v_top: 1.0, v_bottom: 2.0, interface_depth: 0.5}
      c2: {generator: linear_depth, v_top: 1.0, v_bottom: 2.0}
      # or {file: model.hsmd} / {text_file: m.txt, quantity: wavespeed}
    frequencies_hz: [0.45]
    scales:
      blocks: [[2, 2], [4, 4], [8, 8]]   # strictly increasing N
    acquisition:
      modes: [full, top]
      source_spacing: 0.25       # meters, scalar or per axis
      receiver_spacing: 0.125
      sigma: 0.08
    fit:
      first_scales: 2            # optional; default ceil(n_scales / 2)
    output:
      directory: out

Exit codes:

* 0: success.
* 1: config error -- the config does not load, a command-line choice names
  something the config lacks, or an output directory cannot be created or an
  output file cannot be written (``error: <path>: <reason>`` on stderr; no
  ``.tmp`` file is left behind).
* 2: partial failure -- some campaign cells failed; the others are written.
* 3: total failure -- every campaign cell failed, or ``forward`` was refused
  (an out-of-window frequency without ``--override-window-check``).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import yaml

from . import forward as fwd
from . import model as mdl
from . import spectrum, stability
from .errors import HelmstabError
from .geometry import BoxGrid, build_grid, build_partition
from .solver import _check_omega2, assemble  # assemble: traced by benchmarks/spans.py

__all__ = [
    "ExperimentConfig",
    "Frequency",
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

# what a bad model entry or a missing, truncated or mismatched model file
# raises on load
_MODEL_LOAD_ERRORS = (HelmstabError, ValueError, TypeError, OSError)

# every setting of this version: section -> its keys (None: a plain list)
SCHEMA = {
    "grid": ("extents", "cells"),
    "model": ("bounds", "c1", "c2"),
    "frequencies_hz": None,
    "scales": ("blocks",),
    "acquisition": ("modes", "source_spacing", "receiver_spacing", "sigma"),
    "fit": ("first_scales",),
    "output": ("directory",),
}

# the settings load_config requires; its first pass rejects a YAML boolean in
# "numbers", and also a string in a "list" and in each entry of "lists"
REQUIRED = {
    "grid.extents": "list", "grid.cells": "list", "model.bounds": "list",
    "model.c1": None, "model.c2": None, "frequencies_hz": "numbers",
    "scales.blocks": "lists", "acquisition.source_spacing": "numbers",
    "acquisition.receiver_spacing": "numbers", "acquisition.sigma": "numbers",
}

# model generator -> (its cell-field builder, the fields it needs in call
# order)
GENERATORS = {
    "two_layer": (mdl.two_layer_field, ("v_top", "v_bottom", "interface_depth")),
    "linear_depth": (mdl.linear_depth_field, ("v_top", "v_bottom")),
    "constant": (lambda grid, v: np.full(
        grid.n_cells, float(mdl.wavespeed_to_squared_slowness(v))), ("v",)),
}


@dataclass(frozen=True)
class Frequency:
    """One configured frequency with its omega^2 and admissible windows."""

    hz: float
    omega2: float
    windows: spectrum.FrequencyWindows
    safety: spectrum.WindowSafety


@dataclass
class ExperimentConfig:
    """A loaded campaign: everything its cells use, built once."""

    bounds: tuple
    model_pairs: list         # (c1, c2) projected onto each scale, coarse first
    frequencies: list         # one Frequency per configured frequency
    acquisitions: dict        # mode -> Acquisition, in config order
    first_scales: int | None = None
    out_dir: str = "out"

    def grid(self) -> BoxGrid:
        return self.model_pairs[0][0].grid


def _hz_name(hz: float) -> str:
    """The name of frequency ``hz`` in files and messages: the shortest
    ``%.{p}g``, p = 6 .. 17, that reads back as ``hz``, so none is shared;
    a NaN, which reads back as nothing, is named ``nan``."""
    return next((text for text in (f"{hz:.{p}g}" for p in range(6, 18))
                 if float(text) == hz), f"{hz:g}")


def _section(raw: dict, name: str, errors: list) -> dict:
    """Config section ``name``; a missing or empty one reads as empty."""
    sec = raw.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        errors.append(f"{name}: expected a mapping, got {sec!r}")
        return {}
    return sec


def _ignored_keys(raw: dict) -> list:
    """One warning per key that :data:`SCHEMA` does not list."""
    names = []
    for name, value in raw.items():
        if name not in SCHEMA:
            # an unknown section warns key by key
            names += ([f"{name}.{key}" for key in sorted(value, key=str)]
                      if isinstance(value, dict) and value else [str(name)])
        elif SCHEMA[name] and isinstance(value, dict):
            names += [f"{name}.{key}" for key in sorted(value, key=str)
                      if key not in SCHEMA[name]]
    return [f"{name} is not a setting of this version; ignored"
            for name in names]


def _holds_bool(value) -> bool:
    """Whether a setting is, or a (nested) list holds, a YAML boolean, which
    ``float`` would read as 0 or 1."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _model_field(spec, grid: BoxGrid, base_dir) -> np.ndarray:
    """Cell field of squared slowness for one ``model.c1``/``c2`` entry.

    The entry names a generator with its fields, a binary ``file`` or a
    ``text_file``; paths are relative to ``base_dir``. Raises one of
    ``_MODEL_LOAD_ERRORS`` for a bad entry or a file that cannot be loaded.
    """
    if not isinstance(spec, dict):
        raise ValueError("expected a mapping")
    if "file" in spec:
        path = os.path.join(base_dir, spec["file"])
        field, extents, cells = mdl.read_field(path)
        if tuple(cells) != grid.cells_per_axis or \
                tuple(extents) != grid.extents:
            raise ValueError(
                f"{path}: grid mismatch (file {cells}/{extents}, "
                f"config {grid.cells_per_axis}/{grid.extents})"
            )
    elif "text_file" in spec:
        path = os.path.join(base_dir, spec["text_file"])
        quantity = spec.get("quantity", "squared_slowness")
        if quantity not in ("squared_slowness", "wavespeed"):
            raise ValueError(f"unknown quantity {quantity!r}")
        field = mdl.read_text_field(path, is_wavespeed=quantity == "wavespeed")
        if field.shape != (grid.n_cells,):
            raise ValueError(f"{path}: expected {grid.n_cells} values")
    else:
        gen = spec.get("generator")
        if gen not in GENERATORS:
            raise ValueError(
                f"'generator' must be one of {tuple(GENERATORS)} "
                f"(or use 'file'/'text_file'), got {gen!r}")
        build, fields = GENERATORS[gen]
        missing = [name for name in fields if name not in spec]
        if missing:
            raise ValueError(f"generator '{gen}' needs field '{missing[0]}'")
        if _holds_bool([spec[name] for name in fields]):
            raise ValueError(f"generator '{gen}': a boolean is not a number")
        args = [float(spec[name]) for name in fields]
        if not all(map(math.isfinite, args)):
            raise ValueError(f"generator '{gen}': fields must be finite, "
                             f"got {args}")
        field = build(grid, *args)
    return mdl._positive(field, "squared slowness")


def load_config(path):
    """Parse and validate a config file and build the campaign it describes.

    Returns ``(config_or_None, errors, warnings)``; parse failures report the
    line/column from the YAML parser.
    """
    errors: list[str] = []
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
    warnings_ = _ignored_keys(raw)

    sections = {name: _section(raw, name, errors)
                for name, keys in SCHEMA.items() if keys}
    got = {}
    for name, kind in REQUIRED.items():
        section, _, key = name.rpartition(".")
        value = got[name] = sections.get(section, raw).get(key)
        if value is None:
            errors.append(f"{name}: missing required field")
            continue
        if kind and _holds_bool(value):
            errors.append(f"{name}: a boolean is not a number, got {value!r}")
        entries = {"list": [value], "lists": value}.get(kind)
        if isinstance(entries, list):
            errors += [f"{name}: expected a list of numbers, got the string "
                       f"{v!r}" for v in entries if isinstance(v, str)]

    if errors:
        return None, errors, warnings_

    try:
        grid = build_grid(got["grid.extents"], got["grid.cells"])
    except (TypeError, ValueError) as exc:
        errors.append(f"grid: {exc}")
        grid = None

    try:
        b1, b2 = mdl._bounds(got["model.bounds"])
    except ValueError as exc:
        errors.append(f"model.bounds: {exc}")

    omega2s = {}   # hz -> omega^2, in config order
    freqs = got["frequencies_hz"]
    if not isinstance(freqs, (list, tuple)) or not freqs:
        errors.append("frequencies_hz: expected a non-empty list")
    else:
        for f in freqs:
            try:
                f = float(f)
            except (TypeError, ValueError):
                errors.append(f"frequencies_hz: non-numeric entry {f!r}")
                continue
            if not 0 < f < math.inf:
                errors.append("frequencies_hz: frequencies must be positive "
                              f"and finite, got {f}")
            elif f in omega2s:
                errors.append(f"frequencies_hz: {f:g} Hz is listed twice")
            else:
                # a float's ** raises OverflowError past about 2.1e153 Hz
                try:
                    omega2 = _check_omega2((2.0 * np.pi * f) ** 2)
                except (OverflowError, ValueError):
                    errors.append("frequencies_hz: omega^2 = (2 pi f)^2 is "
                                  f"not finite for f = {f:g} Hz")
                    continue
                # below about 2.5e-163 Hz it underflows to 0, and every
                # cell's data difference with it
                if omega2 == 0.0:
                    errors.append("frequencies_hz: omega^2 = (2 pi f)^2 "
                                  f"underflows to 0 for f = {f:g} Hz")
                else:
                    omega2s[f] = omega2

    partitions = []
    blocks = got["scales.blocks"]
    if not isinstance(blocks, (list, tuple)) or not blocks:
        errors.append("scales.blocks: expected a non-empty list of block counts")
    elif grid is not None:
        for entry in blocks:
            try:
                partitions.append(build_partition(grid, entry))
            except TypeError:
                errors.append(f"scales.blocks: bad entry {entry!r}")
            except ValueError as exc:
                errors.append(f"scales.blocks: {exc}")
        ns = [p.n_subdomains for p in partitions]
        if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
            errors.append("scales.blocks: subdomain counts must be strictly "
                          f"increasing, got {ns}")

    modes = sections["acquisition"].get("modes", ["full"])
    if isinstance(modes, str):
        modes = [modes]
    if not isinstance(modes, list) or not modes:
        errors.append(
            f"acquisition.modes: expected a non-empty list of modes, got {modes!r}")
        modes = []
    for i, m in enumerate(modes):
        if m not in (fwd.MODE_FULL, fwd.MODE_TOP):
            errors.append(f"acquisition.modes: unknown mode {m!r}")
        elif m in modes[:i]:
            errors.append(f"acquisition.modes: {m} is listed twice")

    acquisitions = {}
    try:
        sigma = fwd._positive_width(got["acquisition.sigma"],
                                    "acquisition.sigma")
    except ValueError as exc:
        errors.append(str(exc))
    else:
        if grid is not None:
            for m in modes:
                if m not in (fwd.MODE_FULL, fwd.MODE_TOP) or m in acquisitions:
                    continue
                try:
                    acquisitions[m] = fwd.make_acquisition(
                        grid, m, got["acquisition.source_spacing"],
                        got["acquisition.receiver_spacing"], sigma)
                except (TypeError, ValueError) as exc:
                    errors.append(f"acquisition ({m} mode): {exc}")

    first_scales = sections["fit"].get("first_scales")
    if first_scales is not None and (type(first_scales) is not int
                                     or first_scales < 1):
        errors.append("fit.first_scales: expected a positive integer, got "
                      f"{first_scales!r}")

    out_dir = sections["output"].get("directory", "out")
    if not isinstance(out_dir, str):
        errors.append(f"output.directory: expected a path, got {out_dir!r}")

    fields = []
    if grid is not None:
        base_dir = os.path.dirname(os.path.abspath(path))
        for name in ("c1", "c2"):
            try:
                fields.append(_model_field(got[f"model.{name}"], grid, base_dir))
            except _MODEL_LOAD_ERRORS as exc:
                errors.append(f"model.{name}: {exc}")

    if errors:
        return None, errors, warnings_

    frequencies = []
    for f, omega2 in omega2s.items():
        windows = spectrum.windows_covering(grid, b1, b2, omega2)
        safety = spectrum.frequency_safety(omega2, windows)
        frequencies.append(Frequency(f, omega2, windows, safety))
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

    model_pairs = [
        tuple(mdl.from_gridded_field(fld, p, (b1, b2)) for fld in fields)
        for p in partitions
    ]
    for name, models in zip(("c1", "c2"), zip(*model_pairs)):
        warnings_ += [
            f"model.{name}: N={m.n_subdomains}: {m.n_clamped} of "
            f"{m.n_subdomains} subdomains clamped into [{b1:g}, {b2:g}]"
            for m in models if m.n_clamped]

    cfg = ExperimentConfig(
        bounds=(b1, b2),
        model_pairs=model_pairs,
        frequencies=frequencies,
        acquisitions=acquisitions,
        first_scales=first_scales,
        out_dir=out_dir,
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
    grid = cfg.grid()
    print("config: ok")
    print(f"  grid: {grid.cells_per_axis} cells on extents {grid.extents}")
    print(f"  bounds: B1={cfg.bounds[0]:g}, B2={cfg.bounds[1]:g}")
    print(f"  frequencies: {[f.hz for f in cfg.frequencies]} Hz")
    print(f"  scales (N): {[m1.n_subdomains for m1, _ in cfg.model_pairs]}")
    print(f"  modes: {list(cfg.acquisitions)}")
    print(f"  output: {cfg.out_dir}")
    return EXIT_OK


def _write_output(path, write) -> bool:
    """Write the output file ``path`` as ``write(tmp)`` then an atomic rename
    onto ``path``; on failure print the error, remove the temporary file and
    return False."""
    tmp = f"{path}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
        if os.path.isfile(tmp):
            os.remove(tmp)
        return False
    return True


def _write_constants_csv(path, constants_rows):
    with open(path, "w", newline="") as fh:
        fh.write("freq_hz,mode,omega2,k,k1,b2,records_used,first_scale_count\n")
        for f_hz, mode, omega2, c in constants_rows:
            fh.write(
                f"{f_hz:.17g},{mode},{omega2:.17g},{c.k:.17g},{c.k1:.17g},"
                f"{c.b2:.17g},{c.records_used},{c.first_scale_count}\n"
            )


def _record_comments(cfg: ExperimentConfig) -> list:
    return [
        f"norm_kind: {fwd.NORM_KIND}",
        "bound_exponents: 3D-nominal (1/5 lower, 4/7 upper)",
        f"r0_exponent_dim: {cfg.grid().dim}",
    ]


def _make_out_dir(path) -> bool:
    """Create the output directory ``path``; on failure print the error and
    return False."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return False
    return True


def run_campaign(cfg: ExperimentConfig, override_window_check=False) -> int:
    """Run every (frequency, scale, mode) cell and write the artifacts.

    Records are flushed to ``records.csv`` through an atomic rename after
    every cell, so a crashing cell cannot corrupt earlier rows. A failing
    cell is logged, skipped and listed on stderr at the end; so is every
    cell of a frequency outside every admissible window, refused before it
    assembles anything, unless ``override_window_check``. The exit code
    reports partial (2) or total (3) failure, or a config error (1) when the
    output directory cannot be created or an output file cannot be written
    (the campaign stops at the first such write).
    """
    if not _make_out_dir(cfg.out_dir):
        return EXIT_CONFIG
    records_path = os.path.join(cfg.out_dir, "records.csv")
    constants_path = os.path.join(cfg.out_dir, "constants.csv")
    comments = _record_comments(cfg)

    def flush_records() -> bool:
        return _write_output(records_path, lambda tmp: (
            stability.write_records_csv(tmp, records, comments=comments)))

    records: list[stability.StabilityRecord] = []
    groups: dict = {}         # (freq_hz, mode) -> indices into records
    failures = []

    for freq in cfg.frequencies:
        for m1, m2 in cfg.model_pairs:
            for mode, acq in cfg.acquisitions.items():
                cell = f"f={_hz_name(freq.hz)}Hz N={m1.n_subdomains} mode={mode}"
                t0 = time.perf_counter()
                store0 = fwd.cache_info()
                try:
                    if not override_window_check:
                        freq.safety.refuse_outside()
                    rec = stability.estimate_constant(
                        m1, m2, freq.omega2, acq, freq_hz=freq.hz)
                except (HelmstabError, ValueError) as exc:
                    failures.append(f"{cell}: {exc}")
                    log.error("cell %s failed: %s", cell, exc)
                    continue
                store = fwd.cache_info()
                log.info(
                    "cell %s: %.3fs, c_est %.6g, "
                    "DtN store %d hits, %d misses, "
                    "%d factorizations, %d CG columns in %d iterations, "
                    "DtN rows %d hits, %d misses",
                    cell, time.perf_counter() - t0, rec.c_est,
                    *(store[k] - store0[k] for k in
                      ("hits", "misses", "factorizations", "cg_columns",
                       "cg_iterations", "row_hits", "row_misses")),
                )
                groups.setdefault((freq.hz, mode), []).append(len(records))
                records.append(rec)
                if not flush_records():
                    return EXIT_CONFIG

    # fit constants per (frequency, mode) and fill that group's bounds
    constants_rows = []
    for (f_hz, mode), idx in sorted(groups.items()):
        try:
            consts = stability.fit_constants([records[i] for i in idx],
                                             b2=cfg.bounds[1],
                                             first_scale_count=cfg.first_scales)
        except ValueError as exc:
            log.error("constant fit for f=%sHz mode=%s failed: %s",
                      _hz_name(f_hz), mode, exc)
            continue
        constants_rows.append((f_hz, mode, records[idx[0]].omega2, consts))
        for i in idx:
            records[i] = stability.fill_bounds(records[i], consts)

    if records and not flush_records():
        return EXIT_CONFIG
    if constants_rows and not _write_output(
            constants_path,
            lambda tmp: _write_constants_csv(tmp, constants_rows)):
        return EXIT_CONFIG

    if not failures:
        return EXIT_OK
    print(f"{len(failures)} cell(s) failed:", file=sys.stderr)
    for line in failures:
        print(f"  {line}", file=sys.stderr)
    n_cells = (len(cfg.frequencies) * len(cfg.model_pairs)
               * len(cfg.acquisitions))
    return EXIT_TOTAL if len(failures) == n_cells else EXIT_PARTIAL


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
        path = os.path.join(out_dir, f"plot_f{_hz_name(f_hz)}_{mode}.dat")
        with open(path, "w") as fh:
            fh.write("# columns: log_N loglog_omega2_c_est "
                     "loglog_omega2_c_est_sq loglog_omega2_lower "
                     "loglog_omega2_upper\n")
            fh.write(f"# freq_hz={_hz_name(f_hz)} mode={mode} "
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
        path = os.path.join(out_dir, f"plot_f{_hz_name(f_hz)}_modes.dat")
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
                       help="run the cells of a frequency outside every "
                            "admissible window instead of failing them")

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
    p_fwd.add_argument("--override-window-check", action="store_true",
                       help="run even at a frequency outside every window")

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
        if args.out and not _make_out_dir(args.out):
            return EXIT_CONFIG
        for freq in cfg.frequencies:
            hz = _hz_name(freq.hz)
            state = "inside" if freq.safety.inside else "OUTSIDE"
            print(f"{hz} Hz -> omega^2 = {freq.omega2:.6g} [{state}]")
            for lo, hi in freq.windows.windows:
                mark = " <-- contains omega^2" if freq.safety.window == (lo, hi) else ""
                print(f"    ({lo:.6g}, {hi:.6g}){mark}")
            if args.out and not _write_output(
                    os.path.join(args.out, f"windows_f{hz}.csv"),
                    lambda tmp: spectrum.write_windows_csv(tmp, freq.windows)):
                return EXIT_CONFIG
        return EXIT_OK

    if args.command == "forward":
        idx = args.frequency_index
        if not (0 <= idx < len(cfg.frequencies)):
            print(f"error: frequency index {idx} out of range", file=sys.stderr)
            return EXIT_CONFIG
        freq = cfg.frequencies[idx]
        mode = args.mode or next(iter(cfg.acquisitions))
        if mode not in cfg.acquisitions:
            print(f"error: --mode {mode}: acquisition.modes lists only "
                  f"{list(cfg.acquisitions)}", file=sys.stderr)
            return EXIT_CONFIG
        acq = cfg.acquisitions[mode]
        if not _make_out_dir(args.out):
            return EXIT_CONFIG
        c1, c2 = cfg.model_pairs[-1]
        try:
            if not args.override_window_check:
                freq.safety.refuse_outside()
            data = fwd.forward_map(
                c1 if args.model == "c1" else c2, freq.omega2, acq)
        except HelmstabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TOTAL
        stem = os.path.join(
            args.out, f"forward_{args.model}_f{_hz_name(freq.hz)}_{mode}")
        outputs = {
            f"{stem}.hsdt": lambda tmp: fwd.write_dtn(tmp, data),
            f"{stem}_trace.csv": lambda tmp: fwd.export_trace_csv(
                data, acq.n_sources // 2, tmp),
        }
        for path, write in outputs.items():
            if not _write_output(path, write):
                return EXIT_CONFIG
            print(path)
        return EXIT_OK

    # run
    if args.out:
        cfg.out_dir = args.out
    return run_campaign(cfg, args.override_window_check)


if __name__ == "__main__":
    sys.exit(main())
