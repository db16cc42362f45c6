import dataclasses
import os
import re
import textwrap
import weakref

import numpy as np
import pytest
import yaml

from helmstab import cli, forward, solver, stability
from helmstab.stability import (
    BoundConstants,
    evaluate_bounds,
    fill_bounds,
    read_records_csv,
    write_records_csv,
)
from tests.test_stability import make_record


def base_config(out_dir, **overrides):
    cfg = {
        "grid": {"extents": [1.0, 1.0], "cells": [32, 32]},
        "model": {
            "bounds": [0.25, 1.0],
            "c1": {"generator": "two_layer", "v_top": 1.0, "v_bottom": 2.0,
                   "interface_depth": 0.5},
            "c2": {"generator": "linear_depth", "v_top": 1.0, "v_bottom": 2.0},
        },
        "frequencies_hz": [0.45],
        "scales": {"blocks": [[2, 2], [4, 4]]},
        "acquisition": {"modes": ["full", "top"], "source_spacing": 0.25,
                        "receiver_spacing": 0.125, "sigma": 0.08},
        "output": {"directory": str(out_dir)},
        "run": {"workers": 1, "seed": 0},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_missing_field_names_the_field(tmp_path):
    cfg = base_config(tmp_path / "out")
    del cfg["frequencies_hz"]
    path = write_config(tmp_path, cfg)
    loaded, errors, _ = cli.load_config(path)
    assert loaded is None
    assert any("frequencies_hz" in e for e in errors)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("grid:\n  extents: [1.0\n")
    loaded, errors, _ = cli.load_config(path)
    assert loaded is None
    assert any("line" in e for e in errors)


def test_window_violation_warns(tmp_path):
    # 10 Hz is far outside the admissible windows for these bounds
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [10.0]
    path = write_config(tmp_path, cfg)
    loaded, errors, warnings_ = cli.load_config(path)
    assert loaded is not None and not errors
    assert any("admissible" in w for w in warnings_)


def test_removed_run_key_warns(tmp_path):
    # sources are solved in blocks on one thread, every DtN row goes through
    # one bounded store and nothing in a campaign is random: run.workers,
    # run.cache and run.seed no longer exist
    cfg = base_config(tmp_path / "out")
    cfg["run"] = {"cache": False, "seed": 3, "workers": 1}
    loaded, errors, warnings_ = cli.load_config(write_config(tmp_path, cfg))
    assert loaded is not None and not errors
    assert warnings_ == [f"run.{key} is not a setting of this version; ignored"
                         for key in ("cache", "seed", "workers")]
    for key in ("workers", "cache", "seed"):
        assert not hasattr(loaded, key)


def test_near_edge_warns(tmp_path):
    # first window is (0, 2 pi^2 / B2) = (0, 19.74); pick omega^2 ~ 19.3
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [0.699]
    path = write_config(tmp_path, cfg)
    _, errors, warnings_ = cli.load_config(path)
    assert not errors
    assert any("edge" in w for w in warnings_)


def test_scales_must_increase(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["scales"]["blocks"] = [[4, 4], [2, 2]]
    path = write_config(tmp_path, cfg)
    loaded, errors, _ = cli.load_config(path)
    assert loaded is None
    assert any("strictly increasing" in e for e in errors)


def test_validate_command_ok(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    status = cli.main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert status == cli.EXIT_OK
    assert "config: ok" in out
    assert "scales (N): [4, 16]" in out


def test_campaign_end_to_end(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    status = cli.main(["run", "--config", str(path)])
    assert status == cli.EXIT_OK
    rows = read_records_csv(out / "records.csv")
    # 1 frequency x 2 scales x 2 modes
    assert len(rows) == 4
    assert all(np.isfinite(r["lower_bound"]) for r in rows)
    constants = (out / "constants.csv").read_text().splitlines()
    assert constants[0].startswith("freq_hz,mode,omega2,k,k1")
    assert len(constants) == 3


def test_campaign_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = write_config(tmp_path, base_config(out1), "a.yaml")
    p2 = write_config(tmp_path, base_config(out2), "b.yaml")
    assert cli.main(["run", "--config", str(p1)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", str(p2)]) == cli.EXIT_OK
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out1 / "constants.csv").read_bytes() == (out2 / "constants.csv").read_bytes()


def test_degenerate_campaign_fails_every_cell(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["model"]["c2"] = dict(cfg["model"]["c1"])
    path = write_config(tmp_path, cfg)
    status = cli.main(["run", "--config", str(path)])
    assert status == cli.EXIT_TOTAL
    assert not os.path.exists(tmp_path / "out" / "constants.csv")


def test_partial_failure_keeps_going(tmp_path, capsys):
    # second frequency violates the window check -> those cells fail
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [0.45, 10.0]
    path = write_config(tmp_path, cfg)
    status = cli.main(["run", "--config", str(path)])
    assert status == cli.EXIT_PARTIAL
    rows = read_records_csv(tmp_path / "out" / "records.csv")
    assert len(rows) == 4  # the 0.45 Hz cells survived
    # the load warning and the failed-cell lines print plain window edges
    err = capsys.readouterr().err
    # the first window of the 32^2 grid ends at its first discrete
    # eigenvalue, 2 (4 / h^2) sin^2(pi h / 2)
    assert err.count("nearest window (0.0, 19.72335955") == 5
    assert "np.float64(" not in err


def test_out_of_window_cells_are_refused_before_assembly(tmp_path, capsys):
    # 0.75 and 0.8 Hz (omega^2 = 22.2, 25.3) lie outside every admissible
    # window of the 32^2 grid: all 8 cells fail without assembling a system,
    # and the override runs them
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [0.75, 0.8]
    path = write_config(tmp_path, cfg)
    forward.clear_caches()
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_TOTAL
    assert forward.cache_info()["misses"] == 0
    assert "8 cell(s) failed:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "records.csv")
    assert cli.main(["run", "--config", str(path),
                     "--override-window-check"]) == cli.EXIT_OK
    assert len(read_records_csv(tmp_path / "out" / "records.csv")) == 8
    forward.clear_caches()


def test_cache_toggle_does_not_change_results(tmp_path):
    # run.cache is no longer a setting: it is ignored with a warning and the
    # records equal those of a config without it byte for byte
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = base_config(out1)
    del cfg1["run"]
    cfg2 = base_config(out2)
    cfg2["run"]["cache"] = False
    p1 = write_config(tmp_path, cfg1, "a.yaml")
    p2 = write_config(tmp_path, cfg2, "b.yaml")
    _, _, warnings_ = cli.load_config(p2)
    assert "run.cache is not a setting of this version; ignored" in warnings_
    assert cli.main(["run", "--config", str(p1)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", str(p2)]) == cli.EXIT_OK
    assert (out1 / "records.csv").read_bytes() == \
        (out2 / "records.csv").read_bytes()


def test_one_factorization_per_distinct_system(tmp_path, monkeypatch):
    # one 16^2 cell has two distinct systems (c1 and c2); each is factorized
    # once, also when the config still asks for run.cache: false
    cfg = base_config(tmp_path / "out")
    cfg["grid"]["cells"] = [16, 16]
    cfg["scales"]["blocks"] = [[2, 2]]
    cfg["acquisition"]["modes"] = ["full"]
    cfg["run"] = {"cache": False}
    path = write_config(tmp_path, cfg)
    loaded, _, warnings_ = cli.load_config(path)
    assert loaded is not None
    assert warnings_ == ["run.cache is not a setting of this version; ignored"]

    calls = []
    splu = solver.splu
    monkeypatch.setattr(solver, "splu",
                        lambda mat, **kw: calls.append(mat.shape) or splu(mat, **kw))
    forward.clear_caches()
    assert cli.run_campaign(loaded) == cli.EXIT_OK
    assert len(calls) == 2
    assert forward.cache_info()["misses"] == 2


def test_each_system_solves_each_source_once(tmp_path, monkeypatch, caplog):
    # 2 scales x 2 modes x 2 models make 8 forward maps over 3 distinct
    # systems: the aligned two-layer c1 is one system at both scales, the
    # linear-depth c2 one per scale. Each system solves every full-mode
    # source once; the other maps read the rows that system kept.
    loaded, _, _ = cli.load_config(write_config(tmp_path, base_config(
        tmp_path / "out")))
    full, top = loaded.acquisitions["full"], loaded.acquisitions["top"]
    columns = []
    solve = forward.solve_dirichlet
    monkeypatch.setattr(forward, "solve_dirichlet",
                        lambda sys_, g, *args: columns.append(g.shape[1])
                        or solve(sys_, g, *args))
    forward.clear_caches()
    with caplog.at_level("INFO", logger="helmstab"):
        assert cli.run_campaign(loaded) == cli.EXIT_OK
    info = forward.cache_info()
    assert info["misses"] == 3
    assert sum(columns) == info["row_misses"] == 3 * full.n_sources
    requested = 4 * (full.n_sources + top.n_sources)
    assert info["row_hits"] == requested - sum(columns)
    # the per-cell log lines add up to the same row counts
    logged = [re.search(r"DtN rows (\d+) hits, (\d+) misses", r.getMessage())
              for r in caplog.records]
    logged = [tuple(map(int, m.groups())) for m in logged if m]
    assert len(logged) == 4
    assert tuple(map(sum, zip(*logged))) == (info["row_hits"],
                                             info["row_misses"])
    forward.clear_caches()


def test_campaign_frees_every_system_after_its_cell(tmp_path, monkeypatch,
                                                    caplog):
    # the 3 distinct systems of the campaign above are factorized once each,
    # as the per-cell log lines say, and none of them, nor its LU, outlives
    # the forward map that assembled it
    from helmstab import stability

    loaded, _, _ = cli.load_config(write_config(tmp_path, base_config(
        tmp_path / "out")))
    systems, live = [], []
    assemble = forward.assemble

    def tracked_assemble(*args):
        sys_ = assemble(*args)
        systems.append(weakref.ref(sys_))
        return sys_

    monkeypatch.setattr(forward, "assemble", tracked_assemble)
    estimate = stability.estimate_constant

    def counting_live_systems(*args, **kwargs):
        rec = estimate(*args, **kwargs)
        live.append(sum(ref() is not None for ref in systems))
        return rec

    monkeypatch.setattr(stability, "estimate_constant", counting_live_systems)
    forward.clear_caches()
    with caplog.at_level("INFO", logger="helmstab"):
        assert cli.run_campaign(loaded) == cli.EXIT_OK
    info = forward.cache_info()
    assert info["factorizations"] == info["misses"] == len(systems) == 3
    assert live == [0] * 4
    logged = [re.search(r"(\d+) factorizations", r.getMessage())
              for r in caplog.records]
    assert [int(m.group(1)) for m in logged if m] == [2, 0, 1, 0]
    forward.clear_caches()


def test_3d_campaign_solves_by_cg_without_an_lu(tmp_path, monkeypatch, caplog):
    # every system of an 8^3 top-mode campaign lies in the first window, so
    # CG solves it and no LU is computed; the constants match an all-LU run
    def campaign(name):
        cfg = base_config(tmp_path / name)
        cfg["grid"] = {"extents": [1.0, 1.0, 1.0], "cells": [8, 8, 8]}
        cfg["scales"]["blocks"] = [[2, 2, 2], [4, 4, 4]]
        cfg["acquisition"] = {"modes": ["top"], "source_spacing": 0.25,
                              "receiver_spacing": 0.25, "sigma": 0.15}
        loaded, errors, _ = cli.load_config(
            write_config(tmp_path, cfg, f"{name}.yaml"))
        assert loaded is not None and errors == []
        forward.clear_caches()
        assert cli.run_campaign(loaded) == cli.EXIT_OK
        info = forward.cache_info()
        forward.clear_caches()
        return read_records_csv(tmp_path / name / "records.csv"), info

    with caplog.at_level("INFO", logger="helmstab"):
        cg_records, info = campaign("cg")
    assert info["factorizations"] == 0
    assert info["cg_columns"] == info["row_misses"] > 0
    logged = [re.search(r"(\d+) CG columns in (\d+) iterations",
                        r.getMessage()) for r in caplog.records]
    logged = [tuple(map(int, m.groups())) for m in logged if m]
    assert len(logged) == 2
    assert tuple(map(sum, zip(*logged))) == (info["cg_columns"],
                                             info["cg_iterations"])

    monkeypatch.setattr(solver, "_cg_plan", lambda sys_: None)
    lu_records, info = campaign("lu")
    assert info["factorizations"] > 0 and info["cg_columns"] == 0
    assert len(cg_records) == len(lu_records) == 2
    for got, ref in zip(cg_records, lu_records):
        assert got["N"] == ref["N"]
        assert got["c_est"] == pytest.approx(ref["c_est"], rel=1e-10)


def test_low_frequency_gives_no_edge_warning(tmp_path):
    # 0.1 Hz (omega^2 = 0.395) lies low in the first window of the 32^2 grid,
    # whose lower edge 0 is no resonance, so it is near no window edge
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [0.1]
    loaded, errors, warnings_ = cli.load_config(write_config(tmp_path, cfg))
    assert loaded is not None and errors == []
    assert loaded.frequencies[0].safety.relative_edge_margin() > 0.95
    assert not [w for w in warnings_ if "window" in w]


def test_model_file_loading(tmp_path):
    # c1 from a binary field file, c2 from a text file
    from helmstab.geometry import build_grid
    from helmstab.model import linear_depth_field, write_field

    g = build_grid((1.0, 1.0), (32, 32))
    field = linear_depth_field(g, 1.0, 2.0)
    write_field(tmp_path / "c1.hsmd", g, field)
    np.savetxt(tmp_path / "c2.txt", np.full(g.n_cells, 1.0))

    cfg = base_config(tmp_path / "out")
    cfg["model"]["c1"] = {"file": "c1.hsmd"}
    cfg["model"]["c2"] = {"text_file": "c2.txt", "quantity": "wavespeed"}
    path = write_config(tmp_path, cfg)
    status = cli.main(["run", "--config", str(path)])
    assert status == cli.EXIT_OK


def truncated_model_config(tmp_path):
    from helmstab.geometry import build_grid
    from helmstab.model import linear_depth_field, write_field

    g = build_grid((1.0, 1.0), (32, 32))
    path = tmp_path / "c1.hsmd"
    write_field(path, g, linear_depth_field(g, 1.0, 2.0))
    path.write_bytes(path.read_bytes()[:6])   # magic plus half a header
    cfg = base_config(tmp_path / "out")
    cfg["model"]["c1"] = {"file": "c1.hsmd"}
    return write_config(tmp_path, cfg)


@pytest.mark.parametrize("command", ["run", "forward", "validate", "windows"])
def test_truncated_model_file_is_a_config_error(tmp_path, capsys, command):
    # every subcommand loads the models: a truncated and then a missing c1
    # file is one error line naming the file, and nothing is written
    path = truncated_model_config(tmp_path)
    argv = [command, "--config", str(path)]
    if command == "forward":
        argv += ["--out", str(tmp_path / "out")]
    for state in ("truncated", "missing"):
        if state == "missing":
            (tmp_path / "c1.hsmd").unlink()
        status = cli.main(argv)
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert status == cli.EXIT_CONFIG
        errors = [line for line in text.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "c1.hsmd" in errors[0]
        assert "Traceback" not in text
        assert not (tmp_path / "out").exists()


def test_run_warns_that_absorbing_is_ignored(tmp_path):
    # absorbing sides are gone: the key loads with one warning, the campaign
    # equals the one without it byte for byte and forward writes real
    # Dirichlet data
    from helmstab.forward import read_dtn

    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = base_config(out1)
    del cfg1["run"]
    cfg1["grid"]["cells"] = [16, 16]
    cfg2 = base_config(out2)
    del cfg2["run"]
    cfg2["grid"]["cells"] = [16, 16]
    cfg2["acquisition"]["absorbing"] = True
    p1 = write_config(tmp_path, cfg1, "a.yaml")
    p2 = write_config(tmp_path, cfg2, "b.yaml")
    loaded, errors, warnings_ = cli.load_config(p2)
    assert loaded is not None and not errors
    assert warnings_ == [
        "acquisition.absorbing is not a setting of this version; ignored"]
    assert cli.main(["run", "--config", str(p1)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", str(p2)]) == cli.EXIT_OK
    for name in ("records.csv", "constants.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    fwd_out = tmp_path / "fwd"
    assert cli.main(["forward", "--config", str(p2), "--out", str(fwd_out),
                     "--mode", "top"]) == cli.EXIT_OK
    (path,) = fwd_out.glob("*.hsdt")
    data = read_dtn(path)
    assert data.acquisition.mode == "top"
    assert data.values.dtype == np.float64
    (trace,) = fwd_out.glob("*_trace.csv")
    assert trace.read_text().splitlines()[0] == "receiver,x,y,value"


@pytest.mark.parametrize("section, status", [
    ("grid:", cli.EXIT_CONFIG),
    ("run:", cli.EXIT_OK),
    ("acquisition:", cli.EXIT_CONFIG),
    ("grid: 5", cli.EXIT_CONFIG),
])
def test_empty_or_scalar_section(tmp_path, capsys, section, status):
    # a bare "name:" line is a null section: it loads as empty, so a required
    # one reports its missing fields; a section that is not a mapping is an
    # error of its own
    cfg = base_config(tmp_path / "out")
    name = section.split(":")[0]
    del cfg[name]
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg) + section + "\n")
    assert cli.main(["validate", "--config", str(path)]) == status
    out = capsys.readouterr().out
    if section == "grid: 5":
        assert "error: grid: expected a mapping, got 5" in out
    if status == cli.EXIT_CONFIG:
        assert f"error: {name}" in out


@pytest.mark.parametrize("command", ["validate", "run", "windows", "forward"])
@pytest.mark.parametrize("section, field, value, message", [
    ("acquisition", "sigma", "wide",
     "acquisition.sigma: expected a number, got 'wide'"),
    ("acquisition", "receiver_spacing", 0.001,
     "spacing 0.001 finer than grid spacing 0.0625"),
    ("acquisition", "modes", [],
     "acquisition.modes: expected a non-empty list of modes, got []"),
    ("fit", "first_scales", "two",
     "fit.first_scales: expected a positive integer, got 'two'"),
    ("scales", "blocks", [[0, 2], [4, 4]],
     "scales.blocks: block counts must be >= 1, got (0, 2)"),
    ("acquisition", "modes", ["full", "full"],
     "acquisition.modes: full is listed twice"),
    (None, "frequencies_hz", [0.45, 0.45],
     "frequencies_hz: 0.45 Hz is listed twice"),
    (None, "frequencies_hz", [float("nan")],
     "frequencies_hz: frequencies must be positive and finite, got nan"),
    (None, "frequencies_hz", [float("inf")],
     "frequencies_hz: frequencies must be positive and finite, got inf"),
    ("model", "bounds", [0.25, float("inf")],
     "model.bounds: need 0 < B1 <= B2 < inf, got [0.25, inf]"),
    ("acquisition", "sigma", float("inf"),
     "acquisition.sigma must be finite and positive with a finite nonzero "
     "square, got inf"),
    ("output", "directory", 5, "output.directory: expected a path, got 5"),
    ("grid", "extents", [1.0, float("nan")],
     "grid: extents must be positive and finite, got (1.0, nan)"),
    ("model", "c2", {"generator": "constant", "v": float("nan")},
     "model.c2: generator 'constant': fields must be finite, got [nan]"),
    ("model", "c2", {"text_file": "c2.txt", "quantity": "speed"},
     "model.c2: unknown quantity 'speed'"),
    ("grid", "cells", [32.7, 32],
     "grid: cells must be whole numbers, got (32.7, 32)"),
    ("scales", "blocks", [[2, 2], [4.5, 4]],
     "scales.blocks: block counts must be whole numbers, got (4.5, 4)"),
    ("grid", "cells", ["a", 32],
     "grid: cells must be whole numbers, got ('a', 32)"),
    ("scales", "blocks", [[2, 2], [4, "x"]],
     "scales.blocks: block counts must be whole numbers, got (4, 'x')"),
    ("grid", "cells", [float("inf"), 32],
     "grid: cells must be whole numbers, got (inf, 32)"),
    # YAML booleans: float(True) is 1.0, so each would load as a number
    ("grid", "extents", [True, 1.0],
     "grid.extents: a boolean is not a number, got [True, 1.0]"),
    ("grid", "cells", [16, True],
     "grid.cells: a boolean is not a number, got [16, True]"),
    ("model", "bounds", [0.25, True],
     "model.bounds: a boolean is not a number, got [0.25, True]"),
    ("model", "c2", {"generator": "linear_depth", "v_top": True,
                     "v_bottom": 2.0},
     "model.c2: generator 'linear_depth': a boolean is not a number"),
    (None, "frequencies_hz", [True],
     "frequencies_hz: a boolean is not a number, got [True]"),
    ("scales", "blocks", [[2, 2], [4, False]],
     "scales.blocks: a boolean is not a number, got [[2, 2], [4, False]]"),
    ("acquisition", "source_spacing", [0.25, True],
     "acquisition.source_spacing: a boolean is not a number, got [0.25, True]"),
    ("acquisition", "receiver_spacing", True,
     "acquisition.receiver_spacing: a boolean is not a number, got True"),
    ("acquisition", "sigma", True,
     "acquisition.sigma: a boolean is not a number, got True"),
    # quoted numbers: tuple("64") would split each into characters
    ("grid", "cells", "64",
     "grid.cells: expected a list of numbers, got the string '64'"),
    ("model", "bounds", "14",
     "model.bounds: expected a list of numbers, got the string '14'"),
    ("scales", "blocks", [[2, 2], "22"],
     "scales.blocks: expected a list of numbers, got the string '22'"),
    ("grid", "extents", "11",
     "grid.extents: expected a list of numbers, got the string '11'"),
    ("model", "c2", 5, "model.c2: expected a mapping"),
    ("model", "c2", {"generator": "spiral"},
     "model.c2: 'generator' must be one of ('two_layer', 'linear_depth', "
     "'constant') (or use 'file'/'text_file'), got 'spiral'"),
    ("model", "c2", {"generator": "two_layer", "v_top": 1.0, "v_bottom": 2.0},
     "model.c2: generator 'two_layer' needs field 'interface_depth'"),
    ("model", "bounds", [0.25, 0.5, 1.0],
     "model.bounds: expected [B1, B2], got [0.25, 0.5, 1.0]"),
    (None, "frequencies_hz", 0.45, "frequencies_hz: expected a non-empty list"),
    (None, "frequencies_hz", ["fast"],
     "frequencies_hz: non-numeric entry 'fast'"),
    ("scales", "blocks", 16,
     "scales.blocks: expected a non-empty list of block counts"),
    ("scales", "blocks", [[2, 2], 4], "scales.blocks: bad entry 4"),
    ("acquisition", "modes", ["side"], "acquisition.modes: unknown mode 'side'"),
    # (2 pi f)^2 overflows or underflows, 2 sigma^2 underflows or overflows
    # or is subnormal (1 / (2 sigma^2) overflows), h^2 underflows
    (None, "frequencies_hz", [1.0e200],
     "frequencies_hz: omega^2 = (2 pi f)^2 is not finite for f = 1e+200 Hz"),
    (None, "frequencies_hz", [1.0e-200],
     "frequencies_hz: omega^2 = (2 pi f)^2 underflows to 0 for f = 1e-200 Hz"),
    ("acquisition", "sigma", 1.0e-200,
     "acquisition.sigma must be finite and positive with a finite nonzero "
     "square, got 1e-200"),
    ("acquisition", "sigma", 1.0e200,
     "acquisition.sigma must be finite and positive with a finite nonzero "
     "square, got 1e+200"),
    ("acquisition", "sigma", 1.0e-160,
     "acquisition.sigma must be finite and positive with a finite nonzero "
     "square, got 1e-160"),
    ("grid", "extents", [1.0e-300, 1.0],
     "grid: 1/h^2 must be positive and finite on every axis, got spacing "
     "(6.25e-302, 0.0625)"),
], ids=["sigma", "receiver_spacing", "modes", "first_scales", "blocks",
        "duplicate_mode", "duplicate_frequency", "nan_frequency",
        "inf_frequency", "inf_bound", "inf_sigma", "directory", "nan_extent",
        "nan_wavespeed", "quantity", "fractional_cells", "fractional_blocks",
        "non_numeric_cells", "non_numeric_blocks",
        "inf_cells", "bool_extent", "bool_cells", "bool_bound",
        "bool_generator_field", "bool_frequency", "bool_blocks",
        "bool_source_spacing", "bool_receiver_spacing", "bool_sigma",
        "string_cells", "string_bounds", "string_block", "string_extents",
        "model_not_a_mapping", "unknown_generator", "generator_field_missing",
        "bounds_not_a_pair", "frequencies_not_a_list", "non_numeric_frequency",
        "blocks_not_a_list", "bad_block_entry", "unknown_mode",
        "huge_frequency", "tiny_frequency", "tiny_sigma", "huge_sigma", "subnormal_sigma",
        "tiny_extent"])
def test_bad_setting_is_a_config_error(tmp_path, capsys, command, section,
                                       field, value, message):
    cfg = base_config(tmp_path / "out")
    cfg["grid"]["cells"] = [16, 16]
    (cfg if section is None else cfg.setdefault(section, {}))[field] = value
    path = write_config(tmp_path, cfg)
    argv = [command, "--config", str(path)]
    if command == "forward":
        argv += ["--out", str(tmp_path / "fwd")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert message in text
    assert "Traceback" not in text
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "fwd").exists()


@pytest.mark.parametrize("spec, message", [
    ({"file": "c2.hsmd"}, "grid mismatch"),
    ({"text_file": "c2.txt"}, "c2.txt: expected 1024 values"),
], ids=["file", "text_file"])
def test_model_file_of_the_wrong_size_is_a_config_error(tmp_path, capsys,
                                                        spec, message):
    # the config grid is 32^2; both files hold a 16^2 field
    from helmstab.geometry import build_grid
    from helmstab.model import write_field

    g = build_grid((1.0, 1.0), (16, 16))
    write_field(tmp_path / "c2.hsmd", g, np.full(g.n_cells, 0.5))
    np.savetxt(tmp_path / "c2.txt", np.full(g.n_cells, 0.5))
    cfg = base_config(tmp_path / "out")
    cfg["model"]["c2"] = spec
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert f"model.c2: {tmp_path}" in text and message in text
    assert "Traceback" not in text


@pytest.mark.parametrize("spec", [{"file": "c2.hsmd"}, {"text_file": "c2.txt"}],
                         ids=["file", "text_file"])
@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_model_file_that_is_not_positive_is_a_config_error(tmp_path, capsys,
                                                           spec, bad):
    from helmstab.geometry import build_grid
    from helmstab.model import write_field

    g = build_grid((1.0, 1.0), (32, 32))
    field = np.full(g.n_cells, 0.5)
    field[7] = bad
    write_field(tmp_path / "c2.hsmd", g, field)
    np.savetxt(tmp_path / "c2.txt", field)
    cfg = base_config(tmp_path / "out")
    cfg["model"]["c2"] = spec
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "model.c2: squared slowness must be positive and finite" in text
    assert "Traceback" not in text


@pytest.mark.parametrize("content, message", [
    (None, "no such file"),
    ("- 1\n- 2\n", "top level must be a mapping"),
    # the reader's error carries no line/column mark
    ("grid: \0\n", "parse error: unacceptable character"),
], ids=["missing", "list", "nul_byte"])
def test_config_file_that_is_not_a_mapping_is_a_config_error(tmp_path, capsys,
                                                             content, message):
    path = tmp_path / "exp.yaml"
    if content is not None:
        path.write_text(content)
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{path}: {message}" in captured.out + captured.err


def test_constant_generator_and_a_single_mode_string_load(tmp_path):
    # c2 is the constant 1 / 1.5^2 at every scale; modes: top reads as [top]
    cfg = base_config(tmp_path / "out")
    cfg["model"]["c2"] = {"generator": "constant", "v": 1.5}
    cfg["acquisition"]["modes"] = "top"
    loaded, errors, _ = cli.load_config(write_config(tmp_path, cfg))
    assert loaded is not None and errors == []
    assert list(loaded.acquisitions) == ["top"]
    for _, c2 in loaded.model_pairs:
        assert c2.n_clamped == 0
        assert np.allclose(c2.values, 1.0 / 1.5 ** 2, rtol=1e-14, atol=0)


def docstring_schema():
    doc = cli.__doc__
    block = doc[doc.index("Config schema::") + len("Config schema::"):
                doc.index("Exit codes:")]
    return textwrap.dedent(block)


def test_docstring_schema_example_loads_cleanly(tmp_path):
    # the example config in the module docstring is valid, raises no
    # warning and projects both models without clamping at every scale
    path = tmp_path / "schema.yaml"
    path.write_text(docstring_schema())
    cfg, errors, warnings_ = cli.load_config(path)
    assert cfg is not None and errors == [] and warnings_ == []
    assert len(cfg.model_pairs) == 3
    for pair in cfg.model_pairs:
        assert [m.n_clamped for m in pair] == [0, 0]


def test_docstring_schema_lists_every_setting():
    # the keys of the documented schema are the keys load_config knows
    raw = yaml.safe_load(docstring_schema())
    documented = {name: set(value) if isinstance(value, dict) else None
                  for name, value in raw.items()}
    assert documented == {name: None if keys is None else set(keys)
                          for name, keys in cli.SCHEMA.items()}


# another valid value of every setting of base_config
OTHER_VALUES = {
    "grid.extents": [1.0, 2.0],
    "grid.cells": [16, 16],
    "model.bounds": [0.2, 1.0],
    "model.c1": {"generator": "constant", "v": 1.5},
    "model.c2": {"generator": "constant", "v": 1.5},
    "frequencies_hz": [0.3],
    "scales.blocks": [[4, 4], [8, 8]],
    "acquisition.modes": ["top", "full"],
    "acquisition.source_spacing": 0.125,
    "acquisition.receiver_spacing": 0.25,
    "acquisition.sigma": 0.1,
    "fit.first_scales": 1,
    "output.directory": "elsewhere",
}


def fed_by_each_setting(cfg) -> dict:
    """Setting name -> one item per place of the loaded config it feeds."""
    grid = cfg.grid()
    models = [m for pair in cfg.model_pairs for m in pair]
    acqs = cfg.acquisitions.values()
    return {
        "grid.extents": [grid.extents],
        "grid.cells": [grid.cells_per_axis],
        "model.bounds": [cfg.bounds, *(m.bounds for m in models),
                         *((f.windows.b1, f.windows.b2)
                           for f in cfg.frequencies)],
        "model.c1": [c1.content_hash() for c1, _ in cfg.model_pairs],
        "model.c2": [c2.content_hash() for _, c2 in cfg.model_pairs],
        "frequencies_hz": [f.omega2 for f in cfg.frequencies],
        "scales.blocks": [c1.partition.blocks_per_axis
                          for c1, _ in cfg.model_pairs],
        "acquisition.modes": list(cfg.acquisitions),
        "acquisition.source_spacing": [a.source_idx.tolist() for a in acqs],
        "acquisition.receiver_spacing": [a.receiver_idx.tolist()
                                         for a in acqs],
        "acquisition.sigma": [a.source_sigma for a in acqs],
        "fit.first_scales": [cfg.first_scales],
        "output.directory": [cfg.out_dir],
    }


@pytest.mark.parametrize("name", [
    section if keys is None else f"{section}.{key}"
    for section, keys in cli.SCHEMA.items() for key in keys or [None]])
def test_every_setting_changes_what_it_feeds(tmp_path, name):
    # a setting that loads but changes nothing should be removed
    cfg = base_config(tmp_path / "out")
    base, _, _ = cli.load_config(write_config(tmp_path, cfg, "base.yaml"))
    section, _, key = name.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[key] = OTHER_VALUES[name]
    other, errors, _ = cli.load_config(write_config(tmp_path, cfg, "other.yaml"))
    assert errors == []
    before = fed_by_each_setting(base)[name]
    after = fed_by_each_setting(other)[name]
    assert len(before) == len(after)
    assert all(a != b for a, b in zip(before, after))


def test_unknown_keys_warn_and_are_ignored(tmp_path):
    # a typo in a section, an unknown section and an unknown top-level
    # scalar each load with one warning and change nothing
    cfg = base_config(tmp_path / "out")
    del cfg["run"]
    cfg["fit"] = {"first_scale": 1}
    cfg["plots"] = {"dpi": 300}
    cfg["seed"] = 3
    loaded, errors, warnings_ = cli.load_config(write_config(tmp_path, cfg))
    assert loaded is not None and not errors
    assert sorted(warnings_) == [
        f"{key} is not a setting of this version; ignored"
        for key in ("fit.first_scale", "plots.dpi", "seed")]
    assert loaded.first_scales is None


def test_plot_data_single_record(tmp_path):
    rec = fill_bounds(make_record(16, 20.0),
                      BoundConstants(k=0.1, k1=0.5, b2=1.0, records_used=1))
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, [rec])
    written = cli.emit_plots(csv_path, tmp_path / "plots")
    assert len(written) == 1
    lines = [ln for ln in open(written[0]) if not ln.startswith("#")]
    assert len(lines) == 1
    cols = lines[0].split()
    assert len(cols) == 5
    assert np.isclose(float(cols[0]), np.log(16))


def test_plot_data_matches_synthetic_upper_bound(tmp_path):
    # records generated exactly from the upper-bound formula: the data curve
    # coincides with the upper-bound curve
    omega2 = 8.0
    consts = BoundConstants(k=0.2, k1=0.5, b2=1.0, records_used=4)
    recs = []
    for n in (4, 16, 64, 256):
        _, upper = evaluate_bounds(n, omega2, consts)
        recs.append(fill_bounds(make_record(n, upper, omega2), consts))
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, recs)
    written = cli.emit_plots(csv_path, tmp_path / "plots")
    for line in open(written[0]):
        if line.startswith("#"):
            continue
        cols = [float(c) for c in line.split()]
        assert np.isclose(cols[1], cols[4], rtol=1e-12)  # data == upper


def test_plot_data_mode_comparison(tmp_path):
    recs = []
    for mode, scale in (("full", 1.0), ("top", 1.5)):
        for n in (4, 16):
            recs.append(make_record(n, 20.0 * scale, mode=mode))
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, recs)
    written = cli.emit_plots(csv_path, tmp_path / "plots")
    modes_file = [w for w in written if w.endswith("_modes.dat")]
    assert len(modes_file) == 1
    text = open(modes_file[0]).read()
    assert "diff mean=" in text and "std=" in text


def test_plot_data_empty_records(tmp_path, caplog):
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, [])
    written = cli.emit_plots(csv_path, tmp_path / "plots")
    assert written == []


def test_windows_command(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    status = cli.main(["windows", "--config", str(path),
                       "--out", str(tmp_path / "win")])
    out = capsys.readouterr().out
    assert status == cli.EXIT_OK
    assert "inside" in out
    assert (tmp_path / "win" / "windows_f0.45.csv").exists()


def test_nearby_frequencies_get_files_of_their_own(tmp_path, capsys):
    # 0.45 and 0.4500001 Hz print alike at 6 significant digits; each keeps
    # its own windows, forward and plot-data files, and a frequency that
    # reads back from 6 digits keeps its short name
    assert [cli._hz_name(f) for f in (2.0, 0.45, 0.4500001, 0.1 + 0.2)] == [
        "2", "0.45", "0.4500001", "0.30000000000000004"]
    cfg = base_config(tmp_path / "out")
    cfg["grid"]["cells"] = [16, 16]
    cfg["scales"]["blocks"] = [[2, 2]]
    cfg["frequencies_hz"] = [0.45, 0.4500001]
    path = write_config(tmp_path, cfg)
    names = ("0.45", "0.4500001")

    assert cli.main(["windows", "--config", str(path),
                     "--out", str(tmp_path / "win")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert all(f"\n{n} Hz -> omega^2" in "\n" + out for n in names)
    assert sorted(os.listdir(tmp_path / "win")) == sorted(
        f"windows_f{n}.csv" for n in names)

    for index in (0, 1):
        assert cli.main(["forward", "--config", str(path),
                         "--out", str(tmp_path / "fwd"),
                         "--frequency-index", str(index)]) == cli.EXIT_OK
    assert sorted(os.listdir(tmp_path / "fwd")) == sorted(
        f"forward_c1_f{n}_full{end}" for n in names
        for end in (".hsdt", "_trace.csv"))

    recs = [dataclasses.replace(make_record(4, 20.0 + i, mode=mode),
                                freq_hz=float(n))
            for i, n in enumerate(names) for mode in ("full", "top")]
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, recs)
    plots = tmp_path / "plots"
    capsys.readouterr()
    assert cli.main(["plot-data", "--records", str(csv_path),
                     "--out", str(plots)]) == cli.EXIT_OK
    printed = capsys.readouterr().out.split()
    expected = [f"plot_f{n}_{kind}.dat" for n in names
                for kind in ("full", "top", "modes")]
    assert sorted(printed) == sorted(str(plots / e) for e in expected)
    assert sorted(os.listdir(plots)) == sorted(expected)
    for n in names:
        header = (plots / f"plot_f{n}_full.dat").read_text().splitlines()[1]
        assert header.startswith(f"# freq_hz={n} mode=full ")


def test_plot_data_names_a_nan_frequency(tmp_path, capsys):
    # a records file is user input: a 'nan' freq_hz has no float that reads
    # back equal, and its plot file is still written, as plot_fnan_...
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, [dataclasses.replace(make_record(4, 20.0),
                                                     freq_hz=float("nan"))])
    plots = tmp_path / "plots"
    assert cli.main(["plot-data", "--records", str(csv_path),
                     "--out", str(plots)]) == cli.EXIT_OK
    assert capsys.readouterr().out.split() == [str(plots / "plot_fnan_full.dat")]
    assert os.listdir(plots) == ["plot_fnan_full.dat"]


def test_windows_csv_lists_the_discrete_eigenvalues(tmp_path):
    # the windows come from the grid's own stencil: lambda_h = sum_a
    # (4 / h_a^2) sin^2(k_a pi / (2 n_a)), k_a = 1 .. n_a - 1
    cfg = base_config(tmp_path / "out")
    cfg["grid"] = {"extents": [1.0, 0.75], "cells": [16, 12]}
    cfg["frequencies_hz"] = [2.0]
    path = write_config(tmp_path, cfg)
    assert cli.main(["windows", "--config", str(path),
                     "--out", str(tmp_path / "win")]) == cli.EXIT_OK
    lines = (tmp_path / "win" / "windows_f2.csv").read_text().splitlines()
    lam = [float(line.split(",")[1]) for line in lines[2:]]
    h = 1.0 / 16
    per_axis = [4.0 / h**2 * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
                for n in (16, 12)]
    exact = np.sort(np.add.outer(*per_axis).ravel())[:len(lam)]
    assert len(lam) >= 5
    assert np.allclose(lam, exact, rtol=1e-14)


def test_frequency_between_discrete_and_continuum_resonance(tmp_path, capsys):
    # at 16^2 the coefficient c^-2 = B2 resonates at omega^2 = 19.676, below
    # the continuum edge 2 pi^2 = 19.739; 0.7066 Hz (omega^2 = 19.711) lies
    # between them and used to validate as inside the first window
    cfg = base_config(tmp_path / "out")
    cfg["grid"]["cells"] = [16, 16]
    cfg["frequencies_hz"] = [0.7066]
    cfg["scales"]["blocks"] = [[2, 2]]
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
    assert "outside every admissible window" in capsys.readouterr().out
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_TOTAL
    assert "nearest window (0.0, 19.67587286" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "forward", "windows"])
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, command):
    # an existing file, and a path below one, used to raise FileExistsError
    # and NotADirectoryError from os.makedirs
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    for out in (blocker, blocker / "x"):
        status = cli.main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == cli.EXIT_CONFIG
        assert f"error: output directory {out}: " in err
        assert "Traceback" not in err
    assert blocker.read_text() == ""


def test_forward_command(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    status = cli.main(["forward", "--config", str(path),
                       "--out", str(tmp_path / "fwd"), "--model", "c2"])
    assert status == cli.EXIT_OK
    names = os.listdir(tmp_path / "fwd")
    assert any(n.endswith(".hsdt") for n in names)
    assert any(n.endswith("_trace.csv") for n in names)

    # --mode must name a mode the config lists
    cfg = base_config(tmp_path / "out")
    cfg["acquisition"]["modes"] = ["full"]
    path = write_config(tmp_path, cfg, "full_only.yaml")
    capsys.readouterr()
    status = cli.main(["forward", "--config", str(path), "--out",
                       str(tmp_path / "fwd_top"), "--mode", "top"])
    err = capsys.readouterr().err
    assert status == cli.EXIT_CONFIG
    assert "error: --mode top: acquisition.modes lists only ['full']" in err
    assert not (tmp_path / "fwd_top").exists()


def test_run_flag_overrides(tmp_path):
    out = tmp_path / "cli_out"
    path = write_config(tmp_path, base_config(tmp_path / "ignored"))
    status = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert status == cli.EXIT_OK
    assert (out / "records.csv").exists()


@pytest.mark.parametrize("command, name", [
    ("run", "records.csv"),
    ("run", "constants.csv"),
    ("windows", "windows_f0.45.csv"),
    ("forward", "forward_c1_f0.45_full.hsdt"),
    ("forward", "forward_c1_f0.45_full_trace.csv"),
])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, command,
                                                  name):
    # a directory where an output file goes used to end the command with an
    # IsADirectoryError traceback and leave the .tmp file behind
    cfg = base_config(tmp_path / "out")
    cfg["scales"]["blocks"] = [[2, 2]]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    status = cli.main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert status == cli.EXIT_CONFIG
    assert f"error: {out / name}: " in err
    assert "Traceback" not in err
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]
    if name == "records.csv":
        # the campaign stops at the first write that fails
        assert "cell(s) failed" not in err
        assert not (out / "constants.csv").exists()


def test_failing_final_records_write_is_a_config_error(tmp_path, capsys,
                                                       monkeypatch):
    # one cell: its records flush succeeds, the flush after the constant fit
    # writes the temporary file and then fails
    cfg = base_config(tmp_path / "out")
    cfg["scales"]["blocks"] = [[2, 2]]
    cfg["acquisition"]["modes"] = ["full"]
    path = write_config(tmp_path, cfg)
    calls = []

    def write_then_fail(path, *args, **kwargs):
        calls.append(path)
        write_records_csv(path, *args, **kwargs)
        if len(calls) == 2:
            raise OSError("disk full")

    monkeypatch.setattr(stability, "write_records_csv", write_then_fail)
    status = cli.main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    out = tmp_path / "out"
    assert status == cli.EXIT_CONFIG
    assert len(calls) == 2
    assert f"error: {out / 'records.csv'}: disk full" in err
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]
    assert not (out / "constants.csv").exists()


def test_clamped_subdomains_warn(tmp_path):
    # c2 runs from 3 to 2 m/s: every block mean of c^-2 lies below B1 = 0.25
    cfg = base_config(tmp_path / "out")
    cfg["grid"]["cells"] = [16, 16]
    cfg["model"]["c2"] = {"generator": "linear_depth", "v_top": 3.0,
                          "v_bottom": 2.0}
    loaded, errors, warnings_ = cli.load_config(write_config(tmp_path, cfg))
    assert loaded is not None and not errors
    assert [w for w in warnings_ if w.startswith("model.")] == [
        "model.c2: N=4: 4 of 4 subdomains clamped into [0.25, 1]",
        "model.c2: N=16: 16 of 16 subdomains clamped into [0.25, 1]",
    ]
    assert [m2.n_clamped for _, m2 in loaded.model_pairs] == [4, 16]


def test_plot_data_command(tmp_path, capsys):
    recs = [make_record(n, 20.0, mode=mode)
            for mode in ("full", "top") for n in (4, 16)]
    csv_path = tmp_path / "records.csv"
    write_records_csv(csv_path, recs)
    plots = tmp_path / "plots"
    assert cli.main(["plot-data", "--records", str(csv_path),
                     "--out", str(plots)]) == cli.EXIT_OK
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert sorted(printed) == sorted(str(plots / n) for n in os.listdir(plots))

    status = cli.main(["plot-data", "--records", str(tmp_path / "missing.csv"),
                       "--out", str(plots)])
    err = capsys.readouterr().err
    assert status == cli.EXIT_CONFIG
    assert err.startswith("error: ") and "missing.csv" in err


def test_forward_frequency_index_out_of_range(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    status = cli.main(["forward", "--config", str(path), "--out",
                       str(tmp_path / "fwd"), "--frequency-index", "5"])
    assert status == cli.EXIT_CONFIG
    assert "error: frequency index 5 out of range" in capsys.readouterr().err
    assert not (tmp_path / "fwd").exists()


def test_forward_outside_the_windows(tmp_path, capsys):
    # 0.75 Hz (omega^2 = 22.2) lies above the first discrete eigenvalue of
    # c^-2 = B2 = 1 (19.7 at 32^2) and below that of B1 = 0.25 (79)
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [0.75]
    path = write_config(tmp_path, cfg)
    args = ["forward", "--config", str(path), "--out", str(tmp_path / "fwd")]
    assert cli.main(args) == cli.EXIT_TOTAL
    err = capsys.readouterr().err
    assert "error: omega^2=22.2066099 outside every admissible window" in err
    assert not os.listdir(tmp_path / "fwd")
    assert cli.main(args + ["--override-window-check"]) == cli.EXIT_OK
    assert len(os.listdir(tmp_path / "fwd")) == 2
