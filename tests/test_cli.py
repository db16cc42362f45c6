import os

import numpy as np
import pytest
import yaml

from helmstab import cli
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
    # sources are solved in blocks on one thread, every system goes through
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


def test_partial_failure_keeps_going(tmp_path):
    # second frequency violates the window check -> those cells fail
    cfg = base_config(tmp_path / "out")
    cfg["frequencies_hz"] = [0.45, 10.0]
    path = write_config(tmp_path, cfg)
    status = cli.main(["run", "--config", str(path)])
    assert status == cli.EXIT_PARTIAL
    rows = read_records_csv(tmp_path / "out" / "records.csv")
    assert len(rows) == 4  # the 0.45 Hz cells survived


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
    from helmstab import solver

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
                        lambda mat: calls.append(mat.shape) or splu(mat))
    solver.clear_caches()
    assert cli.run_campaign(loaded) == cli.EXIT_OK
    assert len(calls) == 2
    assert solver.cache_info()["misses"] == 2


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


@pytest.mark.parametrize("command", ["run", "forward"])
def test_truncated_model_file_is_a_config_error(tmp_path, capsys, command):
    argv = [command, "--config", str(truncated_model_config(tmp_path))]
    if command == "forward":
        argv += ["--out", str(tmp_path / "out")]
    status = cli.main(argv)
    err = capsys.readouterr().err
    assert status == cli.EXIT_CONFIG
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "c1.hsmd" in errors[0]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_warns_that_absorbing_is_ignored(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["scales"] = {"blocks": [[2, 2]]}
    cfg["acquisition"]["absorbing"] = True
    status = cli.main(["run", "--config", str(write_config(tmp_path, cfg))])
    assert status == cli.EXIT_OK
    assert ("warning: acquisition.absorbing applies only to 'helmstab "
            "forward'; run ignores it") in capsys.readouterr().err


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


def test_forward_command(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    status = cli.main(["forward", "--config", str(path),
                       "--out", str(tmp_path / "fwd"), "--model", "c2"])
    assert status == cli.EXIT_OK
    names = os.listdir(tmp_path / "fwd")
    assert any(n.endswith(".hsdt") for n in names)
    assert any(n.endswith("_trace.csv") for n in names)


def test_run_flag_overrides(tmp_path):
    out = tmp_path / "cli_out"
    path = write_config(tmp_path, base_config(tmp_path / "ignored"))
    status = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert status == cli.EXIT_OK
    assert (out / "records.csv").exists()
