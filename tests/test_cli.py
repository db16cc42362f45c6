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
    # sources are solved in blocks on one thread; run.workers no longer exists
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    loaded, errors, warnings_ = cli.load_config(path)
    assert loaded is not None and not errors
    assert any("run.workers" in w for w in warnings_)
    assert not hasattr(loaded, "workers")


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
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = base_config(out1)
    cfg2 = base_config(out2)
    cfg2["run"]["cache"] = False
    p1 = write_config(tmp_path, cfg1, "a.yaml")
    p2 = write_config(tmp_path, cfg2, "b.yaml")
    cli.main(["run", "--config", str(p1)])
    cli.main(["run", "--config", str(p2)])
    rows1 = read_records_csv(out1 / "records.csv")
    rows2 = read_records_csv(out2 / "records.csv")
    for r1, r2 in zip(rows1, rows2):
        assert abs(r1["c_est"] - r2["c_est"]) <= 1e-14 * abs(r1["c_est"])
        assert abs(r1["data_norm"] - r2["data_norm"]) <= 1e-14 * r1["data_norm"]


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
    status = cli.main(["run", "--config", str(path), "--out", str(out),
                       "--seed", "7"])
    assert status == cli.EXIT_OK
    assert (out / "records.csv").exists()
    text = (out / "records.csv").read_text()
    assert "# seed: 7" in text
