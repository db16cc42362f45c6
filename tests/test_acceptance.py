"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest
import yaml

from helmstab import cli, forward, spectrum, stability
from helmstab.derivative import (
    alessandrini_pairing,
    default_step,
    frechet_directional,
    frechet_pairing_first_order,
    taylor_remainder,
)
from helmstab.forward import (
    MODE_FULL,
    MODE_TOP,
    dtn_operator_norm,
    forward_map,
    gaussian_source,
    make_acquisition,
)
from helmstab.geometry import build_grid, build_partition
from helmstab.model import (
    SquaredSlownessModel,
    from_gridded_field,
    linear_depth_field,
    two_layer_field,
)
from helmstab.solver import HelmholtzSystem, solve_dirichlet
from helmstab.stability import (
    BoundConstants,
    estimate_constant,
    evaluate_bounds,
    fit_constants,
    fractional_sobolev_check,
)

BOUNDS = (0.25, 1.0)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def mms_error(extents, cells):
    grid = build_grid(extents, cells)
    sys_ = HelmholtzSystem(grid, np.ones(grid.n_cells), 1.0)
    xy = grid.all_node_coordinates()
    ustar = np.cos(np.pi * xy[:, 0])
    for a in range(1, grid.dim):
        ustar = ustar * np.cos(np.pi * xy[:, a])
    f = (grid.dim * np.pi**2 - 1.0) * ustar[grid.interior_nodes]
    u = solve_dirichlet(sys_, ustar[grid.boundary_nodes], f)
    w = sys_.node_volumes
    return float(np.sqrt(np.sum(w * (u - ustar) ** 2) / np.sum(w * ustar**2)))


def test_criterion_1_solver_convergence():
    orders = []
    worst_2d = 0.0
    errs2 = []
    for n in (16, 32, 64):
        t0 = time.perf_counter()
        errs2.append(mms_error((1.0, 1.0), (n, n)))
        worst_2d = max(worst_2d, time.perf_counter() - t0)
    orders += [np.log2(errs2[i] / errs2[i + 1]) for i in range(2)]

    errs3 = [mms_error((1.0, 1.0, 1.0), (n, n, n)) for n in (8, 16, 32)]
    orders += [np.log2(errs3[i] / errs3[i + 1]) for i in range(2)]

    ok = all(abs(o - 2.0) <= 0.2 for o in orders) and worst_2d < 10.0
    report(1, "manufactured-solution order 2.0 +- 0.2 in 2D and 3D", ok,
           f"orders {[f'{o:.3f}' for o in orders]}, slowest 2D case "
           f"{worst_2d:.2f}s")


def test_criterion_2_dtn_symmetry():
    grid = build_grid((1.0, 1.0), (32, 32))
    sys_ = HelmholtzSystem(grid, np.full(grid.n_cells, 0.5), 6.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        ga = rng.normal(size=grid.n_boundary)
        hb = rng.normal(size=grid.n_boundary)
        pa = float(np.dot(sys_.flux_rows.dot(solve_dirichlet(sys_, ga)), hb))
        pb = float(np.dot(sys_.flux_rows.dot(solve_dirichlet(sys_, hb)), ga))
        worst = max(worst, abs(pa - pb) / max(abs(pa), abs(pb)))
    report(2, "weighted DtN pairing symmetry residual < 1e-8 (10 trials)",
           worst < 1e-8, f"worst residual {worst:.3e}")


def _alessandrini_mismatch(n):
    grid = build_grid((1.0, 1.0), (n, n))
    p = build_partition(grid, (4, 4))
    rng = np.random.default_rng(42)
    v = np.full(p.n_subdomains, 0.5)
    m1 = SquaredSlownessModel(p, v, BOUNDS)
    m2 = SquaredSlownessModel(
        p, v * (1.0 + 0.05 * rng.uniform(0.2, 1.0, p.n_subdomains)), BOUNDS)
    g = gaussian_source(grid, (0.4, 0.0), 0.1)
    h = gaussian_source(grid, (0.6, 1.0), 0.1)
    return alessandrini_pairing(m1, m2, g, h, 4.0).relative_mismatch


def test_criterion_3_alessandrini_identity():
    m32 = _alessandrini_mismatch(32)
    m64 = _alessandrini_mismatch(64)
    ok = m64 < 1e-2 and (m32 / m64) >= 3.0
    report(3, "Alessandrini boundary/volume mismatch < 1e-2 and decreasing",
           ok, f"32^2: {m32:.3e}, 64^2: {m64:.3e}, factor {m32 / m64:.2f}")


def test_criterion_4_frechet_derivative():
    grid = build_grid((1.0, 1.0), (24, 24))
    p = build_partition(grid, (4, 4))
    rng = np.random.default_rng(7)
    base = SquaredSlownessModel(
        p, 0.5 + 0.1 * rng.uniform(-1.0, 1.0, p.n_subdomains), (0.2, 1.0))
    acq = make_acquisition(grid, MODE_FULL, 0.3, 0.2, 0.08)
    omega2 = 6.0
    eps = default_step(base)

    ratios = []
    agreements = []
    for _ in range(3):
        direction = rng.normal(size=p.n_subdomains)
        direction /= np.max(np.abs(direction))
        df = frechet_directional(base, direction, omega2, acq)
        r_eps = taylor_remainder(base, direction, omega2, acq, eps, df)
        r_half = taylor_remainder(base, direction, omega2, acq, eps / 2, df)
        ratios.append(r_eps / r_half)
        pair = frechet_directional(base, direction, omega2, acq,
                                   convention="pairing")
        flux = frechet_pairing_first_order(base, direction, omega2, acq)
        agreements.append(np.max(np.abs(pair - flux))
                          / np.max(np.abs(pair)))
    ok = all(3.5 <= r <= 4.5 for r in ratios) and all(a <= 1e-8
                                                      for a in agreements)
    report(4, "Taylor remainder ratio in [3.5, 4.5]; implementations agree "
              "to 1e-8", ok,
           f"ratios {[f'{r:.3f}' for r in ratios]}, worst agreement "
           f"{max(agreements):.2e}")


def test_criterion_5_eigenvalue_sandwich():
    grid = build_grid((1.0, 1.0), (48, 48))
    lam = spectrum.discrete_dirichlet_eigenvalues(grid, np.ones(grid.n_cells), 5)
    rng = np.random.default_rng(11)
    b1, b2 = 0.3, 1.4
    ok = True
    margin = np.inf
    for _ in range(3):
        coeff = rng.uniform(b1, b2, grid.n_cells)
        tl = spectrum.discrete_dirichlet_eigenvalues(grid, coeff, 5)
        ok &= bool(np.all(lam / b2 <= tl * (1 + 1e-10))
                   and np.all(tl <= lam / b1 * (1 + 1e-10)))
        margin = min(margin, float(np.min(tl - lam / b2)),
                     float(np.min(lam / b1 - tl)))
    report(5, "discrete eigenvalue sandwich lambda_n/B2 <= ~lambda_n <= "
              "lambda_n/B1 (first 5, 3 coefficients)", ok,
           f"worst margin {margin:.3e}")


def test_criterion_6_energy_blowup():
    grid = build_grid((1.0, 1.0), (32, 32))
    coeff = np.ones(grid.n_cells)
    lam1 = float(spectrum.discrete_dirichlet_eigenvalues(grid, coeff, 1)[0])
    norms = []
    eps_list = (0.2, 0.1, 0.05, 0.025)
    for eps in eps_list:
        sys_ = HelmholtzSystem(grid, coeff, lam1 * (1.0 - eps))
        u = solve_dirichlet(sys_, np.ones(grid.n_boundary))
        norms.append(float(np.sqrt(np.sum(sys_.node_volumes * u * u))))
    ratios = [norms[i + 1] / norms[i] for i in range(3)]
    predicted = [eps_list[i] / eps_list[i + 1] for i in range(3)]
    ok = all(abs(r / p - 1.0) <= 0.25 for r, p in zip(ratios, predicted))
    report(6, "solution norm grows like 1/eps approaching the resonance",
           ok, f"ratios {[f'{r:.3f}' for r in ratios]} vs predicted "
               f"{predicted}")


def test_criterion_7_fractional_sobolev():
    rng = np.random.default_rng(31)
    grid = build_grid((1.0, 1.0), (32, 32))
    worst_time = 0.0
    ok = True
    details = []
    for trial in range(5):
        blocks = rng.choice([2, 3, 4], size=2)
        p = build_partition(grid, tuple(int(b) for b in blocks))
        m = SquaredSlownessModel(p, rng.uniform(1.0, 2.0, p.n_subdomains),
                                 (1.0, 2.0))
        t0 = time.perf_counter()
        rep = fractional_sobolev_check(m, 0.25, 10**6, rng=trial)
        worst_time = max(worst_time, time.perf_counter() - t0)
        ok &= rep.satisfied
        details.append(rep.rhs_total / rep.lhs if rep.lhs else np.inf)
    ok &= worst_time < 60.0
    report(7, "fractional-Sobolev inequality holds within 3 sigma "
              "(5 partitions, 1e6 pairs)", ok,
           f"rhs/lhs ratios {[f'{d:.2f}' for d in details]}, slowest "
           f"{worst_time:.1f}s")


def _trend_campaign():
    grid = build_grid((1.0, 1.0), (64, 64))
    f1 = two_layer_field(grid, 1.0, 2.0, 0.5)
    f2 = linear_depth_field(grid, 1.0, 2.0)
    omega2 = (2.0 * np.pi * 0.45) ** 2
    results = {}
    for mode in (MODE_FULL, MODE_TOP):
        acq = make_acquisition(grid, mode, 0.25, 0.125, 0.08)
        per_scale = []
        for blocks in ((2, 2), (4, 4), (8, 8), (16, 16)):
            part = build_partition(grid, blocks)
            m1 = from_gridded_field(f1, part, BOUNDS)
            m2 = from_gridded_field(f2, part, BOUNDS)
            per_scale.append(estimate_constant(m1, m2, omega2, acq,
                                               freq_hz=0.45))
        results[mode] = per_scale
    return results


@pytest.fixture(scope="module")
def trend_records():
    t0 = time.perf_counter()
    results = _trend_campaign()
    return results, time.perf_counter() - t0


def test_criterion_8_stability_trend(trend_records):
    results, elapsed = trend_records
    c_full = [r.c_est for r in results[MODE_FULL]]
    ok = elapsed < 300.0
    for a, b in zip(c_full, c_full[1:]):
        ok &= b >= a * 0.95  # no decrease beyond 5%
    report(8, "stability constant nondecreasing across N in {4,16,64,256}",
           ok, f"c_est {[f'{c:.3f}' for c in c_full]}, campaign "
               f"{elapsed:.1f}s")


def test_criterion_9_bound_fit_round_trip():
    omega2 = (2.0 * np.pi * 5.0) ** 2
    b2 = (1.0 / 1400.0) ** 2
    truth = BoundConstants(k=0.05, k1=0.7, b2=b2, records_used=4)
    lows, ups = [], []
    for n in (45, 360, 2880, 23040):
        lower, upper = evaluate_bounds(n, omega2, truth)
        lows.append(stability.StabilityRecord(
            n_subdomains=n, omega2=omega2, freq_hz=5.0, model_l2=1.0,
            data_norm=1.0 / lower, c_est=lower, mode="full"))
        ups.append(stability.StabilityRecord(
            n_subdomains=n, omega2=omega2, freq_hz=5.0, model_l2=1.0,
            data_norm=1.0 / upper, c_est=upper, mode="full"))
    err_k1 = abs(fit_constants(lows, b2=b2).k1 - 0.7)
    err_k = abs(fit_constants(ups, b2=b2, first_scale_count=4).k - 0.05)
    ok = err_k1 < 1e-12 and err_k < 1e-12
    report(9, "fitting recovers K and K1 from synthetic bound records",
           ok, f"|dK1| {err_k1:.2e}, |dK| {err_k:.2e}")


def test_criterion_10_full_vs_partial(trend_records):
    results, _ = trend_records
    full = results[MODE_FULL]
    top = results[MODE_TOP]
    ok = True
    diffs = []
    for rf, rt in zip(full, top):
        ok &= rt.data_norm <= rf.data_norm
        ok &= rt.c_est >= rf.c_est
        diffs.append(np.log(np.log(rt.omega2 * rt.c_est))
                     - np.log(np.log(rf.omega2 * rf.c_est)))

    # sub-block fact behind the ordering, asserted exactly
    grid = build_grid((1.0, 1.0), (64, 64))
    part = build_partition(grid, (4, 4))
    f1 = two_layer_field(grid, 1.0, 2.0, 0.5)
    f2 = linear_depth_field(grid, 1.0, 2.0)
    m1 = from_gridded_field(f1, part, BOUNDS)
    m2 = from_gridded_field(f2, part, BOUNDS)
    omega2 = (2.0 * np.pi * 0.45) ** 2
    acq_full = make_acquisition(grid, MODE_FULL, 0.25, 0.125, 0.08)
    acq_top = make_acquisition(grid, MODE_TOP, 0.25, 0.125, 0.08)
    d_full = forward_map(m1, omega2, acq_full)
    # the top data come from their own solves, not from the kept full rows
    forward.clear_caches()
    d_top = forward_map(m1, omega2, acq_top)
    si = np.searchsorted(acq_full.source_idx, acq_top.source_idx)
    ri = np.searchsorted(acq_full.receiver_idx, acq_top.receiver_idx)
    ok &= bool(np.array_equal(d_full.values[np.ix_(si, ri)], d_top.values))

    diffs = np.asarray(diffs)
    report(10, "top-only data is an exact sub-block; c_est(top) >= "
               "c_est(full) per scale", ok,
           f"loglog diff per N: mean {np.mean(diffs):.4f}, "
           f"spread (std) {np.std(diffs):.4f} [descriptive]")


def test_criterion_11_campaign_determinism(tmp_path):
    cfg = {
        "grid": {"extents": [1.0, 1.0], "cells": [48, 48]},
        "model": {
            "bounds": [0.25, 1.0],
            "c1": {"generator": "two_layer", "v_top": 1.0, "v_bottom": 2.0,
                   "interface_depth": 0.5},
            "c2": {"generator": "linear_depth", "v_top": 1.0, "v_bottom": 2.0},
        },
        "frequencies_hz": [0.45],
        "scales": {"blocks": [[2, 2], [4, 4], [8, 8]]},
        "acquisition": {"modes": ["full", "top"], "source_spacing": 0.25,
                        "receiver_spacing": 0.125, "sigma": 0.08},
        "run": {"workers": 1, "seed": 3},
    }
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg["output"] = {"directory": str(out)}
        path = tmp_path / f"{run}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        status = cli.main(["run", "--config", str(path)])
        assert status == cli.EXIT_OK
        outputs.append(((out / "records.csv").read_bytes(),
                        (out / "constants.csv").read_bytes()))
    ok = outputs[0] == outputs[1]
    report(11, "same config + seed produce byte-identical CSV outputs", ok,
           f"{len(outputs[0][0])} record bytes compared")
