import numpy as np
import pytest

from helmstab.errors import DegenerateInputError, IllConditionedEstimateError
from helmstab.forward import NORM_KIND, make_acquisition
from helmstab.geometry import build_grid, build_partition
from helmstab.model import SquaredSlownessModel, from_gridded_field
from helmstab.stability import (
    BoundConstants,
    BoundOverflowWarning,
    StabilityRecord,
    estimate_constant,
    evaluate_bounds,
    fill_bounds,
    fit_constants,
    fractional_sobolev_check,
    read_records_csv,
    write_records_csv,
)

BOUNDS = (0.25, 1.0)


def make_record(n, c_est, omega2=8.0, mode="full"):
    return StabilityRecord(
        n_subdomains=n, omega2=omega2, freq_hz=np.sqrt(omega2) / (2 * np.pi),
        model_l2=1.0, data_norm=1.0 / c_est, c_est=c_est, mode=mode)


@pytest.fixture
def pipeline():
    g = build_grid((1.0, 1.0), (32, 32))
    p = build_partition(g, (4, 4))
    rng = np.random.default_rng(13)
    v = 0.5 + 0.1 * rng.uniform(-1.0, 1.0, p.n_subdomains)
    m1 = SquaredSlownessModel(p, v, BOUNDS)
    m2 = SquaredSlownessModel(p, v + 0.02, BOUNDS)
    acq = make_acquisition(g, "full", 0.25, 0.125, 0.08)
    return m1, m2, acq


def test_constant_shift_single_subdomain():
    g = build_grid((1.0, 1.0), (16, 16))
    p = build_partition(g, (1, 1))
    m1 = SquaredSlownessModel(p, np.array([0.5]), BOUNDS)
    m2 = SquaredSlownessModel(p, np.array([0.8]), BOUNDS)
    acq = make_acquisition(g, "full", 0.25, 0.25, 0.1)
    rec = estimate_constant(m1, m2, 8.0, acq)
    # |Omega| = 1: the L2 distance is exactly the shift
    assert np.isclose(rec.model_l2, 0.3, rtol=1e-14)
    assert np.isfinite(rec.c_est) and rec.c_est > 0
    assert rec.c_est_sq == rec.c_est**2
    assert rec.norm_kind == NORM_KIND


def test_identical_models_rejected(pipeline):
    m1, _, acq = pipeline
    with pytest.raises(DegenerateInputError):
        estimate_constant(m1, m1, 8.0, acq)


def test_partition_mismatch_rejected(pipeline):
    m1, _, acq = pipeline
    other = build_partition(m1.grid, (2, 2))
    m_other = SquaredSlownessModel(other, np.full(4, 0.5), BOUNDS)
    with pytest.raises(ValueError):
        estimate_constant(m1, m_other, 8.0, acq)


def test_partition_mismatch_checked_before_identical_values(pipeline):
    # 2 x 8 blocks have as many subdomains as m1's 4 x 4, so the same values
    # on them must not read as identical models
    m1, _, acq = pipeline
    other = build_partition(m1.grid, (2, 8))
    m_other = SquaredSlownessModel(other, m1.values, BOUNDS)
    with pytest.raises(ValueError, match="models live on different partitions"):
        estimate_constant(m1, m_other, 8.0, acq)


def test_ill_conditioned_guard(pipeline, monkeypatch):
    # a vanishing data difference cannot come out of the real solver, so
    # force the norm to zero to exercise the threshold branch
    m1, m2, acq = pipeline
    monkeypatch.setattr("helmstab.stability.dtn_operator_norm",
                        lambda a, b: 0.0)
    with pytest.raises(IllConditionedEstimateError):
        estimate_constant(m1, m2, 8.0, acq)


def test_record_fields_filled(pipeline):
    m1, m2, acq = pipeline
    rec = estimate_constant(m1, m2, 8.0, acq, freq_hz=0.45)
    assert rec.n_subdomains == 16
    assert rec.freq_hz == 0.45
    assert rec.mode == "full"
    assert rec.lower_bound is None and rec.upper_bound is None


def test_bounds_plugin_values():
    # lower bound at N=1, K1=1: e / (4 omega^2)
    omega2 = (2 * np.pi * 5.0) ** 2
    consts = BoundConstants(k=0.05, k1=1.0, b2=(1.0 / 1400.0) ** 2,
                            records_used=1)
    lower, upper = evaluate_bounds(1, omega2, consts)
    assert np.isclose(lower, np.e / (4 * omega2), rtol=1e-12)
    assert np.isclose(upper, np.exp(0.05 * (1 + omega2 * consts.b2)) / omega2,
                      rtol=1e-12)


def test_bound_gap_grows_with_n():
    # matching exponents 4/7 > 1/5: the upper/lower ratio grows with N
    consts = BoundConstants(k=0.1, k1=0.1, b2=1e-6, records_used=1)
    ratios = []
    for n in (10, 100, 1000, 10000):
        lower, upper = evaluate_bounds(n, 100.0, consts)
        ratios.append(upper / lower)
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_bounds_saturate_with_flag():
    consts = BoundConstants(k=1.0, k1=1.0, b2=1.0, records_used=1)
    with pytest.warns(BoundOverflowWarning):
        lower, upper = evaluate_bounds(10**30, 1.0, consts)
    assert upper == np.finfo(np.float64).max
    assert lower == np.finfo(np.float64).max


def test_bounds_validate_arguments():
    consts = BoundConstants(k=0.1, k1=0.1, b2=1.0, records_used=1)
    with pytest.raises(ValueError):
        evaluate_bounds(0, 1.0, consts)
    # NaN used to give (nan, nan)
    for omega2 in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            evaluate_bounds(4, omega2, consts)
    with pytest.raises(ValueError, match="need at least one record"):
        BoundConstants(k=0.1, k1=0.1, b2=1.0, records_used=0)
    for k, k1 in ((np.nan, 0.1), (0.1, np.inf)):
        with pytest.raises(ValueError, match="fitted constants must be finite"):
            BoundConstants(k=k, k1=k1, b2=1.0, records_used=1)


def test_fit_k1_inverts_single_record():
    # arranged so log(4 omega^2 C) = N^(1/5) exactly -> k1 = 1
    omega2 = 8.0
    n = 32
    c_est = np.exp(n**0.2) / (4 * omega2)
    fit = fit_constants([make_record(n, c_est, omega2)], b2=1.0)
    assert np.isclose(fit.k1, 1.0, rtol=1e-14)


@pytest.mark.parametrize("k_true", [0.1, 0.37])
def test_fit_k_round_trip(k_true):
    omega2 = 8.0
    b2 = 1.0
    consts = BoundConstants(k=k_true, k1=0.5, b2=b2, records_used=1)
    records = [
        make_record(n, evaluate_bounds(n, omega2, consts)[1], omega2)
        for n in (4, 16, 64, 256)
    ]
    fit = fit_constants(records, b2=b2, first_scale_count=4)
    assert abs(fit.k - k_true) < 1e-12


def test_fit_k1_round_trip():
    omega2 = 8.0
    consts = BoundConstants(k=0.2, k1=0.7, b2=1.0, records_used=1)
    records = [
        make_record(n, evaluate_bounds(n, omega2, consts)[0], omega2)
        for n in (4, 16, 64, 256)
    ]
    fit = fit_constants(records, b2=1.0)
    assert abs(fit.k1 - 0.7) < 1e-12
    assert fit.records_used == 4
    assert fit.first_scale_count == 2  # default: first half of the scales


def test_fit_rejects_mixed_frequencies_and_bad_estimates():
    r1 = make_record(4, 10.0, omega2=8.0)
    r2 = make_record(16, 12.0, omega2=9.0)
    with pytest.raises(ValueError):
        fit_constants([r1, r2], b2=1.0)
    with pytest.raises(ValueError):
        fit_constants([make_record(4, -1.0)], b2=1.0)
    with pytest.raises(ValueError):
        fit_constants([], b2=1.0)


def test_fill_bounds_round_trip():
    consts = BoundConstants(k=0.1, k1=0.5, b2=1.0, records_used=1)
    rec = make_record(16, 10.0)
    filled = fill_bounds(rec, consts)
    lower, upper = evaluate_bounds(16, rec.omega2, consts)
    assert filled.lower_bound == lower
    assert filled.upper_bound == upper
    assert filled.c_est == rec.c_est


def test_sobolev_single_subdomain_trivial():
    g = build_grid((1.0, 1.0), (8, 8))
    p = build_partition(g, (1, 1))
    m = SquaredSlownessModel(p, np.array([0.7]), BOUNDS)
    rep = fractional_sobolev_check(m, 0.25, 20_000, rng=0)
    # a constant has zero seminorm over Omega x Omega: 0 <= 0
    assert rep.lhs == 0.0
    assert rep.rhs_total == 0.0
    assert rep.satisfied


def test_sobolev_two_subdomain_factor_two():
    # c = (~0, 1): LHS = ||chi_2||^2 while RHS = 2 ||chi_2||^2 exactly
    g = build_grid((1.0, 1.0), (8, 8))
    p = build_partition(g, (2, 1))
    m = SquaredSlownessModel(p, np.array([1e-12, 1.0]), (1e-12, 1.0))
    rep = fractional_sobolev_check(m, 0.25, 50_000, rng=1)
    assert np.isclose(rep.rhs_total / rep.lhs, 2.0, rtol=1e-6)
    assert rep.satisfied


def test_sobolev_random_partition_within_error_bars():
    g = build_grid((1.0, 1.0), (16, 16))
    p = build_partition(g, (4, 4))
    rng = np.random.default_rng(2)
    m = SquaredSlownessModel(p, rng.uniform(1.0, 2.0, 16), (1.0, 2.0))
    rep = fractional_sobolev_check(m, 0.25, 100_000, rng=3)
    assert rep.satisfied
    assert rep.defect >= 0.0            # pointwise inequality, shared samples
    assert rep.samples_used + rep.samples_rejected == 100_000
    assert rep.per_subdomain.shape == (16,)
    assert np.all(rep.per_subdomain >= 0.0)


def test_sobolev_validates_arguments():
    g = build_grid((1.0, 1.0), (8, 8))
    m = SquaredSlownessModel(build_partition(g, (2, 2)), np.full(4, 0.5), BOUNDS)
    with pytest.raises(ValueError):
        fractional_sobolev_check(m, 0.5, 1000)
    with pytest.raises(ValueError):
        fractional_sobolev_check(m, 0.0, 1000)
    with pytest.raises(ValueError, match="need a positive sample count"):
        fractional_sobolev_check(m, 0.25, 0)
    with pytest.warns(UserWarning):
        fractional_sobolev_check(m, 0.25, 100, rng=0)


def test_records_csv_round_trip(tmp_path):
    recs = [make_record(4, 10.0), make_record(16, 20.0)]
    consts = BoundConstants(k=0.1, k1=0.5, b2=1.0, records_used=2)
    recs = [fill_bounds(r, consts) for r in recs]
    path = tmp_path / "records.csv"
    write_records_csv(path, recs, comments=["norm_kind: " + NORM_KIND])
    rows = read_records_csv(path)
    assert [r["N"] for r in rows] == [4, 16]
    assert rows[0]["c_est"] == 10.0
    assert rows[0]["c_est_sq"] == 100.0
    assert rows[1]["lower_bound"] == recs[1].lower_bound
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith("#")


def test_top_mode_estimate_not_below_full(pipeline):
    m1, m2, _ = pipeline
    grid = m1.grid
    full = make_acquisition(grid, "full", 0.25, 0.125, 0.08)
    top = make_acquisition(grid, "top", 0.25, 0.125, 0.08)
    rec_full = estimate_constant(m1, m2, 8.0, full)
    rec_top = estimate_constant(m1, m2, 8.0, top)
    assert rec_top.data_norm <= rec_full.data_norm
    assert rec_top.c_est >= rec_full.c_est
