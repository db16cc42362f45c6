import numpy as np
import pytest

from helmstab.errors import WindowViolationError
from helmstab.forward import (
    MODE_FULL,
    MODE_TOP,
    Acquisition,
    DtnData,
    dtn_operator_norm,
    export_trace_csv,
    forward_map,
    gaussian_source,
    make_acquisition,
    read_dtn,
    weighted_frobenius,
    weighted_operator_norm,
    write_dtn,
)
from helmstab.geometry import build_grid, build_partition
from helmstab.model import SquaredSlownessModel

BOUNDS = (0.25, 1.0)


@pytest.fixture
def square32():
    return build_grid((1.0, 1.0), (32, 32))


@pytest.fixture
def model_pair(square32):
    p = build_partition(square32, (4, 4))
    rng = np.random.default_rng(9)
    v1 = 0.5 + 0.1 * rng.uniform(-1.0, 1.0, p.n_subdomains)
    m1 = SquaredSlownessModel(p, v1, BOUNDS)
    m2 = SquaredSlownessModel(p, v1 * 1.04, BOUNDS)
    return m1, m2


def test_gaussian_peak_is_one(square32):
    g = gaussian_source(square32, (0.5, 0.0), 0.1)
    assert g.max() == 1.0


def test_gaussian_half_width(square32):
    # sigma chosen so the half-width lands exactly on a node 4 steps away
    h = square32.spacing[0]
    sigma = 4 * h / np.sqrt(2 * np.log(2))
    g = gaussian_source(square32, (0.5, 0.0), sigma)
    coords = square32.node_coordinates(square32.boundary_nodes)
    at = np.flatnonzero(
        (square32.boundary_face == square32.top_face())
        & np.isclose(coords[:, 0], 0.5 + 4 * h)
    )
    assert np.isclose(g[at[0]], 0.5, rtol=1e-12)


def test_gaussian_quadrature_matches_integral(square32):
    # sum g * w ~ (2 pi sigma^2)^(1/2) for sigma >> h, away from edges
    sigma = 0.08
    g = gaussian_source(square32, (0.5, 0.0), sigma)
    total = np.sum(g * square32.boundary_weights)
    assert np.isclose(total, np.sqrt(2 * np.pi * sigma**2), rtol=1e-6)


def test_gaussian_center_must_be_on_boundary(square32):
    with pytest.raises(ValueError):
        gaussian_source(square32, (0.5, 0.5), 0.1)


def test_gaussian_under_resolved_warns(square32):
    with pytest.warns(UserWarning):
        gaussian_source(square32, (0.5, 0.0), 0.01)


def test_acquisition_counts(square32):
    acq = make_acquisition(square32, MODE_FULL, 0.25, 0.25, 0.08)
    # interior lattice {0.25, 0.5, 0.75} on each of the four faces
    assert acq.n_sources == 12
    assert acq.n_receivers == 12
    top = make_acquisition(square32, MODE_TOP, 0.25, 0.125, 0.08)
    assert top.n_sources == 3
    assert top.n_receivers == 7
    faces = square32.boundary_face
    assert np.all(faces[top.source_idx] == square32.top_face())


def test_acquisition_positions_snap_to_nodes(square32):
    acq = make_acquisition(square32, MODE_FULL, 0.26, 0.26, 0.08)
    h = np.asarray(square32.spacing)
    for pos in acq.source_positions:
        steps = pos / h
        assert np.allclose(steps, np.round(steps), atol=1e-9)


def test_acquisition_rejects_empty_and_fine_lattices(square32):
    with pytest.raises(ValueError):
        make_acquisition(square32, MODE_FULL, 5.0, 0.25, 0.08)  # no interior points
    with pytest.raises(ValueError):
        make_acquisition(square32, MODE_FULL, 0.001, 0.25, 0.08)  # below h


def test_field_scale_acquisition_counts():
    # source map 16 x 10 and receiver map 43 x 32 on the top face of the
    # 2.55 x 1.45 km surface, via per-axis spacings
    g = build_grid((2550.0, 1450.0, 1220.0), (64, 48, 16))
    acq = make_acquisition(g, MODE_TOP, (150.0, 140.0, 1220.0),
                           (58.0, 45.0, 1220.0), 40.0)
    assert acq.n_sources == 16 * 10
    assert acq.n_receivers == 43 * 32


def test_forward_map_deterministic(model_pair):
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    d1 = forward_map(m1, 8.0, acq)
    d2 = forward_map(m1, 8.0, acq)
    assert np.array_equal(d1.values, d2.values)


def test_forward_map_rows_match_per_source_solves(model_pair):
    # 12 sources: one full block of 8 and a partial block of 4
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    assert acq.n_sources % 8 != 0
    data = forward_map(m1, 8.0, acq)
    from helmstab.model import to_cell_field
    from helmstab.solver import assemble, normal_derivative, solve_dirichlet

    sys_ = assemble(m1.grid, to_cell_field(m1), 8.0)
    for s, pos in enumerate(acq.source_positions):
        u = solve_dirichlet(sys_, gaussian_source(m1.grid, pos, acq.source_sigma))
        row = normal_derivative(sys_, u)[acq.receiver_idx]
        np.testing.assert_allclose(data.values[s], row, rtol=1e-12, atol=0)


def test_forward_linearity_in_source_amplitude(model_pair):
    # scaling the boundary data scales the data rows (checked via the solver)
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    base = forward_map(m1, 8.0, acq)
    from helmstab.model import to_cell_field
    from helmstab.solver import assemble, normal_derivative, solve_dirichlet

    sys_ = assemble(m1.grid, to_cell_field(m1), 8.0)
    alpha = 2.5
    for s, pos in enumerate(acq.source_positions):
        g = gaussian_source(m1.grid, pos, acq.source_sigma)
        u = solve_dirichlet(sys_, alpha * g)
        row = normal_derivative(sys_, u)[acq.receiver_idx]
        assert np.allclose(row, alpha * base.values[s], rtol=1e-12)


def test_window_violation_refused_and_overridable(model_pair):
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    # first window for these bounds is (0, 2 pi^2 / B2); omega2 = 21 is outside
    bad_omega2 = 21.0
    with pytest.raises(WindowViolationError):
        forward_map(m1, bad_omega2, acq)
    data = forward_map(m1, bad_omega2, acq, override_window_check=True)
    assert np.all(np.isfinite(data.values))


def test_top_data_is_subblock_of_full(model_pair):
    m1, m2 = model_pair
    grid = m1.grid
    full = make_acquisition(grid, MODE_FULL, 0.25, 0.125, 0.08)
    top = make_acquisition(grid, MODE_TOP, 0.25, 0.125, 0.08)
    d_full = forward_map(m1, 8.0, full)
    d_top = forward_map(m1, 8.0, top)
    si = np.searchsorted(full.source_idx, top.source_idx)
    ri = np.searchsorted(full.receiver_idx, top.receiver_idx)
    assert np.array_equal(d_full.values[np.ix_(si, ri)], d_top.values)

    # sub-block operator norm never exceeds the full-matrix norm
    d2_full = forward_map(m2, 8.0, full)
    d2_top = forward_map(m2, 8.0, top)
    assert dtn_operator_norm(d_top, d2_top) <= dtn_operator_norm(d_full, d2_full)


def test_norm_identities(model_pair):
    m1, m2 = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    d1 = forward_map(m1, 8.0, acq)
    d2 = forward_map(m2, 8.0, acq)
    assert dtn_operator_norm(d1, d1) == 0.0
    assert dtn_operator_norm(d1, d2) > 0.0
    assert weighted_frobenius(d1, d2) >= dtn_operator_norm(d1, d2)


def test_opnorm_rank_one_and_dense_oracle():
    g = build_grid((1.0, 1.0), (8, 8))
    acq = make_acquisition(g, MODE_FULL, 0.25, 0.25, 0.1)
    n_s, n_r = acq.n_sources, acq.n_receivers
    rng = np.random.default_rng(3)

    u = rng.normal(size=n_s)
    v = rng.normal(size=n_r)
    rank1 = np.outer(u, v)
    sw = np.sqrt(acq.source_weights)
    rw = np.sqrt(acq.receiver_weights)
    expect = np.linalg.norm(u * sw) * np.linalg.norm(v * rw)
    assert np.isclose(weighted_operator_norm(rank1, acq), expect, rtol=1e-12)

    m = rng.normal(size=(n_s, n_r))
    weighted = sw[:, None] * m * rw[None, :]
    oracle = np.sqrt(np.max(np.linalg.eigvalsh(weighted.T @ weighted)))
    assert np.isclose(weighted_operator_norm(m, acq), oracle, rtol=1e-10)


def test_opnorm_is_a_norm_on_random_triples():
    g = build_grid((1.0, 1.0), (8, 8))
    acq = make_acquisition(g, MODE_FULL, 0.25, 0.25, 0.1)
    rng = np.random.default_rng(5)
    shape = (acq.n_sources, acq.n_receivers)
    for _ in range(5):
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        na = weighted_operator_norm(a, acq)
        nb = weighted_operator_norm(b, acq)
        nab = weighted_operator_norm(a + b, acq)
        assert nab <= na + nb + 1e-10
        alpha = rng.normal()
        assert np.isclose(weighted_operator_norm(alpha * a, acq),
                          abs(alpha) * na, rtol=1e-10)


def test_norm_requires_matching_acquisition(model_pair):
    m1, m2 = model_pair
    a1 = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    a2 = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.125, 0.08)
    d1 = forward_map(m1, 8.0, a1)
    d2 = forward_map(m2, 8.0, a2)
    with pytest.raises(ValueError):
        dtn_operator_norm(d1, d2)


def test_data_symmetry_under_model_reflection():
    # mirror the model across the x = 1/2 plane: reflected sources see
    # identical data at reflected receivers
    g = build_grid((1.0, 1.0), (16, 16))
    p = build_partition(g, (4, 2))
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.4, 0.9, p.n_subdomains)
    m = SquaredSlownessModel(p, vals, BOUNDS)

    blocks = vals.reshape((2, 4))          # [by, bx] after x-fastest flatten
    mirrored = blocks[:, ::-1].reshape(-1)
    m_ref = SquaredSlownessModel(p, mirrored, BOUNDS)

    acq = make_acquisition(g, MODE_TOP, 0.25, 0.25, 0.08)
    d = forward_map(m, 8.0, acq)
    d_ref = forward_map(m_ref, 8.0, acq)

    # receivers/sources sit at x in {0.25, 0.5, 0.75}: reflection reverses order
    assert np.allclose(d.values, d_ref.values[::-1, ::-1], atol=1e-10)


def test_dtn_finite_guard(square32):
    acq = make_acquisition(square32, MODE_FULL, 0.5, 0.5, 0.1)
    bad = np.full((acq.n_sources, acq.n_receivers), np.nan)
    with pytest.raises(ValueError):
        DtnData(acquisition=acq, omega2=1.0, values=bad)


def test_binary_roundtrip(tmp_path, model_pair):
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    data = forward_map(m1, 8.0, acq)
    path = tmp_path / "data.hsdt"
    write_dtn(path, data)
    back = read_dtn(path)
    assert back.omega2 == data.omega2
    assert np.array_equal(back.values, data.values)
    assert np.allclose(back.acquisition.source_positions, acq.source_positions)
    assert back.metadata["model_hash"] == data.metadata["model_hash"]


def test_trace_csv(tmp_path, model_pair):
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    data = forward_map(m1, 8.0, acq)
    path = tmp_path / "trace.csv"
    export_trace_csv(data, 0, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "receiver,x,y,value"
    assert len(lines) == 1 + acq.n_receivers


def test_absorbing_mode(model_pair):
    m1, _ = model_pair
    top = make_acquisition(m1.grid, MODE_TOP, 0.25, 0.125, 0.08)
    d_abs = forward_map(m1, 8.0, top, absorbing=True)
    assert np.iscomplexobj(d_abs.values)
    assert d_abs.metadata["absorbing"] is True
    d_dir = forward_map(m1, 8.0, top)
    # impedance sides change the data relative to all-Dirichlet walls
    assert not np.allclose(d_abs.values.real, d_dir.values)

    full = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    with pytest.raises(ValueError):
        forward_map(m1, 8.0, full, absorbing=True)


def test_clear_caches_empties_absorbing_cache(model_pair):
    # absorbing and Dirichlet factorizations share one store
    from helmstab import solver

    m1, _ = model_pair
    top = make_acquisition(m1.grid, MODE_TOP, 0.25, 0.125, 0.08)
    solver.clear_caches()
    forward_map(m1, 8.0, top, absorbing=True)
    forward_map(m1, 8.0, top)
    forward_map(m1, 8.0, top, absorbing=True)
    assert solver.cache_info() == {"hits": 1, "misses": 2, "evictions": 0,
                                   "entries": 2}
    solver.clear_caches()
    assert solver.cache_info()["entries"] == 0


def test_rebuilt_system_gives_identical_data(model_pair):
    # a system evicted from the store and built again yields the same data
    from helmstab import solver

    m1, m2 = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    solver.clear_caches()
    first = forward_map(m1, 8.0, acq)
    for w2 in (7.0, 7.5, 8.5, 9.0):
        forward_map(m2, w2, acq, override_window_check=True)
    assert solver.cache_info()["evictions"] == 1
    again = forward_map(m1, 8.0, acq)
    assert solver.cache_info()["misses"] == 6
    assert np.array_equal(first.values, again.values)
    solver.clear_caches()


@pytest.mark.parametrize("keep", [10, 40, 70, 100, -8])
def test_truncated_dtn_file_raises_value_error(tmp_path, model_pair, keep):
    # cut inside the fixed header, cell counts, hashes, source positions and
    # value matrix
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    path = tmp_path / "data.hsdt"
    write_dtn(path, forward_map(m1, 8.0, acq))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError):
        read_dtn(path)


def test_absorbing_roundtrip(tmp_path, model_pair):
    m1, _ = model_pair
    top = make_acquisition(m1.grid, MODE_TOP, 0.25, 0.125, 0.08)
    d_abs = forward_map(m1, 8.0, top, absorbing=True)
    path = tmp_path / "abs.hsdt"
    write_dtn(path, d_abs)
    back = read_dtn(path)
    assert np.array_equal(back.values, d_abs.values)
    csv_path = tmp_path / "abs_trace.csv"
    export_trace_csv(d_abs, 1, csv_path)
    assert "value_re,value_im" in csv_path.read_text().splitlines()[0]
