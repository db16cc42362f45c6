import struct
import warnings
from collections import OrderedDict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab import forward
from helmstab.errors import NumericalFailureError
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
    weighted_operator_norm,
    write_dtn,
)
from helmstab.geometry import build_grid, build_partition
from helmstab.model import SquaredSlownessModel, to_cell_field
from helmstab.solver import SOLVER_RTOL
from helmstab.spectrum import (
    discrete_dirichlet_eigenvalues,
    frequency_safety,
    windows_covering,
)

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
    # a center off the box is not clipped onto the corner (0, 0)
    with pytest.raises(ValueError, match="off the box"):
        gaussian_source(square32, (-5.0, 0.0), 0.1)
    # a center with too few coordinates is rejected, not indexed past its end
    with pytest.raises(ValueError, match="3 coordinates"):
        gaussian_source(build_grid((1.0, 1.0, 1.0), (4, 4, 4)), (0.5, 0.0), 0.3)


@pytest.mark.parametrize("sigma", [0.0, np.nan, np.inf, 1e-200, 1e200,
                                   1e-160])
def test_gaussian_rejects_bad_sigma(square32, sigma):
    # an infinite width used to give a flat unit source on the whole face and
    # a NaN width a NaN source; so did widths whose 2 sigma^2 overflows or
    # underflows (0/0 at the centre). At 1e-160, 2 sigma^2 is subnormal and
    # its reciprocal infinite, so the exponent overflowed off the centre
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        gaussian_source(square32, (0.5, 0.0), sigma)


def test_gaussian_under_resolved_warns(square32):
    with pytest.warns(UserWarning):
        gaussian_source(square32, (0.5, 0.0), 0.01)


def test_narrowest_gaussian_is_a_unit_spike():
    # 1 / (2 sigma^2) is finite at 6e-155, but a corner-to-corner distance
    # of the unit cube's face divided by 2 sigma^2 is not; the source is the
    # unit spike at the centre without an overflow
    grid = build_grid((1.0, 1.0, 1.0), (4, 4, 4))
    with pytest.warns(UserWarning, match="under-resolved"):
        g = gaussian_source(grid, (0.0, 0.0, 0.0), 6e-155)
    flat, _ = grid.nearest_boundary_node((0.0, 0.0, 0.0))
    expected = np.zeros(grid.n_boundary)
    expected[grid.boundary_position[flat]] = 1.0
    assert np.array_equal(g, expected)


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
    with pytest.raises(ValueError, match="finite"):
        make_acquisition(square32, MODE_FULL, 0.25, float("nan"), 0.08)
    with pytest.raises(ValueError, match=r"need one spacing per axis \(2\)"):
        make_acquisition(square32, MODE_FULL, (0.25,) * 3, 0.25, 0.08)


def test_acquisition_rejects_out_of_range_indices(square32):
    # -1 would wrap to the last boundary node; n_boundary would fail on use
    n = square32.n_boundary
    for name in ("source_idx", "receiver_idx"):
        for bad in (-1, n, 10**6):
            idx = {"source_idx": [0, 1], "receiver_idx": [2, 3], name: [0, bad]}
            with pytest.raises(ValueError, match=rf"{name}: .*\[0, {n}\)"):
                Acquisition(grid=square32, mode=MODE_FULL, source_sigma=0.08,
                            **idx)
    Acquisition(grid=square32, mode=MODE_FULL, source_idx=[0, n - 1],
                receiver_idx=[0], source_sigma=0.08)


def test_acquisition_rejects_unknown_mode_and_off_top_positions(square32):
    with pytest.raises(ValueError, match="unknown acquisition mode 'side'"):
        Acquisition(grid=square32, mode="side", source_idx=[0],
                    receiver_idx=[0], source_sigma=0.08)
    faces = square32.boundary_face
    on_top = np.flatnonzero(faces == square32.top_face())
    off_top = np.flatnonzero(faces != square32.top_face())
    Acquisition(grid=square32, mode=MODE_TOP, source_idx=on_top,
                receiver_idx=on_top, source_sigma=0.08)
    for name in ("source_idx", "receiver_idx"):
        idx = {"source_idx": on_top, "receiver_idx": on_top,
               name: [on_top[0], off_top[0]]}
        with pytest.raises(ValueError,
                           match=f"{name}: positions stray off the top face"):
            Acquisition(grid=square32, mode=MODE_TOP, source_sigma=0.08, **idx)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, 1e-200, 1e200,
                                   1e-160])
def test_acquisition_rejects_bad_sigma(square32, sigma):
    # a bad width used to pass until the first forward map built a source
    with pytest.raises(ValueError, match="source_sigma must be finite and "
                                         "positive"):
        Acquisition(grid=square32, mode=MODE_FULL, source_idx=[0],
                    receiver_idx=[1], source_sigma=sigma)


@pytest.mark.parametrize("extents, cells, sigma", [
    ((1.0, 1.0), (32, 32), 0.08),
    ((1.0, 1.0, 1.0), (8, 8, 8), 0.2),
])
@pytest.mark.parametrize("mode", [MODE_FULL, MODE_TOP])
def test_boundary_columns_are_the_gaussian_sources(extents, cells, sigma,
                                                    mode):
    grid = build_grid(extents, cells)
    acq = make_acquisition(grid, mode, 0.25, 0.125, sigma)
    for columns, positions in ((acq.sources, acq.source_positions),
                               (acq.receivers, acq.receiver_positions)):
        assert columns.shape == (grid.n_boundary, len(positions))
        assert not columns.flags.writeable
        for column, pos in zip(columns.T, positions):
            assert np.array_equal(column, gaussian_source(grid, pos, sigma))


def test_data_weights_are_built_once_and_kept_read_only(square32):
    acq = make_acquisition(square32, MODE_FULL, 0.25, 0.125, 0.08)
    weights = acq.data_weights
    assert weights is acq.data_weights
    assert not weights.flags.writeable
    assert np.array_equal(weights, np.sqrt(np.outer(acq.source_weights,
                                                    acq.receiver_weights)))


def test_sources_are_built_once_per_acquisition(model_pair, monkeypatch):
    from helmstab import forward

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gaussian_source(*args, **kwargs)

    monkeypatch.setattr(forward, "gaussian_source", counted)
    m1, m2 = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    forward_map(m1, 8.0, acq)
    forward_map(m2, 8.0, acq)
    assert len(calls) == acq.n_sources


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


def test_array_holding_records_compare_and_hash_by_identity(model_pair):
    # == and hash() would reach the arrays and raise; content comparison is
    # content_hash and compat_key
    m1, _ = model_pair
    twin = SquaredSlownessModel(m1.partition, m1.values.copy(), BOUNDS)
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    acq_twin = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    pairs = [(m1, twin), (acq, acq_twin),
             (forward_map(m1, 8.0, acq), forward_map(twin, 8.0, acq_twin))]
    for obj, other in pairs:
        assert (obj == obj) is True
        assert (obj == other) is (obj is other)
        assert (obj != other) is (obj is not other)
        assert {obj} == {obj}
        assert len({obj, other}) == 2 - (obj is other)
    assert twin.content_hash() == m1.content_hash()
    assert acq_twin.compat_key() == acq.compat_key()


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
        row = normal_derivative(m1.grid, u)[acq.receiver_idx]
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
        row = normal_derivative(m1.grid, u)[acq.receiver_idx]
        assert np.allclose(row, alpha * base.values[s], rtol=1e-12)


def test_forward_map_outside_the_windows_gives_finite_data(model_pair):
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    # first window for these bounds is (0, 2 pi^2 / B2); omega2 = 21 is
    # outside, and the forward map takes it as given
    data = forward_map(m1, 21.0, acq)
    assert np.all(np.isfinite(data.values))


def test_forward_map_takes_what_assemble_takes(model_pair):
    # omega^2 = 0 is the Laplace map; a negative or non-finite omega^2 is
    # refused by assemble
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    assert np.all(np.isfinite(forward_map(m1, 0.0, acq).values))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            forward_map(m1, bad, acq)


def test_window_ends_at_the_discrete_resonance():
    # the admissible c^-2 = B2 resonates at the first discrete eigenvalue
    # lambda_h (19.676 at 16^2), below the continuum edge 2 pi^2 (19.739).
    # Just below lambda_h the model is near resonance but inside the first
    # window; just above it, it is outside every window
    g = build_grid((1.0, 1.0), (16, 16))
    m = SquaredSlownessModel(build_partition(g, (2, 2)), np.full(4, 1.0),
                             BOUNDS)
    lam = discrete_dirichlet_eigenvalues(g, to_cell_field(m), 1)[0]
    assert np.isclose(lam, 2 * 4 * 256 * np.sin(np.pi / 32) ** 2, rtol=1e-10)

    def safety(omega2):
        return frequency_safety(omega2, windows_covering(g, *BOUNDS, omega2))

    assert safety(lam * (1 - 1e-4)).inside
    outside = safety(lam * (1 + 1e-4))
    assert not outside.inside
    assert outside.nearest_window[0] == 0.0
    assert np.isclose(outside.nearest_window[1], 19.6758728, rtol=1e-8)


def test_top_data_is_subblock_of_full(model_pair):
    m1, m2 = model_pair
    grid = m1.grid
    full = make_acquisition(grid, MODE_FULL, 0.25, 0.125, 0.08)
    top = make_acquisition(grid, MODE_TOP, 0.25, 0.125, 0.08)
    d_full = forward_map(m1, 8.0, full)
    # solve the top sources again rather than read the rows the full map
    # kept, so that the two data sets are independent computations
    forward.clear_caches()
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


def test_opnorm_rank_one_and_dense_oracle():
    g = build_grid((1.0, 1.0), (8, 8))
    acq = make_acquisition(g, MODE_FULL, 0.25, 0.25, 0.1)
    n_s, n_r = acq.n_sources, acq.n_receivers
    rng = np.random.default_rng(3)

    u = rng.normal(size=n_s)
    v = rng.normal(size=n_r)
    rank1 = np.outer(u, v)
    with pytest.raises(ValueError, match="does not match the acquisition"):
        weighted_operator_norm(rank1[:, :-1], acq)
    for entry in (np.nan, np.inf, -np.inf):  # not LinAlgError from the SVD
        bad = rank1.copy()
        bad[1, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            weighted_operator_norm(bad, acq)
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
    with pytest.raises(ValueError, match="different frequencies"):
        dtn_operator_norm(d1, forward_map(m2, 4.0, a1))


def test_forward_map_requires_the_model_grid(model_pair):
    m1, _ = model_pair
    acq = make_acquisition(build_grid((1.0, 1.0), (16, 16)), MODE_FULL, 0.5,
                           0.25, 0.08)
    with pytest.raises(ValueError, match="live on different grids"):
        forward_map(m1, 8.0, acq)


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
    with pytest.raises(ValueError, match="values shape"):
        DtnData(acquisition=acq, omega2=1.0, values=np.zeros((1, 1)))


def test_binary_roundtrip(tmp_path, model_pair):
    # omega^2 = 0 is the Laplace map, which forward_map computes
    m1, _ = model_pair
    for mode, omega2 in product((MODE_FULL, MODE_TOP), (8.0, 0.0)):
        acq = make_acquisition(m1.grid, mode, 0.25, 0.125, 0.08)
        data = forward_map(m1, omega2, acq)
        path = tmp_path / f"{mode}-{omega2:g}.hsdt"
        write_dtn(path, data)
        back = read_dtn(path)
        assert back.acquisition.mode == mode
        assert back.omega2 == omega2
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values, data.values)
        assert np.allclose(back.acquisition.source_positions,
                           acq.source_positions)
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
    for bad in (-1, acq.n_sources):
        with pytest.raises(ValueError, match=f"source index {bad} out of range"):
            export_trace_csv(data, bad, tmp_path / "bad.csv")
    for bad in (1.5, "a", None):
        with pytest.raises(ValueError, match="is not an integer"):
            export_trace_csv(data, bad, tmp_path / "bad.csv")
    export_trace_csv(data, np.int64(0), tmp_path / "numpy.csv")
    assert (tmp_path / "numpy.csv").read_text() == path.read_text()


def test_rebuilt_system_gives_identical_data(model_pair):
    # a system evicted from the store loses its DtN rows: built again, it
    # solves every source anew and yields the same data
    m1, m2 = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    forward.clear_caches()
    first = forward_map(m1, 8.0, acq)
    for w2 in (7.0, 7.5, 8.5, 9.0):
        forward_map(m2, w2, acq)
    assert forward.cache_info()["evictions"] == 1
    row_misses = forward.cache_info()["row_misses"]
    again = forward_map(m1, 8.0, acq)
    assert forward.cache_info()["misses"] == 6
    assert forward.cache_info()["row_misses"] == row_misses + acq.n_sources
    assert np.array_equal(first.values, again.values)
    forward.clear_caches()


def test_dropped_lu_is_rebuilt_for_the_missing_sources(model_pair,
                                                       monkeypatch):
    # the top-mode map of m1 frees its system and LU when it returns; a
    # full-mode map of m1 then factorizes m1 once more and solves only the
    # sources the top-mode map left out, and its data equal those of a cold
    # store
    m1, m2 = model_pair
    top = make_acquisition(m1.grid, MODE_TOP, 0.25, 0.125, 0.08)
    full = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    forward.clear_caches()
    cold = forward_map(m1, 8.0, full)
    forward.clear_caches()
    forward_map(m1, 8.0, top)
    forward_map(m2, 8.0, top)

    solve = forward.solve_dirichlet
    columns = []
    monkeypatch.setattr(forward, "solve_dirichlet",
                        lambda sys_, g, *args: columns.append(g.shape[1])
                        or solve(sys_, g, *args))
    factorizations = forward.cache_info()["factorizations"]
    warm = forward_map(m1, 8.0, full)
    assert sum(columns) == full.n_sources - top.n_sources > 0
    assert forward.cache_info()["factorizations"] == factorizations + 1
    assert np.array_equal(warm.values, cold.values)
    forward.clear_caches()


@pytest.mark.parametrize("modes", [(MODE_FULL, MODE_TOP), (MODE_TOP, MODE_FULL)])
def test_kept_rows_give_the_data_of_a_cold_store(model_pair, modes):
    # the top lattice is a subset of the full one, so whichever mode runs
    # second reads the shared sources from the rows the first one kept
    m1, _ = model_pair
    acqs = [make_acquisition(m1.grid, mode, 0.25, 0.125, 0.08)
            for mode in modes]
    n_full, n_top = sorted((a.n_sources for a in acqs), reverse=True)
    forward.clear_caches()
    warm = [forward_map(m1, 8.0, acq) for acq in acqs]
    info = forward.cache_info()
    assert (info["row_hits"], info["row_misses"]) == (n_top, n_full)
    for acq, data in zip(acqs, warm):
        forward.clear_caches()
        assert np.array_equal(forward_map(m1, 8.0, acq).values, data.values)
    forward.clear_caches()
    assert forward.cache_info()["row_hits"] == 0
    assert forward.cache_info()["row_misses"] == 0


def test_failed_block_keeps_only_the_solved_rows(model_pair, monkeypatch):
    # 12 sources make blocks of 8 and 4; the second block raises, so only the
    # first block's rows are kept, and a rerun solves the other 4
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.25, 0.125, 0.08)
    assert acq.n_sources == 12
    forward.clear_caches()
    cold = forward_map(m1, 8.0, acq)
    forward.clear_caches()

    solve = forward.solve_dirichlet
    columns = []

    def second_block_fails(sys_, g, *args):
        columns.append(g.shape[1])
        if len(columns) == 2:
            raise NumericalFailureError("injected", {})
        return solve(sys_, g, *args)

    monkeypatch.setattr(forward, "solve_dirichlet", second_block_fails)
    with pytest.raises(NumericalFailureError):
        forward_map(m1, 8.0, acq)
    kept = [(int(s), acq.source_sigma) for s in acq.source_idx[:8]]
    assert [list(rows) for rows in forward._rows.values()] == [kept]
    assert forward.cache_info()["row_misses"] == 8

    columns.clear()
    monkeypatch.setattr(forward, "solve_dirichlet",
                        lambda sys_, g, *args: columns.append(g.shape[1])
                        or solve(sys_, g, *args))
    again = forward_map(m1, 8.0, acq)
    assert columns == [4]
    assert forward.cache_info()["row_misses"] == 12
    assert np.array_equal(again.values, cold.values)
    forward.clear_caches()


def test_row_store_keeps_the_4_most_recent_entries():
    # the store keeps the rows of the 4 most recently used (model, omega^2)
    # entries: a hit refreshes an entry, and a fifth distinct entry evicts
    # the least recently used one
    forward.clear_caches()
    g = build_grid((1.0, 1.0), (8, 8))
    part = build_partition(g, (2, 2))
    m = SquaredSlownessModel(part, np.full(4, 0.5), BOUNDS)
    acq = make_acquisition(g, MODE_FULL, 0.25, 0.25, 0.2)
    n = acq.n_sources
    for w2 in (1.0, 2.0, 3.0, 4.0):
        forward_map(m, w2, acq)
    # equal content is the same entry
    forward_map(SquaredSlownessModel(part, m.values.copy(), BOUNDS), 1.0, acq)
    forward_map(m, 5.0, acq)
    info = forward.cache_info()
    assert 0 < info.pop("worst_residual") <= SOLVER_RTOL
    assert info == {"hits": 1, "misses": 5, "evictions": 1,
                    "factorizations": 5, "row_hits": n,
                    "row_misses": 5 * n, "cg_columns": 0,
                    "cg_iterations": 0, "entries": 4}
    forward_map(m, 1.0, acq)
    forward_map(m, 2.0, acq)   # evicted: solved again
    info = forward.cache_info()
    assert 0 < info.pop("worst_residual") <= SOLVER_RTOL
    assert info == {"hits": 2, "misses": 6, "evictions": 2,
                    "factorizations": 6, "row_hits": 2 * n,
                    "row_misses": 6 * n, "cg_columns": 0,
                    "cg_iterations": 0, "entries": 4}
    forward.clear_caches()
    assert forward.cache_info() == {"hits": 0, "misses": 0, "evictions": 0,
                                    "factorizations": 0, "row_hits": 0,
                                    "row_misses": 0, "cg_columns": 0,
                                    "cg_iterations": 0, "worst_residual": 0,
                                    "entries": 0}


def _store_case():
    g = build_grid((1.0, 1.0), (16, 16))
    part = build_partition(g, (2, 2))
    models = {"m1": SquaredSlownessModel(part, [0.3, 0.5, 0.7, 0.9], BOUNDS),
              "m2": SquaredSlownessModel(part, [0.9, 0.4, 0.6, 0.25], BOUNDS)}
    acqs = {mode: make_acquisition(g, mode, 0.25, 0.125, 0.08)
            for mode in (MODE_FULL, MODE_TOP)}
    return models, acqs


_STORE_MODELS, _STORE_ACQS = _store_case()
# inside the first window of the 16^2 grid, (0, 19.68) for B2 = 1
_STORE_OMEGA2 = (2.0, 5.0, 8.0, 11.0, 14.0)
_cold_values = {}


def _cold(name, omega2, mode):
    """The map's data on a cold store, computed once per test session."""
    key = (name, omega2, mode)
    if key not in _cold_values:
        forward.clear_caches()
        _cold_values[key] = forward_map(_STORE_MODELS[name], omega2,
                                        _STORE_ACQS[mode]).values
    return _cold_values[key]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_STORE_MODELS)),
                          st.sampled_from(_STORE_OMEGA2),
                          st.sampled_from([MODE_FULL, MODE_TOP])),
                min_size=5, max_size=12))
def test_warm_maps_equal_cold_maps(maps):
    # whatever the order of maps, LRU refreshes, evictions and partly filled
    # entries give the data of a cold store bit for bit, and one LU is
    # computed per map that finds a row missing, as predicted by a model of
    # the 4-entry store
    cold = [_cold(*m) for m in maps]
    forward.clear_caches()
    model_store = OrderedDict()   # (model, omega2) -> solved source indices
    predicted = 0
    for (name, omega2, mode), want in zip(maps, cold):
        acq = _STORE_ACQS[mode]
        have = model_store.get((name, omega2))
        if have is not None:
            model_store.move_to_end((name, omega2))
        need = set(acq.source_idx.tolist())
        missing = have is None or not need <= have
        if have is None:
            have = model_store[(name, omega2)] = set()
            if len(model_store) > 4:
                model_store.popitem(last=False)
        have |= need
        predicted += missing
        before = forward.cache_info()["row_misses"]
        got = forward_map(_STORE_MODELS[name], omega2, acq).values
        assert np.array_equal(got, want)
        assert (forward.cache_info()["row_misses"] > before) == missing
    info = forward.cache_info()
    assert info["factorizations"] == predicted
    assert info["entries"] == len(model_store)
    forward.clear_caches()


def test_under_resolved_map_warns_when_it_assembles():
    # 6.5 points per wavelength on an 8^2 grid: the first map after
    # clear_caches assembles and warns; a map whose rows are all kept
    # assembles nothing and so does not warn
    g = build_grid((1.0, 1.0), (8, 8))
    m = SquaredSlownessModel(build_partition(g, (2, 2)), np.ones(4), BOUNDS)
    acq = make_acquisition(g, MODE_FULL, 0.25, 0.25, 0.2)
    for _ in range(2):
        forward.clear_caches()
        with pytest.warns(UserWarning, match="points per wavelength"):
            first = forward_map(m, 60.0, acq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = forward_map(m, 60.0, acq)
        assert np.array_equal(first.values, again.values)
    forward.clear_caches()


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


# 2D header offsets: omega2 f64 at 9, sigma f64 at 17, first source position
# at 81 (after the cell counts, extents and hashes), first receiver position
# at 81 + 16 * n_sources, first value at that + 16 * n_receivers
_SOURCE_AT = 81
_RECEIVER_AT = _SOURCE_AT + 16 * 4
_VALUES_AT = _RECEIVER_AT + 16 * 12


@pytest.mark.parametrize("offset, byte", [
    (7, 7), (8, 1), (8, 2),
    (9, np.nan), (9, np.inf), (9, -8.0),
    (17, np.nan), (17, -np.inf), (17, 0.0),
    (_SOURCE_AT, np.inf), (_SOURCE_AT + 8, np.nan), (_RECEIVER_AT, -np.inf),
    (_SOURCE_AT, 50.0), (_RECEIVER_AT + 8, -0.5), (41, np.nan), (49, -1.0),
    (_VALUES_AT, np.nan),
])
def test_bad_dtn_header_byte_raises_value_error(tmp_path, model_pair, offset,
                                                byte):
    # an int replaces one byte: the mode byte (offset 7) must be 0 or 1 and
    # the reserved flags byte (offset 8) must be 0; flags bit 0 marked the
    # complex files of earlier versions. A float replaces the f64 at the
    # offset: omega2 must be finite and nonnegative, sigma and the extents
    # (at 41 and 49) finite and positive, positions finite and on the box (a
    # source at x = 50 used to load as a node of the 1 x 1 box), and the
    # values finite
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    assert (acq.n_sources, acq.n_receivers) == (4, 12)
    path = tmp_path / "data.hsdt"
    write_dtn(path, forward_map(m1, 8.0, acq))
    raw = bytearray(path.read_bytes())
    if isinstance(byte, int):
        assert raw[offset] == 0
        raw[offset] = byte
    else:
        struct.pack_into("<d", raw, offset, byte)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="data.hsdt"):
        read_dtn(path)



@pytest.mark.parametrize("offset, patch, message", [
    (0, b"HSMD", "bad magic b'HSMD'"),
    (4, struct.pack("<H", 1), "unsupported version 1"),
    (4, struct.pack("<H", 3), "unsupported version 3"),
], ids=["magic", "version1", "version3"])
def test_dtn_of_another_format_is_refused(tmp_path, model_pair, offset, patch,
                                          message):
    # version 1 also stored the source and receiver quadrature weights
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    path = tmp_path / "data.hsdt"
    write_dtn(path, forward_map(m1, 8.0, acq))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"data.hsdt: {message}"):
        read_dtn(path)


def test_dtn_bad_cell_count_names_the_file(tmp_path, model_pair):
    m1, _ = model_pair
    acq = make_acquisition(m1.grid, MODE_FULL, 0.5, 0.25, 0.08)
    path = tmp_path / "data.hsdt"
    write_dtn(path, forward_map(m1, 8.0, acq))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 37, 1)   # second cell count (u32 at 37)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="data.hsdt: need at least 2 cells"):
        read_dtn(path)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_face_lattice_matches_a_filter_of_the_boundary_nodes(data):
    cells = data.draw(st.lists(st.integers(2, 9), min_size=2, max_size=3))
    g = build_grid(tuple(data.draw(st.floats(0.5, 2.0)) for _ in cells), cells)
    face = data.draw(st.sampled_from(g.boundary_faces))
    spacing = [h * data.draw(st.floats(1.0, 4.0)) for h in g.spacing]
    axis, side = divmod(face, 2)
    mi = g.node_multi_index(g.boundary_nodes)
    keep = mi[:, axis] == (0 if side == 0 else g.nodes_per_axis[axis] - 1)
    for t in range(g.dim):
        if t != axis:
            n = int(np.floor(g.extents[t] / spacing[t] - 1e-9))
            ks = np.rint(np.arange(1, n + 1) * spacing[t] / g.spacing[t])
            wanted = np.clip(ks, 1, g.nodes_per_axis[t] - 2)
            keep &= np.isin(mi[:, t], wanted)
    got = forward._face_lattice(g, face, spacing)
    assert got.tolist() == g.boundary_nodes[keep].tolist()
