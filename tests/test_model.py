import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.geometry import build_grid, build_partition
from helmstab.model import (
    SquaredSlownessModel,
    from_gridded_field,
    l2_distance,
    linear_depth_field,
    read_field,
    read_text_field,
    squared_slowness_to_wavespeed,
    to_cell_field,
    two_layer_field,
    wavespeed_to_squared_slowness,
    write_field,
)

BOUNDS = (0.1, 3.0)


def quadrant_partition():
    return build_partition(build_grid((1.0, 1.0), (8, 8)), (2, 2))


def test_constant_field_projects_to_constant():
    p = quadrant_partition()
    m = from_gridded_field(np.full(p.grid.n_cells, 0.7), p, BOUNDS)
    assert np.allclose(m.values, 0.7)
    assert m.n_clamped == 0


def test_checkerboard_averages_to_mean():
    g = build_grid((1.0, 1.0), (8, 8))
    p = build_partition(g, (1, 1))
    idx = np.indices(g.cells_per_axis).sum(axis=0)
    field = np.where(np.ravel(idx, order="F") % 2 == 0, 1.0, 2.0)
    m = from_gridded_field(field, p, BOUNDS)
    assert np.isclose(m.values[0], 1.5)


def test_finer_projection_is_more_faithful():
    # coarse vs fine representation of the same field
    g = build_grid((1.0, 1.0), (32, 32))
    rng = np.random.default_rng(0)
    smooth = 1.0 + 0.5 * np.sin(
        2 * np.pi * g.cell_multi_index(np.arange(g.n_cells))[:, 0] / 32
    ) + 0.05 * rng.normal(size=g.n_cells)
    smooth = np.clip(smooth, *BOUNDS)
    coarse = from_gridded_field(smooth, build_partition(g, (2, 2)), BOUNDS)
    fine = from_gridded_field(smooth, build_partition(g, (16, 16)), BOUNDS)
    err_coarse = np.linalg.norm(to_cell_field(coarse) - smooth)
    err_fine = np.linalg.norm(to_cell_field(fine) - smooth)
    assert err_fine < err_coarse


def test_nonpositive_field_rejected():
    p = quadrant_partition()
    field = np.full(p.grid.n_cells, 1.0)
    field[3] = 0.0
    with pytest.raises(ValueError):
        from_gridded_field(field, p, BOUNDS)
    # NaN passes "<= 0" and inf would be clamped to B2 without a finite check
    for bad in (np.nan, np.inf):
        field[3] = bad
        with pytest.raises(ValueError, match="finite"):
            from_gridded_field(field, p, BOUNDS)


@pytest.mark.parametrize("convert, name", [
    (wavespeed_to_squared_slowness, "wavespeed"),
    (squared_slowness_to_wavespeed, "squared slowness"),
])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_conversions_reject_nonpositive_values(convert, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        convert([1.0, bad])


def test_wrong_sizes_are_rejected():
    p = quadrant_partition()
    with pytest.raises(ValueError, match=r"expected 4 values, got \(3,\)"):
        SquaredSlownessModel(p, np.full(3, 0.5), BOUNDS)
    with pytest.raises(ValueError, match=r"one value per cell \(64\)"):
        from_gridded_field(np.full((8, 8), 0.5), p, BOUNDS)


def test_clamping_counts_reported():
    p = quadrant_partition()
    field = np.full(p.grid.n_cells, 10.0)  # above B2 everywhere
    m = from_gridded_field(field, p, BOUNDS)
    assert m.n_clamped == p.n_subdomains
    assert np.allclose(m.values, BOUNDS[1])


def test_bounds_validated_on_construction():
    p = quadrant_partition()
    with pytest.raises(ValueError):
        SquaredSlownessModel(p, np.full(4, 5.0), (0.1, 1.0))
    with pytest.raises(ValueError):
        SquaredSlownessModel(p, np.full(4, 0.5), (0.0, 1.0))  # B1 must be > 0
    # B2 must be finite: an infinite bound leaves no admissible window
    for bounds in ((0.25, np.inf), (0.25, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="B2 < inf"):
            SquaredSlownessModel(p, np.full(4, 0.5), bounds)
    # NaN compares False against both bounds, so it needs its own check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SquaredSlownessModel(p, [0.5, bad, 0.5, 0.5], (0.25, 1.0))


def test_l2_distance_examples():
    p = quadrant_partition()
    m = SquaredSlownessModel(p, np.full(4, 1.0), BOUNDS)
    assert l2_distance(m, m) == 0.0

    p1 = build_partition(build_grid((1.0, 1.0), (4, 4)), (1, 1))
    a = SquaredSlownessModel(p1, np.array([3.0]), (0.1, 5.0))
    b = SquaredSlownessModel(p1, np.array([0.5]), (0.1, 5.0))
    # |Omega| = 1, difference 2.5
    assert np.isclose(l2_distance(a, b), 2.5)

    diffs = np.array([1.0, -1.0, 2.0, 0.0])
    m2 = SquaredSlownessModel(p, m.values + diffs * 0.1, BOUNDS)
    assert np.isclose(l2_distance(m, m2), 0.1 * np.sqrt(6.0 / 4.0))


def test_distance_requires_same_partition():
    g = build_grid((1.0, 1.0), (8, 8))
    m1 = SquaredSlownessModel(build_partition(g, (2, 2)), np.full(4, 1.0), BOUNDS)
    m2 = SquaredSlownessModel(build_partition(g, (4, 4)), np.full(16, 1.0), BOUNDS)
    with pytest.raises(ValueError):
        l2_distance(m1, m2)


def test_l2_matches_brute_force_cell_integral():
    g = build_grid((1.0, 2.0), (12, 6))
    p = build_partition(g, (3, 2))
    rng = np.random.default_rng(3)
    m1 = SquaredSlownessModel(p, rng.uniform(0.5, 1.5, 6), BOUNDS)
    m2 = SquaredSlownessModel(p, rng.uniform(0.5, 1.5, 6), BOUNDS)
    dc = to_cell_field(m1) - to_cell_field(m2)
    brute = np.sqrt(np.sum(dc * dc) * g.cell_volume())
    assert np.isclose(l2_distance(m1, m2), brute, rtol=1e-14)


def test_octant_expansion():
    g = build_grid((1.0, 1.0, 1.0), (4, 4, 4))
    p = build_partition(g, (2, 2, 2))
    vals = np.arange(1.0, 9.0)
    m = SquaredSlownessModel(p, vals, (0.5, 10.0))
    field = to_cell_field(m)
    assert np.array_equal(np.unique(field), vals)
    # round trip through projection is the identity
    back = from_gridded_field(field, p, (0.5, 10.0))
    assert np.array_equal(back.values, vals)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projection_idempotent(seed):
    g = build_grid((1.0, 1.0), (8, 8))
    p = build_partition(g, (2, 4))
    rng = np.random.default_rng(seed)
    m = SquaredSlownessModel(p, rng.uniform(0.5, 2.0, 8), BOUNDS)
    again = from_gridded_field(to_cell_field(m), p, BOUNDS)
    # identity up to summation roundoff (a few ulps)
    assert np.allclose(again.values, m.values, rtol=1e-14, atol=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nested_projection_composes(seed):
    # fine -> N then N -> coarser(nested) equals fine -> coarser directly
    g = build_grid((1.0, 1.0), (16, 16))
    coarse = build_partition(g, (2, 2))
    fine = build_partition(g, (4, 4))
    rng = np.random.default_rng(seed)
    field = rng.uniform(0.5, 2.0, g.n_cells)
    via_fine = from_gridded_field(
        to_cell_field(from_gridded_field(field, fine, BOUNDS)), coarse, BOUNDS)
    direct = from_gridded_field(field, coarse, BOUNDS)
    assert np.allclose(via_fine.values, direct.values, rtol=1e-12)


def test_binary_roundtrip_both_quantities(tmp_path):
    g = build_grid((1.0, 2.0), (6, 4))
    rng = np.random.default_rng(1)
    field = rng.uniform(0.3, 0.9, g.n_cells)
    for quantity in (0, 1):
        path = tmp_path / f"m{quantity}.hsmd"
        write_field(path, g, field, quantity=quantity)
        back, extents, cells = read_field(path)
        assert extents == g.extents
        assert cells == g.cells_per_axis
        assert np.allclose(back, field, rtol=1e-15)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hsmd"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("offset, patch, message", [
    (4, b"\x02\x00", "unsupported version 2"),
    (7, b"\x05", "unknown quantity flag 5"),
], ids=["version", "quantity"])
def test_binary_rejects_unknown_version_or_quantity(tmp_path, offset, patch,
                                                   message):
    # header: magic(4s) version(u16) dim(u8) quantity(u8)
    g = build_grid((1.0, 2.0), (6, 4))
    path = tmp_path / "m.hsmd"
    write_field(path, g, np.full(g.n_cells, 0.5))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"m.hsmd: {message}"):
        read_field(path)


def test_binary_writer_rejects_bad_size_or_quantity(tmp_path):
    g = build_grid((1.0, 2.0), (6, 4))
    path = tmp_path / "m.hsmd"
    with pytest.raises(ValueError, match="field must have 24 values"):
        write_field(path, g, np.full(23, 0.5))
    with pytest.raises(ValueError, match="unknown quantity flag 2"):
        write_field(path, g, np.full(g.n_cells, 0.5), quantity=2)
    assert not path.exists()


@pytest.mark.parametrize("keep", [6, 12, 24, -8])
def test_truncated_field_file_raises_value_error(tmp_path, keep):
    # cut inside the version/dim header, cell counts, extents and data
    g = build_grid((1.0, 2.0), (6, 4))
    path = tmp_path / "cut.hsmd"
    write_field(path, g, np.full(g.n_cells, 0.5))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError):
        read_field(path)


def test_text_loader(tmp_path):
    path = tmp_path / "field.txt"
    values = np.array([2000.0, 1000.0, 4000.0])
    np.savetxt(path, values)
    as_c2 = read_text_field(path, is_wavespeed=True)
    assert np.allclose(as_c2, 1.0 / values**2)
    raw = read_text_field(path)
    assert np.allclose(raw, values)


def test_profile_generators():
    g = build_grid((1.0, 1.0), (8, 8))
    tl = two_layer_field(g, 1000.0, 2000.0, 0.5)
    assert set(np.round(np.unique(tl), 12)) == {1e-6, 0.25e-6}
    ld = linear_depth_field(g, 1000.0, 2000.0)
    # wavespeed increases with depth -> squared slowness decreases
    top_cells = ld[: 8]
    bottom_cells = ld[-8:]
    assert np.all(top_cells > bottom_cells)
