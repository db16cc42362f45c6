from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.geometry import CubicalPartition, build_grid, build_partition
from helmstab.solver import axis_eigenvalues

# 2D and 3D lattices with 2-9 cells per axis
cell_shapes = st.lists(st.integers(2, 9), min_size=2, max_size=3)


def test_smallest_3d_grid_with_interior_node():
    g = build_grid((1.0, 1.0, 1.0), (2, 2, 2))
    assert g.n_nodes == 27
    assert g.n_boundary == 26
    assert g.n_interior == 1


def test_2d_node_counting():
    g = build_grid((1.0, 1.0), (4, 4))
    assert g.n_nodes == 25
    assert g.n_boundary == 16
    assert g.n_interior == 9


def test_field_scale_domain_geometry():
    # 2.55 x 1.45 x 1.22 km block at coarse desk resolution
    g = build_grid((2550.0, 1450.0, 1220.0), (32, 30, 24))
    assert g.dim == 3
    assert g.spacing == (2550.0 / 32, 1450.0 / 30, 1220.0 / 24)
    p = build_partition(g, (16, 15, 12))
    assert p.n_subdomains == 2880
    assert np.isclose(p.subdomain_volumes.sum(), np.prod(g.extents), rtol=1e-12)


def test_invalid_grid_arguments():
    with pytest.raises(ValueError):
        build_grid((0.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        build_grid((1.0, 1.0), (4, 0))
    with pytest.raises(ValueError):
        build_grid((1.0, 1.0), (4, -2))
    with pytest.raises(ValueError):
        build_grid((1.0,), (4,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            build_grid((1.0, bad), (4, 4))
    # the stencil divides by h^2, which underflows to 0 at 1e-300, gives
    # an infinite 1/h^2 at 1e-160, and overflows to inf (so 1/h^2 = 0) at
    # 1e160
    for extent in (1e-300, 1e-160, 1e160):
        with pytest.raises(ValueError, match=r"1/h\^2 must be positive"):
            build_grid((extent, 1.0), (4, 4))
    # at h = 1.2e-154, 1/h^2 is finite but 4/h^2, which bounds the stencil's
    # largest eigenvalue, is not; at twice that h both are
    with pytest.raises(ValueError, match=r"sum_a 4/h_a\^2, which bounds"):
        build_grid((9.6e-154, 1.0), (8, 8))
    assert np.isfinite(
        axis_eigenvalues(build_grid((9.6e-154, 1.0), (4, 4)))[0]).all()
    # a string is not split into characters: "64" is not (6, 4)
    with pytest.raises(ValueError, match="list of numbers"):
        build_grid((1.0, 1.0), "64")
    with pytest.raises(ValueError, match="list of numbers"):
        build_grid("11", (4, 4))


def test_every_node_classified_once():
    g = build_grid((2.0, 1.0), (6, 5))
    combined = np.sort(np.concatenate([g.boundary_nodes, g.interior_nodes]))
    assert np.array_equal(combined, np.arange(g.n_nodes))


def test_boundary_corner_owned_by_lowest_axis():
    g = build_grid((1.0, 1.0), (4, 4))
    # the (0, 0) corner touches faces x-low and y-low; x-low must own it
    corner = g.boundary_position[0]
    assert g.boundary_face[corner] == 0


def test_boundary_weights_sum_to_surface_measure():
    g2 = build_grid((2.0, 1.0), (8, 4))
    assert np.isclose(g2.boundary_weights.sum(), 2 * (2.0 + 1.0))
    g3 = build_grid((1.0, 2.0, 3.0), (4, 4, 6))
    area = 2 * (1 * 2 + 1 * 3 + 2 * 3)
    assert np.isclose(g3.boundary_weights.sum(), area)


def test_uniform_partition_split():
    g = build_grid((1.0, 1.0, 1.0), (8, 8, 8))
    p = build_partition(g, (2, 2, 2))
    assert p.n_subdomains == 8
    assert np.allclose(p.subdomain_volumes, 0.125)
    assert p.r0 == 0.5


def test_partition_remainder_rule():
    # 6 cells into 4 blocks -> widths {2, 2, 1, 1}, areas still sum to |Omega|
    g = build_grid((1.0, 1.0), (6, 6))
    p = build_partition(g, (4, 4))
    assert p.widths_per_axis == ((2, 2, 1, 1), (2, 2, 1, 1))
    h = 1.0 / 6.0
    widths = np.array([2, 2, 1, 1]) * h
    expected = np.multiply.outer(widths, widths).reshape(-1)  # y-outer, x-inner
    assert np.allclose(np.sort(p.subdomain_volumes), np.sort(expected))
    assert np.isclose(p.subdomain_volumes.sum(), 1.0, rtol=1e-12)


def test_partition_of_unity():
    g = build_grid((1.0, 2.0), (12, 10))
    p = build_partition(g, (5, 3))
    counts = np.bincount(p.cell_to_subdomain, minlength=p.n_subdomains)
    assert counts.sum() == g.n_cells
    assert np.all(counts >= 1)
    # each cell claimed exactly once is implied by the map being a function;
    # check volumes match the claimed cell counts
    assert np.allclose(counts * g.cell_volume(), p.subdomain_volumes)


def test_too_many_blocks_rejected():
    g = build_grid((1.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        build_partition(g, (5, 2))
    with pytest.raises(ValueError):
        build_partition(g, (0, 2))
    with pytest.raises(ValueError, match="list of numbers"):
        build_partition(g, "22")
    for counts in ((2,), (2, 2, 2)):
        with pytest.raises(ValueError, match="need 2 block counts"):
            build_partition(g, counts)


@pytest.mark.parametrize("widths, message", [
    (((4,),), "one width list per axis"),
    (((4,), (4,), (4,)), "one width list per axis"),
    (((4,), (0, 4)), r"axis 1: block widths must be >= 1"),
    (((3,), (2, 2)), r"axis 0: widths \(3,\) do not cover 4 cells"),
    (((2, 2), (2, 3)), r"axis 1: widths \(2, 3\) do not cover 4 cells"),
])
def test_partition_widths_must_tile_every_axis(widths, message):
    g = build_grid((1.0, 1.0), (4, 4))
    with pytest.raises(ValueError, match=message):
        CubicalPartition(g, widths)


def test_nearest_boundary_node_rejects_points_off_the_box():
    g = build_grid((1.0, 0.5), (10, 5))   # h = 0.1 on both axes
    flat, dist = g.nearest_boundary_node((0.53, 0.0))
    assert np.allclose(g.node_coordinates(flat), (0.5, 0.0))
    assert np.isclose(dist, 0.03)
    # within h/2 outside the box still snaps to the boundary node
    flat, _ = g.nearest_boundary_node((1.04, 0.3))
    assert np.allclose(g.node_coordinates(flat), (1.0, 0.3))
    for point in ((50.0, 0.3), (-0.06, 0.2), (0.5, 0.56), (np.nan, 0.0),
                  (np.inf, 0.0)):
        with pytest.raises(ValueError, match="off the box"):
            g.nearest_boundary_node(point)
    with pytest.raises(ValueError, match="does not lie on the boundary"):
        g.nearest_boundary_node((0.5, 0.25))


@settings(max_examples=40, deadline=None)
@given(cell_shapes)
def test_index_maps_invert_each_other_x_fastest(cells):
    g = build_grid((1.0,) * len(cells), cells)
    for shape, multi_index, index in (
            (g.cells_per_axis, g.cell_multi_index, g.cell_index),
            (g.nodes_per_axis, g.node_multi_index, g.node_index)):
        k = np.arange(int(np.prod(shape)))
        mi = multi_index(k)
        assert mi.shape == (k.size, g.dim)
        assert np.array_equal(index(mi), k)
        iz = mi[:, 2] if g.dim == 3 else 0
        assert np.array_equal(mi[:, 0] + shape[0] * (mi[:, 1] + shape[1] * iz), k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cell_to_subdomain_matches_a_brute_force_lookup(data):
    cells = data.draw(cell_shapes)
    widths = []
    for n in cells:
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))))
        widths.append(tuple(np.diff([0, *cuts, n]).tolist()))
    p = CubicalPartition(build_grid((1.0,) * len(cells), cells), widths)
    # block index of every cell along each axis, by scanning the widths
    blocks = [[b for b, w in enumerate(ws) for _ in range(w)] for ws in widths]
    expected = []
    for rev in product(*(range(n) for n in reversed(cells))):  # x fastest
        flat, stride = 0, 1
        for a, i in enumerate(reversed(rev)):
            flat += blocks[a][i] * stride
            stride *= len(widths[a])
        expected.append(flat)
    assert p.cell_to_subdomain.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_node_tables_match_a_per_node_definition(data):
    # a node lies on the faces 2a (index 0 on axis a) and 2a + 1 (the last
    # index); the lowest such face owns it, and each such face adds the
    # product over the other axes t of h_t, halved at an end of axis t
    cells = data.draw(cell_shapes)
    g = build_grid(tuple(data.draw(st.floats(0.5, 2.0)) for _ in cells), cells)
    npa = g.nodes_per_axis
    boundary, owner, weights = [], [], []
    for flat, rev in enumerate(product(*(range(n) for n in reversed(npa)))):
        idx = rev[::-1]                                   # x fastest
        faces = [2 * a + (i > 0) for a, i in enumerate(idx)
                 if i in (0, npa[a] - 1)]
        if not faces:
            continue
        boundary.append(flat)
        owner.append(min(faces))
        weight = 0.0
        for face in faces:
            patch = 1.0
            for t, i in enumerate(idx):
                if t != face // 2:
                    patch *= g.spacing[t] / (2.0 if i in (0, npa[t] - 1) else 1.0)
            weight += patch
        weights.append(weight)
    assert g.boundary_nodes.tolist() == boundary
    assert g.interior_nodes.tolist() == sorted(set(range(g.n_nodes)) - set(boundary))
    assert g.boundary_face.tolist() == owner
    assert np.allclose(g.boundary_weights, weights, rtol=1e-15, atol=0)
    expected_position = np.full(g.n_nodes, -1)
    expected_position[boundary] = np.arange(len(boundary))
    assert g.boundary_position.tolist() == expected_position.tolist()
