import numpy as np
import pytest

from helmstab.geometry import build_grid, build_partition


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
