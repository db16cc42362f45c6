import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.derivative import (
    alessandrini_pairing,
    central_difference_matrix,
    default_step,
    frechet_directional,
    frechet_jacobian,
    frechet_norm_bounds_report,
    frechet_pairing_first_order,
    taylor_remainder,
)
from helmstab.forward import Acquisition, gaussian_source, make_acquisition
from helmstab.geometry import build_grid, build_partition
from helmstab.model import SquaredSlownessModel, to_cell_field
from helmstab.solver import (
    HelmholtzSystem,
    assemble,
    node_coefficients,
    normal_derivative,
    solve_dirichlet,
)

BOUNDS = (0.2, 1.2)
OMEGA2 = 6.0


def setup(n=24, blocks=(4, 4), seed=5):
    g = build_grid((1.0, 1.0), (n, n))
    p = build_partition(g, blocks)
    rng = np.random.default_rng(seed)
    base = SquaredSlownessModel(
        p, 0.5 + 0.1 * rng.uniform(-1.0, 1.0, p.n_subdomains), BOUNDS)
    acq = make_acquisition(g, "full", 0.3, 0.2, 0.08)
    return g, p, base, acq, rng


def gaussian_pair(g):
    gs = gaussian_source(g, (0.4, 0.0), 0.1)
    hs = gaussian_source(g, (0.6, 1.0), 0.1)
    return gs, hs


def test_identical_models_pair_to_zero():
    g, p, base, _, _ = setup()
    gs, hs = gaussian_pair(g)
    pr = alessandrini_pairing(base, base, gs, hs, OMEGA2)
    assert pr.volume_side == 0.0
    assert abs(pr.boundary_side) < 1e-12


def test_single_subdomain_perturbation_restricts_the_sum():
    g, p, base, _, _ = setup()
    gs, hs = gaussian_pair(g)
    delta = np.zeros(p.n_subdomains)
    delta[5] = 0.03
    m2 = base.perturbed(delta)
    pr = alessandrini_pairing(base, m2, gs, hs, OMEGA2)

    # recompute the volume side by hand, restricted to subdomain 5's cells
    from helmstab.model import to_cell_field
    from helmstab.solver import assemble, cell_average, solve_dirichlet

    s1 = assemble(g, to_cell_field(base), OMEGA2)
    s2 = assemble(g, to_cell_field(m2), OMEGA2)
    u = cell_average(g, solve_dirichlet(s1, gs))
    v = cell_average(g, solve_dirichlet(s2, hs))
    cells = p.cell_to_subdomain == 5
    by_hand = OMEGA2 * (-0.03) * np.sum(u[cells] * v[cells]) * g.cell_volume()
    assert np.isclose(pr.volume_side, by_hand, rtol=1e-12)


def test_alessandrini_sides_agree_and_converge():
    # one-signed 5% perturbation keeps the volume integral away from
    # cancellation, so the relative mismatch tracks discretization error
    results = {}
    for n in (32, 64):
        g = build_grid((1.0, 1.0), (n, n))
        p = build_partition(g, (4, 4))
        rng = np.random.default_rng(42)
        v = np.full(p.n_subdomains, 0.5)
        base = SquaredSlownessModel(p, v, BOUNDS)
        m2 = SquaredSlownessModel(
            p, v * (1.0 + 0.05 * rng.uniform(0.2, 1.0, p.n_subdomains)), BOUNDS)
        gs, hs = gaussian_pair(g)
        pr = alessandrini_pairing(base, m2, gs, hs, 4.0)
        results[n] = pr.relative_mismatch
    assert results[32] < 1e-2
    assert results[64] < 1e-2
    assert results[32] / results[64] >= 3.0


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.lists(st.integers(4, 12), min_size=2, max_size=2),
                 st.lists(st.integers(3, 5), min_size=3, max_size=3)),
       st.floats(0.5, 8.0), st.integers(0, 2**32 - 1))
def test_alessandrini_identity_is_exact_in_the_flux_pairing(cells, omega2,
                                                           seed):
    # with the variational flux rows the discrete identity is exact:
    # h . (flux_2 u2 - flux_1 u1) = omega^2 sum_i vol_i (c1_i - c2_i) u1_i v2_i
    # over every node, with u_k the model-k solve for g, v2 the model-2
    # solve for h and c_k the nodal coefficients; the unit box, c^-2 in
    # [0.25, 1] and omega^2 <= 8 stay below the first Dirichlet eigenvalue
    grid = build_grid((1.0,) * len(cells), cells)
    rng = np.random.default_rng(seed)
    s1, s2 = (HelmholtzSystem(grid, rng.uniform(0.25, 1.0, grid.n_cells),
                              omega2) for _ in range(2))
    g = rng.normal(size=grid.n_boundary)
    h = rng.normal(size=grid.n_boundary)
    u1 = solve_dirichlet(s1, g)
    u2 = solve_dirichlet(s2, g)
    v2 = solve_dirichlet(s2, h)
    boundary = np.dot(h, s2.flux_rows.dot(u2) - s1.flux_rows.dot(u1))
    volume = omega2 * np.sum(s1.node_volumes * (s1.node_coeff - s2.node_coeff)
                             * u1 * v2)
    assert abs(boundary - volume) <= 1e-8 * max(abs(boundary), abs(volume))


def test_pairing_requires_same_grid():
    g1 = build_grid((1.0, 1.0), (8, 8))
    g2 = build_grid((1.0, 1.0), (16, 16))
    m1 = SquaredSlownessModel(build_partition(g1, (2, 2)), np.full(4, 0.5), BOUNDS)
    m2 = SquaredSlownessModel(build_partition(g2, (2, 2)), np.full(4, 0.5), BOUNDS)
    with pytest.raises(ValueError):
        alessandrini_pairing(m1, m2, np.zeros(g1.n_boundary),
                             np.zeros(g1.n_boundary), OMEGA2)


def test_zero_direction_gives_zero_matrix():
    _, p, base, acq, _ = setup()
    df = frechet_directional(base, np.zeros(p.n_subdomains), OMEGA2, acq)
    assert df.shape == (acq.n_sources, acq.n_receivers)
    assert np.all(df == 0.0)


def test_directional_derivative_additive():
    _, p, base, acq, _ = setup()
    e0 = np.zeros(p.n_subdomains)
    e0[0] = 1.0
    e3 = np.zeros(p.n_subdomains)
    e3[3] = 1.0
    d0 = frechet_directional(base, e0, OMEGA2, acq)
    d3 = frechet_directional(base, e3, OMEGA2, acq)
    d03 = frechet_directional(base, e0 + e3, OMEGA2, acq)
    scale = np.max(np.abs(d03))
    assert np.max(np.abs(d0 + d3 - d03)) <= 1e-12 * scale


def test_directional_derivative_homogeneous():
    _, p, base, acq, rng = setup()
    direction = rng.normal(size=p.n_subdomains)
    d1 = frechet_directional(base, direction, OMEGA2, acq)
    d2 = frechet_directional(base, 2.5 * direction, OMEGA2, acq)
    assert np.allclose(d2, 2.5 * d1, rtol=1e-12)


def test_two_derivative_implementations_agree():
    _, p, base, acq, rng = setup()
    for _ in range(3):
        direction = rng.normal(size=p.n_subdomains)
        pair = frechet_directional(base, direction, OMEGA2, acq,
                                   convention="pairing")
        flux = frechet_pairing_first_order(base, direction, OMEGA2, acq)
        scale = np.max(np.abs(pair))
        assert np.max(np.abs(pair - flux)) <= 1e-8 * scale


def test_taylor_remainder_is_second_order():
    _, p, base, acq, rng = setup()
    direction = rng.normal(size=p.n_subdomains)
    direction /= np.max(np.abs(direction))
    eps = default_step(base)
    df = frechet_directional(base, direction, OMEGA2, acq)
    r1 = taylor_remainder(base, direction, OMEGA2, acq, eps, df)
    r2 = taylor_remainder(base, direction, OMEGA2, acq, eps / 2, df)
    assert 3.5 <= r1 / r2 <= 4.5


def test_central_difference_matches_derivative():
    _, p, base, acq, rng = setup()
    direction = rng.normal(size=p.n_subdomains)
    direction /= np.max(np.abs(direction))
    eps = default_step(base)
    df = frechet_directional(base, direction, OMEGA2, acq)
    slope = central_difference_matrix(base, direction, OMEGA2, acq, eps)
    scale = np.max(np.abs(df))
    assert np.max(np.abs(slope - df)) <= 1e-4 * scale


def test_pairing_matrix_symmetric_when_sources_equal_receivers():
    g, p, base, _, rng = setup()
    acq = make_acquisition(g, "full", 0.3, 0.3, 0.08)
    direction = rng.normal(size=p.n_subdomains)
    df = frechet_directional(base, direction, OMEGA2, acq,
                             convention="pairing")
    scale = np.max(np.abs(df))
    assert np.max(np.abs(df - df.T)) <= 1e-8 * scale


def test_bounds_report():
    g, p, base, acq, _ = setup(n=16, blocks=(2, 2))
    report = frechet_norm_bounds_report(base, OMEGA2, acq)
    assert len(report.norms) == p.n_subdomains
    assert report.min_norm > 0.0          # local injectivity smoke test
    assert report.max_norm >= report.min_norm
    assert np.isfinite(report.lower_shape_constant)

    # smallest singular value of the weighted (n_src * n_rec, N) Jacobian,
    # built column by column from the directional derivative
    rows = np.sqrt(np.outer(acq.source_weights, acq.receiver_weights)).ravel()
    columns = []
    for j in range(p.n_subdomains):
        e = np.zeros(p.n_subdomains)
        e[j] = 1.0
        df = frechet_directional(base, e, OMEGA2, acq).ravel()
        columns.append(rows * df / np.sqrt(p.subdomain_volumes[j]))
    sigma = np.linalg.svd(np.column_stack(columns), compute_uv=False)[-1]
    assert np.isclose(report.jacobian_sigma_min, sigma, rtol=1e-10)
    assert report.local_lipschitz == 1.0 / report.jacobian_sigma_min


def test_bounds_report_upper_shape_uses_the_distance_to_spectrum():
    # C in C omega^2 (1 + omega^2 / d)^2 = max_norm; without a positive
    # distance d the shape falls back to C omega^2 = max_norm
    _, _, base, acq, _ = setup(n=16, blocks=(2, 2))
    for d in (0.5, 40.0):
        report = frechet_norm_bounds_report(base, OMEGA2, acq,
                                            distance_to_spectrum=d)
        assert report.distance_to_spectrum == d
        assert np.isclose(report.upper_shape_constant,
                          report.max_norm / (OMEGA2 * (1 + OMEGA2 / d) ** 2),
                          rtol=1e-15, atol=0)
    for d in (None, 0.0, -3.0):
        report = frechet_norm_bounds_report(base, OMEGA2, acq,
                                            distance_to_spectrum=d)
        assert np.isclose(report.upper_shape_constant,
                          report.max_norm / OMEGA2, rtol=1e-15, atol=0)


def test_bounds_report_with_fewer_data_than_unknowns():
    # one source and two receivers cannot determine four subdomain values
    g, p, base, _, _ = setup(n=16, blocks=(2, 2))
    acq = Acquisition(grid=g, mode="full", source_idx=[3], receiver_idx=[9, 20],
                      source_sigma=0.08)
    report = frechet_norm_bounds_report(base, OMEGA2, acq)
    assert report.jacobian_sigma_min == 0.0
    assert report.local_lipschitz == np.inf


def test_bounds_report_uses_every_direction_beyond_64():
    # N = 81: every direction gets a norm and sigma_min is that of the
    # stacked, weighted Jacobian
    g, p, base, acq, _ = setup(n=18, blocks=(9, 9))
    report = frechet_norm_bounds_report(base, OMEGA2, acq)
    assert p.n_subdomains == 81
    assert len(report.norms) == 81
    jac = frechet_jacobian(base, OMEGA2, acq)
    rows = np.sqrt(np.outer(acq.source_weights, acq.receiver_weights)).ravel()
    stacked = (jac.reshape(81, -1) * rows
               / np.sqrt(p.subdomain_volumes)[:, None]).T
    sigma = np.linalg.svd(stacked, compute_uv=False)[-1]
    assert np.isfinite(report.jacobian_sigma_min)
    assert np.isclose(report.jacobian_sigma_min, sigma, rtol=1e-8)
    assert report.local_lipschitz == 1.0 / report.jacobian_sigma_min


def test_single_direction_matches_fd_slope():
    g, p, base, acq, _ = setup(n=16, blocks=(2, 2))
    e = np.zeros(p.n_subdomains)
    e[1] = 1.0
    df = frechet_directional(base, e, OMEGA2, acq)
    eps = default_step(base)
    slope = central_difference_matrix(base, e, OMEGA2, acq, eps)
    scale = np.max(np.abs(df))
    assert np.max(np.abs(df - slope)) <= 1e-4 * scale


def test_omega2_prefactor_in_pairing_form():
    # with frozen fields, the pairing entries carry an explicit omega^2 factor
    g, p, base, acq, rng = setup(n=16, blocks=(2, 2))
    direction = rng.normal(size=p.n_subdomains)
    from helmstab.model import to_cell_field
    from helmstab.solver import (
        assemble,
        node_coefficients,
        solve_dirichlet,
    )

    sys_ = assemble(g, to_cell_field(base), OMEGA2)
    dnode = node_coefficients(g, direction[p.cell_to_subdomain])
    gs = gaussian_source(g, tuple(acq.source_positions[0]), acq.source_sigma)
    hs = gaussian_source(g, tuple(acq.receiver_positions[0]), acq.source_sigma)
    u = solve_dirichlet(sys_, gs)
    v = solve_dirichlet(sys_, hs)
    interior = g.interior_nodes
    integral = float(np.sum((sys_.node_volumes * dnode * u * v)[interior]))
    entry = -OMEGA2 * integral
    df = frechet_directional(base, direction, OMEGA2, acq,
                             convention="pairing")
    assert np.isclose(df[0, 0], entry, rtol=1e-12)
    # doubling omega^2 with the same fields doubles the factored entry
    assert np.isclose(-2 * OMEGA2 * integral, 2 * entry, rtol=1e-15)


def first_order_data_slice(base, acq, omega2, j):
    """Data-convention derivative along subdomain j's indicator by the direct
    route: one first-order solve per source, then the receiver stencil."""
    grid = base.grid
    sys_ = assemble(grid, to_cell_field(base), omega2)
    dnode = node_coefficients(
        grid, (base.partition.cell_to_subdomain == j).astype(float))
    g = np.column_stack([gaussian_source(grid, pos, acq.source_sigma)
                         for pos in acq.source_positions])
    u = solve_dirichlet(sys_, g)
    w = solve_dirichlet(sys_, np.zeros_like(g),
                        omega2 * (dnode[:, None] * u)[grid.interior_nodes])
    return normal_derivative(grid, w)[acq.receiver_idx].T


def close_in_norm(got, want, rtol):
    # a receiver whose inward stencil nodes all lie on the boundary (a corner
    # of a 3-cell axis) gives an exactly zero column on both sides
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


# 3-cell axes at omega^2 up to 8 are deliberately coarse
@pytest.mark.filterwarnings("ignore:grid resolves only")
@settings(max_examples=20, deadline=None)
@given(st.one_of(st.lists(st.integers(3, 8), min_size=2, max_size=2),
                 st.lists(st.integers(3, 4), min_size=3, max_size=3)),
       st.floats(0.5, 8.0), st.integers(1, 10), st.integers(1, 10),
       st.integers(0, 2**32 - 1))
def test_jacobian_matches_first_order_references(cells, omega2, n_src, n_rec,
                                                 seed):
    # unit box, c^-2 in [0.25, 1], omega^2 <= 8: well below the first
    # discrete Dirichlet eigenvalue (see test_solver)
    rng = np.random.default_rng(seed)
    grid = build_grid((1.0,) * len(cells), cells)
    blocks = [int(rng.integers(1, c + 1)) for c in cells]
    partition = build_partition(grid, blocks)
    n = partition.n_subdomains
    base = SquaredSlownessModel(partition, rng.uniform(0.25, 1.0, n),
                                (0.2, 1.2))
    # boundary position of flat node 0 is a corner: the stencil's inward
    # nodes there lie on another face
    corner = grid.boundary_position[0]
    acq = Acquisition(
        grid=grid, mode="full",
        source_idx=rng.choice(grid.n_boundary, size=n_src),
        receiver_idx=np.append(rng.choice(grid.n_boundary, size=n_rec),
                               corner),
        source_sigma=0.4)

    data = frechet_jacobian(base, omega2, acq)
    pairing = frechet_jacobian(base, omega2, acq, convention="pairing")
    assert data.shape == pairing.shape == (n, n_src, n_rec + 1)
    for j in range(n):
        ref = first_order_data_slice(base, acq, omega2, j)
        assert close_in_norm(data[j], ref, 1e-10)
        e = np.zeros(n)
        e[j] = 1.0
        flux = frechet_pairing_first_order(base, e, omega2, acq)
        assert close_in_norm(pairing[j], flux, 1e-8)

    d = rng.normal(size=n)
    for convention, jac in (("data", data), ("pairing", pairing)):
        df = frechet_directional(base, d, omega2, acq, convention=convention)
        combined = np.tensordot(d, jac, axes=1)
        assert np.max(np.abs(df - combined)) <= \
            1e-12 * np.max(np.abs(combined))


def test_jacobian_rejects_bad_directions():
    _, p, base, acq, _ = setup(n=8, blocks=(2, 2))
    e = np.zeros(p.n_subdomains)
    e[0] = 1.0
    for bad, match in (([1.0, 0.0], "entries"),
                       (np.where(e > 0, np.nan, e), "finite"),
                       (np.where(e > 0, np.inf, e), "finite"),
                       (np.where(e > 0, -np.inf, e), "finite")):
        with pytest.raises(ValueError, match=match):
            frechet_directional(base, bad, OMEGA2, acq)
        with pytest.raises(ValueError, match=match):
            frechet_pairing_first_order(base, bad, OMEGA2, acq)
    with pytest.raises(ValueError):
        frechet_jacobian(base, OMEGA2, acq, convention="flux")


def test_derivatives_reject_acquisition_on_another_grid():
    _, _, base, _, _ = setup(n=8, blocks=(2, 2))
    e = np.zeros(base.n_subdomains)
    e[0] = 1.0
    # same node counts but other extents, and another node count
    for other in (build_grid((2.0, 1.0), (8, 8)),
                  build_grid((1.0, 1.0), (16, 16))):
        acq = make_acquisition(other, "full", 0.5, 0.5, 0.08)
        with pytest.raises(ValueError, match="different grids"):
            frechet_jacobian(base, OMEGA2, acq)
        with pytest.raises(ValueError, match="different grids"):
            frechet_directional(base, e, OMEGA2, acq)
        with pytest.raises(ValueError, match="different grids"):
            frechet_pairing_first_order(base, e, OMEGA2, acq)
