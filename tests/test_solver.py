import gc
import itertools
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dstn
from scipy.sparse.linalg import splu

from helmstab import solver
from helmstab.errors import NumericalFailureError
from helmstab.forward import cache_info, clear_caches, make_acquisition
from helmstab.geometry import _lattice, _trapezoid, build_grid
from helmstab.solver import (
    SOLVER_RTOL,
    HelmholtzSystem,
    assemble,
    axis_eigenvalues,
    node_coefficients,
    normal_derivative,
    normal_derivative_adjoint,
    solve_dirichlet,
    stencil_eigenvalues,
)
from tests.oracles import cell_average


def unit_square(n, coeff=1.0, omega2=0.0):
    g = build_grid((1.0, 1.0), (n, n))
    return g, HelmholtzSystem(g, np.full(g.n_cells, coeff), omega2)


def test_single_interior_node_matrix():
    g = build_grid((1.0, 1.0, 1.0), (2, 2, 2))
    with pytest.warns(UserWarning):  # deliberately under-resolved
        sys_ = assemble(g, np.full(8, 0.7), 5.0)
    # h = 0.5: diagonal 6/h^2 - omega^2 * c = 24 - 3.5
    assert sys_.interior_matrix.shape == (1, 1)
    assert np.isclose(sys_.interior_matrix.toarray()[0, 0], 24.0 - 5.0 * 0.7)


# 2D and 3D boxes with 2-9 cells per axis and random extents
boxes = st.integers(2, 3).flatmap(lambda dim: st.tuples(
    st.lists(st.floats(0.3, 3.0), min_size=dim, max_size=dim),
    st.lists(st.integers(2, 9), min_size=dim, max_size=dim)))


@settings(max_examples=30, deadline=None)
@given(boxes)
def test_stiffness_is_the_per_edge_sum(box):
    # an edge along axis a carries 1/h_a^2 times the trapezoid factor of
    # every other axis, on both of its nodes
    g = build_grid(*box)
    npa = g.nodes_per_axis
    expected = np.zeros((g.n_nodes, g.n_nodes))
    for mi in itertools.product(*(range(n) for n in npa)):
        p = g.node_index(mi)
        for a, h in enumerate(g.spacing):
            if mi[a] + 1 == npa[a]:
                continue
            w = 1.0 / h**2 * np.prod([0.5 if mi[t] in (0, npa[t] - 1) else 1.0
                                      for t in range(g.dim) if t != a])
            q = g.node_index(tuple(i + (t == a) for t, i in enumerate(mi)))
            expected[[p, q, p, q], [p, q, q, p]] += [w, w, -w, -w]
    got = solver._form_stiffness(g)
    assert got.nnz == np.count_nonzero(expected)
    got = got.toarray()
    assert np.array_equal(got != 0, expected != 0)
    assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))


@settings(max_examples=30, deadline=None)
@given(boxes, st.lists(st.floats(0.25, 4.0), min_size=1, max_size=16))
@example(((1.0, 1.0), (2, 2)), [1.0, 2.0, 3.0, 4.0])
def test_node_coefficient_is_the_mean_of_the_touching_cells(box, values):
    # the cell values cycle through ``values``, x-fastest
    g = build_grid(*box)
    coeff = np.resize(values, g.n_cells)
    nodal = node_coefficients(g, coeff)
    for mi in itertools.product(*(range(n) for n in g.nodes_per_axis)):
        # per axis, the cells j - 1 and j that exist touch node j
        cells = itertools.product(*([i for i in (j - 1, j) if 0 <= i < n]
                                    for j, n in zip(mi, g.cells_per_axis)))
        mean = np.mean([coeff[g.cell_index(c)] for c in cells])
        assert np.isclose(nodal[g.node_index(mi)], mean, rtol=1e-15, atol=0)


@settings(max_examples=30, deadline=None)
@given(boxes, st.integers(0, 2**32 - 1))
def test_cell_average_is_the_mean_of_the_corners(box, seed):
    g = build_grid(*box)
    u = np.random.default_rng(seed).normal(size=g.n_nodes)
    got = cell_average(g, u)
    assert got.shape == (g.n_cells,)
    for ci in itertools.product(*(range(n) for n in g.cells_per_axis)):
        corners = itertools.product(*((i, i + 1) for i in ci))
        mean = np.mean([u[g.node_index(c)] for c in corners])
        assert abs(got[g.cell_index(ci)] - mean) <= 1e-15 * np.abs(u).max()


def test_laplace_reproduces_linear_functions():
    g, sys_ = unit_square(8)
    x = g.all_node_coordinates()[:, 0]
    u = solve_dirichlet(sys_, x[g.boundary_nodes])
    assert np.max(np.abs(u - x)) < 1e-10


def test_zero_data_gives_zero_solution():
    g, sys_ = unit_square(8, omega2=3.0)
    u = solve_dirichlet(sys_, np.zeros(g.n_boundary))
    assert np.array_equal(u, np.zeros(g.n_nodes))


def test_constant_boundary_harmonic():
    g, sys_ = unit_square(8, omega2=0.0)
    u = solve_dirichlet(sys_, np.ones(g.n_boundary))
    assert np.max(np.abs(u - 1.0)) < 1e-12


def test_manufactured_solution_second_order():
    # u* = cos(pi x) cos(pi y), f = (2 pi^2 - omega^2) u*
    def error(n):
        g = build_grid((1.0, 1.0), (n, n))
        sys_ = HelmholtzSystem(g, np.ones(g.n_cells), 1.0)
        xy = g.all_node_coordinates()
        ustar = np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1])
        f = (2 * np.pi**2 - 1.0) * ustar[g.interior_nodes]
        u = solve_dirichlet(sys_, ustar[g.boundary_nodes], f)
        w = sys_.node_volumes
        return np.sqrt(np.sum(w * (u - ustar) ** 2) / np.sum(w * ustar**2))

    errs = [error(n) for n in (16, 32, 64)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.2 for o in orders)


def test_solution_linearity():
    g, sys_ = unit_square(12, omega2=4.0)
    rng = np.random.default_rng(0)
    g1 = rng.normal(size=g.n_boundary)
    g2 = rng.normal(size=g.n_boundary)
    a, b = 1.7, -0.4
    u12 = solve_dirichlet(sys_, a * g1 + b * g2)
    u1 = solve_dirichlet(sys_, g1)
    u2 = solve_dirichlet(sys_, g2)
    scale = np.max(np.abs(u12))
    assert np.max(np.abs(u12 - (a * u1 + b * u2))) < 1e-12 * scale


def test_input_size_validation():
    g, sys_ = unit_square(8)
    with pytest.raises(ValueError):
        solve_dirichlet(sys_, np.zeros(3))
    with pytest.raises(ValueError):
        solve_dirichlet(sys_, np.zeros(g.n_boundary), np.zeros(5))
    with pytest.raises(ValueError):
        normal_derivative(g, np.zeros(7))


def test_normal_derivative_on_linear_field():
    g, sys_ = unit_square(8)
    coords = g.all_node_coordinates()
    nd = normal_derivative(g, coords[:, 0])
    axes = g.boundary_face // 2
    sides = g.boundary_face % 2
    expect = np.where(axes == 0, np.where(sides == 1, 1.0, -1.0), 0.0)
    assert np.allclose(nd, expect, atol=1e-12)


def test_normal_derivative_constant_field_zero():
    g, sys_ = unit_square(8)
    nd = normal_derivative(g, np.full(g.n_nodes, 3.7))
    assert np.max(np.abs(nd)) < 1e-12


def test_normal_derivative_exact_on_quadratics():
    g, sys_ = unit_square(10)
    coords = g.all_node_coordinates()
    nd = normal_derivative(g, coords[:, 0] ** 2)
    xb = coords[g.boundary_nodes, 0]
    axes = g.boundary_face // 2
    sides = g.boundary_face % 2
    expect = np.where(axes == 0, np.where(sides == 1, 2 * xb, -2 * xb), 0.0)
    assert np.allclose(nd, expect, atol=1e-11)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.lists(st.integers(4, 12), min_size=2, max_size=2),
                 st.lists(st.integers(3, 5), min_size=3, max_size=3)),
       st.floats(0.5, 8.0), st.integers(0, 2**32 - 1))
def test_dtn_pairing_symmetry(cells, omega2, seed):
    # <Lambda g, h> = <Lambda h, g> to near machine precision (flux pairing);
    # on the unit box with c^-2 <= 1, omega^2 <= 8 stays below the first
    # Dirichlet eigenvalue 2 pi^2 / B2
    g = build_grid((1.0,) * len(cells), cells)
    rng = np.random.default_rng(seed)
    sys_ = HelmholtzSystem(g, rng.uniform(0.25, 1.0, g.n_cells), omega2)
    ga = rng.normal(size=g.n_boundary)
    hb = rng.normal(size=g.n_boundary)
    pa = np.dot(sys_.flux_rows.dot(solve_dirichlet(sys_, ga)), hb)
    pb = np.dot(sys_.flux_rows.dot(solve_dirichlet(sys_, hb)), ga)
    assert abs(pa - pb) <= 1e-8 * max(abs(pa), abs(pb))


def test_flux_reciprocity_point_sources():
    # point data at p and q swapped give the same flux sample
    g = build_grid((1.0, 1.0), (16, 16))
    sys_ = HelmholtzSystem(g, np.full(g.n_cells, 0.8), 5.0)
    p, q = 3, 37
    ep = np.zeros(g.n_boundary)
    ep[p] = 1.0
    eq = np.zeros(g.n_boundary)
    eq[q] = 1.0
    at_q = sys_.flux_rows.dot(solve_dirichlet(sys_, ep))[q]
    at_p = sys_.flux_rows.dot(solve_dirichlet(sys_, eq))[p]
    assert abs(at_q - at_p) < 1e-6 * max(abs(at_q), abs(at_p))


@pytest.mark.parametrize("cells", [(12, 12, 12), (48, 48)])
def test_factorization_uses_symmetric_ordering(cells):
    # the symmetric-pattern ordering roughly halves the fill of COLAMD's
    # (about 0.54 at 12^3 and 0.59 at 48^2) and changes the solution only by
    # rounding
    g = build_grid((1.0,) * len(cells), cells)
    rng = np.random.default_rng(11)
    sys_ = HelmholtzSystem(g, rng.uniform(0.25, 1.0, g.n_cells), 8.0)
    lu = sys_.factorization
    colamd = splu(sys_.interior_matrix, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= 0.7 * (colamd.L.nnz + colamd.U.nnz)
    rhs = rng.normal(size=(g.n_interior, 8))
    x, ref = lu.solve(rhs), colamd.solve(rhs)
    assert np.all(np.linalg.norm(x - ref, axis=0)
                  <= 1e-12 * np.linalg.norm(ref, axis=0))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.lists(st.integers(3, 12), min_size=2, max_size=2),
                 st.lists(st.integers(3, 6), min_size=3, max_size=3)),
       st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
def test_interior_matrix_is_exactly_symmetric(cells, omega2, seed):
    # the premise of the symmetric-pattern LU ordering
    g = build_grid((1.0,) * len(cells), cells)
    coeff = np.random.default_rng(seed).uniform(0.25, 1.0, g.n_cells)
    a = HelmholtzSystem(g, coeff, omega2).interior_matrix
    assert abs(a - a.T).max() == 0


def form_blocks(g, coeff, omega2):
    """interior_matrix, coupling, flux_rows, node_coeff and node_volumes cut
    from the whole form ``K - omega^2 diag(t c)``, built for this system
    alone."""
    c = solver._node_averaging(g) @ coeff
    t = _lattice(np.multiply, [_trapezoid(m) for m in g.nodes_per_axis])
    form = (solver._form_stiffness(g) - omega2 * sp.diags(t * c)).tocsr()
    rows = form[g.interior_nodes]
    return (rows[:, g.interior_nodes], rows[:, g.boundary_nodes],
            g.cell_volume() * form[g.boundary_nodes], c, g.cell_volume() * t)


@settings(max_examples=40, deadline=None)
@given(boxes, st.just(0.0) | st.floats(0.0, 0.999), st.integers(0, 2**32 - 1))
def test_systems_share_the_grid_blocks_and_own_their_diagonal(box, fraction,
                                                              seed):
    # omega^2 up to 0.999 lambda_h,1 with c <= 1 keeps every system definite
    g = build_grid(*box)
    omega2 = fraction * first_stencil_eigenvalue(g)
    rng = np.random.default_rng(seed)
    coeff, other_coeff = rng.uniform(0.25, 1.0, (2, g.n_cells))
    G = rng.normal(size=(g.n_boundary, 2))
    sys_ = HelmholtzSystem(g, coeff, omega2)
    blocks = (sys_.interior_matrix, sys_.coupling, sys_.flux_rows)
    expected = form_blocks(g, coeff, omega2)
    for got, want in zip(blocks, expected):
        assert np.array_equal(got.toarray(), want.toarray())
    assert np.array_equal(sys_.node_coeff, expected[3])
    assert np.array_equal(sys_.node_volumes, expected[4])
    dense = [m.toarray() for m in blocks]
    u = solve_dirichlet(sys_, G)

    # a second system on the grid shares its pattern, not its values, and
    # leaves the first system's matrices and solutions as they were
    other = HelmholtzSystem(g, other_coeff, 0.5 * omega2)
    assert np.array_equal(other.flux_rows.toarray(),
                          form_blocks(g, other_coeff, 0.5 * omega2)[2].toarray())
    solve_dirichlet(other, G)
    assert np.shares_memory(other.interior_matrix.indices,
                            sys_.interior_matrix.indices)
    assert not np.shares_memory(other.interior_matrix.data,
                                sys_.interior_matrix.data)
    for m, d in zip(blocks, dense):
        assert np.array_equal(m.toarray(), d)
    assert np.array_equal(solve_dirichlet(sys_, G), u)

    # the grid's arrays are read-only, so no system can write into another
    for arr in (sys_.coupling.data, sys_.interior_matrix.indices,
                sys_.interior_matrix.indptr, sys_.flux_rows.indices,
                sys_.node_volumes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def kronecker_fd_laplacian(g):
    """-Lap on every node as a Kronecker sum of 1-D second differences
    [-1, 2, -1] / h_a^2, x-fastest; its interior rows are the FD stencil."""
    total = sp.csr_matrix((g.n_nodes, g.n_nodes))
    for a, (n, h) in enumerate(zip(g.nodes_per_axis, g.spacing)):
        term = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2
        for t, m in enumerate(g.nodes_per_axis):
            if t < a:
                term = sp.kron(term, sp.identity(m))
            elif t > a:
                term = sp.kron(sp.identity(m), term)
        total = total + term
    return total.tocsr()


@settings(max_examples=30, deadline=None)
@given(st.one_of(
           st.tuples(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=2),
                     st.lists(st.integers(2, 14), min_size=2, max_size=2)),
           st.tuples(st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
                     st.lists(st.integers(2, 7), min_size=3, max_size=3))),
       st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
def test_system_rows_are_the_fd_stencil(box, omega2, seed):
    # the interior rows of the one trapezoidal form, divided by prod(h), are
    # the central-difference rows of -Lap - omega^2 c^-2
    extents, cells = box
    g = build_grid(extents, cells)
    coeff = np.random.default_rng(seed).uniform(0.25, 1.0, g.n_cells)
    sys_ = HelmholtzSystem(g, coeff, omega2)
    lap = kronecker_fd_laplacian(g)[g.interior_nodes]
    mass = sp.diags(node_coefficients(g, coeff)[g.interior_nodes])
    for got, expected in (
            (sys_.interior_matrix, lap[:, g.interior_nodes] - omega2 * mass),
            (sys_.coupling, lap[:, g.boundary_nodes])):
        assert abs(got - expected).max() <= 1e-12 * abs(expected).max()


def test_invalid_assembly_inputs():
    g = build_grid((1.0, 1.0), (8, 8))
    with pytest.raises(ValueError, match=r"one value per cell \(64\)"):
        HelmholtzSystem(g, np.ones(5), 1.0)
    with pytest.raises(ValueError, match=r"one value per cell \(64\)"):
        node_coefficients(g, np.ones((8, 8)))
    bad = np.ones(g.n_cells)
    bad[0] = -1.0
    with pytest.raises(ValueError):
        HelmholtzSystem(g, bad, 1.0)
    with pytest.raises(ValueError):
        HelmholtzSystem(g, np.ones(g.n_cells), -2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_or_frequency_is_rejected(bad):
    # NaN failed neither "coeff <= 0" nor "omega2 < 0", so assemble() built
    # a NaN system
    g = build_grid((1.0, 1.0), (8, 8))
    coeff = np.ones(g.n_cells)
    coeff[3] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        HelmholtzSystem(g, coeff, 1.0)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        HelmholtzSystem(g, np.ones(g.n_cells), bad)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        assemble(g, np.ones(g.n_cells), bad)


def test_residual_guard_reports_failure():
    g = build_grid((1.0, 1.0), (8, 8))
    sys_ = HelmholtzSystem(g, np.ones(g.n_cells), 2.0)

    class BadLU:
        def solve(self, rhs):
            return np.zeros_like(rhs)

    sys_._lu = BadLU()
    with pytest.raises(NumericalFailureError) as err:
        solve_dirichlet(sys_, np.ones(g.n_boundary))
    assert "residual" in str(err.value)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.lists(st.integers(3, 9), min_size=2, max_size=2),
                 st.lists(st.integers(3, 5), min_size=3, max_size=3)),
       st.integers(1, 12), st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
def test_block_solve_matches_column_solves(cells, k, omega2, seed):
    # unit box, c^-2 in [0.25, 1]: the first discrete Dirichlet eigenvalue is
    # at least 2 * 4n^2 sin^2(pi / 2n) >= 18 for n >= 3 cells per axis, so
    # omega^2 <= 8 keeps every drawn system well away from resonance
    g = build_grid((1.0,) * len(cells), cells)
    rng = np.random.default_rng(seed)
    sys_ = HelmholtzSystem(g, rng.uniform(0.25, 1.0, g.n_cells), omega2)
    G = rng.normal(size=(g.n_boundary, k))
    F = rng.normal(size=(g.n_interior, k))
    block = solve_dirichlet(sys_, G, F)
    assert block.shape == (g.n_nodes, k)
    assert np.array_equal(block[g.boundary_nodes], G)
    nd_block = normal_derivative(g, block)
    assert nd_block.shape == (g.n_boundary, k)
    for j in range(k):
        col = solve_dirichlet(sys_, G[:, j], F[:, j])
        assert np.linalg.norm(block[:, j] - col) <= 1e-12 * np.linalg.norm(col)
        assert np.array_equal(nd_block[:, j], normal_derivative(g, block[:, j]))


def test_residual_guard_names_the_failing_column():
    g = build_grid((1.0, 1.0), (8, 8))
    sys_ = HelmholtzSystem(g, np.ones(g.n_cells), 2.0)
    lu = sys_.factorization
    bad_col = 3

    class PerturbedLU:
        def solve(self, rhs):
            x = lu.solve(rhs)
            x[0, bad_col] += 1e-3
            return x

    sys_._lu = PerturbedLU()
    G = np.random.default_rng(4).normal(size=(g.n_boundary, 6))
    with pytest.raises(NumericalFailureError) as err:
        solve_dirichlet(sys_, G)
    rhs = -sys_.coupling.dot(G[:, bad_col])
    u_i = lu.solve(rhs)
    u_i[0] += 1e-3
    expected = np.linalg.norm(sys_.interior_matrix.dot(u_i) - rhs)
    diag = err.value.diagnostics
    assert diag["column"] == bad_col
    assert np.isclose(diag["residual"], expected, rtol=1e-6)
    assert diag["residual"] > diag["target"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=2, max_size=3),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_normal_derivative_is_the_explicit_one_sided_stencil(cells, k, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(tuple(rng.uniform(0.5, 2.0, len(cells))), cells)
    nx, ny = g.nodes_per_axis[:2]
    for u in (rng.normal(size=g.n_nodes), rng.normal(size=(g.n_nodes, k))):
        expected = np.empty((g.n_boundary,) + u.shape[1:])
        for p, b in enumerate(g.boundary_nodes):
            axis, side = divmod(int(g.boundary_face[p]), 2)
            i = g.node_multi_index(b)
            flats = []
            for step in (0, 1, 2):
                j = i.copy()
                j[axis] += step if side == 0 else -step
                flats.append(j[0] + nx * (j[1] + ny * (j[2] if g.dim == 3 else 0)))
            u0, u1, u2 = u[flats]
            expected[p] = (3.0 * u0 - 4.0 * u1 + u2) / (2.0 * g.spacing[axis])
        assert np.array_equal(normal_derivative(g, u), expected)


@pytest.mark.parametrize("cells", [(5, 4), (3, 4, 3)])
def test_normal_derivative_adjoint_is_the_transposed_stencil(cells):
    # every boundary position, corners and edges included, where some inward
    # nodes of the stencil lie on another face
    g = build_grid((1.0,) * len(cells), cells)
    w = np.zeros(g.n_nodes)
    w[g.interior_nodes] = np.random.default_rng(3).normal(size=g.n_interior)
    positions = np.arange(g.n_boundary)
    e = normal_derivative_adjoint(g, positions)
    assert e.shape == (g.n_interior, g.n_boundary)
    expected = normal_derivative(g, w)
    assert np.allclose(e.T @ w[g.interior_nodes], expected,
                       rtol=1e-14, atol=1e-14 * np.max(np.abs(expected)))


def test_non_finite_data_and_residuals_fail():
    g, sys_ = unit_square(16, omega2=2.0)
    for bad in (np.nan, np.inf):
        gb = np.zeros(g.n_boundary)
        gb[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_dirichlet(sys_, gb)
        with pytest.raises(ValueError, match="non-finite"):
            solve_dirichlet(sys_, np.column_stack([np.ones(g.n_boundary), gb]))
        f = np.zeros(g.n_interior)
        f[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_dirichlet(sys_, np.zeros(g.n_boundary), f)

    # a NaN residual misses the target; a zero right-hand side stays exempt
    lu = sys_.factorization

    class NanColumnLU:
        def solve(self, rhs):
            x = lu.solve(rhs)
            x[:, 1] = np.nan
            return x

    sys_._lu = NanColumnLU()
    G = np.column_stack([np.zeros(g.n_boundary), np.ones(g.n_boundary)])
    with pytest.raises(NumericalFailureError) as err:
        solve_dirichlet(sys_, G)
    assert err.value.diagnostics["column"] == 1


def first_stencil_eigenvalue(g):
    return sum(float(v[0]) for v in axis_eigenvalues(g))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
       st.lists(st.integers(3, 7), min_size=3, max_size=3),
       st.floats(0.0, 0.999), st.booleans(), st.integers(0, 2**32 - 1))
def test_cg_block_solve_matches_lu(extents, cells, fraction, two_valued, seed):
    # every 3D system of the first window, B2 = 1 and omega^2 up to
    # 0.999 lambda_h,1 / B2 (0 included), is solved by CG without an LU
    g = build_grid(extents, cells)
    rng = np.random.default_rng(seed)
    coeff = (rng.choice([0.25, 1.0], g.n_cells) if two_valued
             else rng.uniform(0.25, 1.0, g.n_cells))
    sys_ = HelmholtzSystem(g, coeff, fraction * first_stencil_eigenvalue(g))
    G = rng.normal(size=(g.n_boundary, 7))
    F = rng.normal(size=(g.n_interior, 7))
    F[:, 1] = 0.0
    G[:, 2] = 0.0   # one column with a zero right-hand side
    F[:, 2] = 0.0
    # a column scaled by 1e-8 and a repeated one: with the zero column and
    # the one without a source, columns leave the loop at different
    # iterations, and the work blocks of those still in it are reused
    G[:, 5], F[:, 5] = 1e-8 * G[:, 0], 1e-8 * F[:, 0]
    G[:, 6], F[:, 6] = G[:, 3], F[:, 3]
    clear_caches()
    u = solve_dirichlet(sys_, G, F)
    ref = splu(sys_.interior_matrix).solve(F - sys_.coupling.dot(G))
    got = u[g.interior_nodes]
    assert np.all(np.linalg.norm(got - ref, axis=0)
                  <= 1e-12 * np.linalg.norm(ref, axis=0))
    assert np.array_equal(got[:, 2], np.zeros(g.n_interior))
    info = cache_info()
    assert info["factorizations"] == 0
    assert info["cg_columns"] == 7 and info["cg_iterations"] >= 1
    clear_caches()


def first_window_block(seed):
    """A 3D system with two-valued coefficients at 0.9 lambda_h,1 and four
    boundary columns of very different scale."""
    g = build_grid((1.0, 0.9, 1.1), (6, 7, 5))
    rng = np.random.default_rng(seed)
    sys_ = HelmholtzSystem(g, rng.choice([0.25, 1.0], g.n_cells),
                           0.9 * first_stencil_eigenvalue(g))
    return sys_, rng.normal(size=(g.n_boundary, 4)) * [1.0, 1e3, 1e-3, 1.0]


def test_sine_transform_and_preconditioner_on_a_non_cubic_lattice():
    # a swapped axis still converges, only more slowly, so the residual
    # checks of the solve cannot catch it; compare the pieces directly. The
    # CG loop runs one right-hand side per row, x fastest within a row
    g = build_grid((1.0, 0.9, 1.1), (5, 7, 6))
    lattice = tuple(n - 1 for n in reversed(g.cells_per_axis))
    sines = [solver._sine_matrix(n - 1) for n in reversed(g.cells_per_axis)]
    rng = np.random.default_rng(11)
    v = rng.normal(size=(3, g.n_interior))
    # work blocks larger than the block, each starting out as NaN
    work = (np.full(v.size + 7, np.nan), np.full(v.size + 7, np.nan))
    got = solver._sine_transform(v, sines, work).copy()
    ref = dstn(v.reshape((3,) + lattice), type=1, norm="ortho",
               axes=(1, 2, 3)).reshape(v.shape)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(solver._sine_transform(got, sines, work) - v)) \
        <= 1e-13 * np.max(np.abs(v))

    # the slowest (depth) axis takes any orthogonal matrix, which need not
    # be symmetric
    q, _ = np.linalg.qr(rng.normal(size=(lattice[0], lattice[0])))
    got = solver._sine_transform(v, [q] + sines[1:], work).copy()
    ref = dstn(np.einsum("ij,kjab->kiab", q, v.reshape((3,) + lattice)),
               type=1, norm="ortho", axes=(2, 3)).reshape(v.shape)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(solver._sine_transform(got, [q.T] + sines[1:], work)
                         - v)) <= 1e-13 * np.max(np.abs(v))

    # the plan's own P, the interior matrix minus diag(d): a coefficient
    # that varies with depth only (layered shifts, delta = 0), one with
    # lateral noise and one uniform per cell (either profile may win)
    depth = rng.uniform(0.25, 1.0, g.cells_per_axis[2])
    layered = np.repeat(depth, g.cells_per_axis[0] * g.cells_per_axis[1])
    work = (np.empty(v.size), np.empty(v.size))
    for coeff in (layered, layered * rng.uniform(0.9, 1.1, g.n_cells),
                  rng.uniform(0.25, 1.0, g.n_cells)):
        omega2 = 0.7 * first_stencil_eigenvalue(g) / coeff.max()
        sys_ = HelmholtzSystem(g, coeff, omega2)
        plan = solver._cg_plan(sys_)
        shifted = sys_.interior_matrix - sp.diags(plan.d)
        ref = splu(shifted.tocsc()).solve(v.T).T
        got = solver._fast_poisson(g, plan, work)(v)
        assert np.all(np.linalg.norm(got - ref, axis=1)
                      <= 1e-12 * np.linalg.norm(ref, axis=1))
    assert solver._cg_plan(HelmholtzSystem(g, layered, 1.0)).delta == 0


def test_cg_columns_keep_their_own_step_lengths():
    # right-hand sides A w for one and for two eigenvectors w of the
    # preconditioned pencil converge in one and in two iterations, a random
    # one takes more and a zero one none. The block shares one loop but not
    # its steps: it runs until its slowest column is done, so it takes as
    # many iterations as that column alone, and every column matches its
    # single-column solve whatever its scale
    g = build_grid((1.0, 0.9, 1.1), (5, 7, 6))
    rng = np.random.default_rng(3)
    sys_ = HelmholtzSystem(g, rng.choice([0.25, 1.0], g.n_cells),
                           0.9 * first_stencil_eigenvalue(g))
    a = sys_.interior_matrix.toarray()
    shifted = a - np.diag(solver._cg_plan(sys_).d)
    _, w = la.eigh(a, shifted)
    F = np.column_stack([np.zeros(g.n_interior), np.zeros(g.n_interior),
                         1e-3 * a @ w[:, 0], a @ (w[:, 0] + w[:, -1])])
    G = np.zeros((g.n_boundary, F.shape[1]))
    G[:, 0] = 1e3 * rng.normal(size=g.n_boundary)
    single, iterations = [], []
    for j in range(F.shape[1]):
        clear_caches()
        single.append(solve_dirichlet(sys_, G[:, j], F[:, j]))
        iterations.append(cache_info()["cg_iterations"])
    assert len(set(iterations)) == len(iterations)
    clear_caches()
    block = solve_dirichlet(sys_, G, F)
    assert cache_info()["cg_iterations"] == max(iterations) > 2
    for j, col in enumerate(single):
        assert np.linalg.norm(block[:, j] - col) <= 1e-12 * np.linalg.norm(col)
    assert np.array_equal(block[:, 1], np.zeros(g.n_nodes))
    clear_caches()


def test_cg_block_runs_until_its_slowest_column_is_done():
    # the columns of a derivative's solves: adjoint right-hand sides of the
    # data convention, smooth Gaussian sources, a zero column and a copy of
    # a source scaled by 1e-8. Alone they take different iteration counts;
    # in one block every nonzero column iterates until the slowest is
    # within CG_RTOL, and each lands where the LU puts it
    g = build_grid((1.0, 0.9, 1.1), (10, 9, 11))
    rng = np.random.default_rng(4)
    sys_ = HelmholtzSystem(g, rng.uniform(0.25, 1.0, g.n_cells),
                           0.95 * first_stencil_eigenvalue(g))
    acq = make_acquisition(g, "full", 0.3, 0.3, 0.15)
    E = normal_derivative_adjoint(g, acq.receiver_idx[::7][:4])
    S = acq.sources[:, :3]
    F = np.column_stack([E, np.zeros((g.n_interior, 5))])
    G = np.column_stack([np.zeros((g.n_boundary, 4)), S,
                         np.zeros(g.n_boundary), 1e-8 * S[:, 0]])
    iterations = []
    for j in range(F.shape[1]):
        clear_caches()
        solve_dirichlet(sys_, G[:, j], F[:, j])
        iterations.append(cache_info()["cg_iterations"])
    assert iterations[7] == 0
    assert len(set(iterations) - {0}) > 1
    clear_caches()
    u = solve_dirichlet(sys_, G, F)  # passes the residual check
    assert cache_info()["cg_iterations"] == max(iterations)
    assert np.all(np.isfinite(u))
    assert np.array_equal(u[:, 7], np.zeros(g.n_nodes))
    ref = splu(sys_.interior_matrix).solve(F - sys_.coupling.dot(G))
    err = np.linalg.norm(u[g.interior_nodes] - ref, axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=0))
    clear_caches()


@pytest.mark.parametrize("kind", ["constant", "two-valued", "uniform"])
@pytest.mark.parametrize("fraction", [0.9, 0.999])
def test_cg_at_the_window_edge_matches_lu(fraction, kind):
    # omega^2 max c close below lambda_h,1, where the interior matrix is
    # nearly singular: a constant coefficient makes the preconditioner the
    # inverse (one iteration), the other two leave a spread for CG to
    # close. Every case passes the residual check and agrees with LU
    g = build_grid((1.0, 0.9, 1.1), (10, 9, 11))
    rng = np.random.default_rng(7)
    coeff = {"constant": np.full(g.n_cells, 0.6),
             "two-valued": rng.choice([0.25, 1.0], g.n_cells),
             "uniform": rng.uniform(0.25, 1.0, g.n_cells)}[kind]
    omega2 = fraction * first_stencil_eigenvalue(g) / coeff.max()
    sys_ = HelmholtzSystem(g, coeff, omega2)
    G = rng.normal(size=(g.n_boundary, 3))
    F = rng.normal(size=(g.n_interior, 3))
    clear_caches()
    u = solve_dirichlet(sys_, G, F)  # passes the residual check
    info = cache_info()
    assert info["factorizations"] == 0 and info["cg_columns"] == 3
    ref = splu(sys_.interior_matrix).solve(F - sys_.coupling.dot(G))
    err = np.linalg.norm(u[g.interior_nodes] - ref, axis=0)
    assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=0))
    clear_caches()


class CountingMatrix:
    """A sparse matrix that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def dot(self, other):
        self.products += 1
        return self.matrix.dot(other)

    __matmul__ = dot

    def __getattr__(self, name):
        return getattr(self.matrix, name)


def test_the_cg_loop_applies_no_sparse_matrix():
    # the loop carries the stencil's product with the directions by a
    # recurrence; only the residual check of solve_dirichlet applies the
    # interior matrix, once per solve, whatever the iteration count
    sys_, G = first_window_block(5)
    counter = sys_.interior_matrix = CountingMatrix(sys_.interior_matrix)
    rhs = -sys_.coupling.dot(G)
    clear_caches()
    u = cg(sys_, rhs)
    assert counter.products == 0 and cache_info()["cg_iterations"] > 1
    a = counter.matrix.toarray()
    assert np.all(np.linalg.norm(a @ u - rhs, axis=0)
                  <= SOLVER_RTOL * np.linalg.norm(rhs, axis=0))
    for calls, g in enumerate((G, G[:, 1], G[:, :2]), start=1):
        solve_dirichlet(sys_, g)
        assert counter.products == calls
    assert cache_info()["factorizations"] == 0
    clear_caches()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_data_of_1e200_solve_like_unit_data():
    # a certified 6^3 system (CG) and a 2D one (LU): sums of squares of
    # 1e200 data overflow, so unscaled norms would call the CG column zero
    # and make worst_residual inf / inf, and an LU solve of 1e306 data
    # overflows to a NaN residual. A power-of-two scale is exact, so on
    # either path the solution is the unit one scaled, bit for bit
    g3 = build_grid((1.0, 1.0, 1.0), (6, 6, 6))
    g2 = build_grid((1.0, 0.8), (12, 10))
    rng = np.random.default_rng(11)
    cases = [(HelmholtzSystem(g3, rng.uniform(0.25, 1.0, g3.n_cells),
                              0.9 * first_stencil_eigenvalue(g3)), 1),
             (HelmholtzSystem(g2, rng.uniform(0.25, 1.0, g2.n_cells), 8.0), 0)]
    for sys_, cg_solved in cases:
        grid = sys_.grid
        G = make_acquisition(grid, "full", 0.5, 0.5, 0.2).sources[:, :2]
        clear_caches()
        unit = solve_dirichlet(sys_, G)
        for scale in (1e306, 1e200, 2.0**664):
            clear_caches()
            u = solve_dirichlet(sys_, scale * G)
            info = cache_info()
            assert (info["cg_columns"] > 0) == cg_solved
            assert 0 < info["worst_residual"] <= SOLVER_RTOL
            ref = unit[grid.interior_nodes]
            assert np.all(np.linalg.norm(u[grid.interior_nodes] / scale - ref,
                                         axis=0)
                          <= 1e-12 * np.linalg.norm(ref, axis=0))
        assert np.array_equal(u, np.ldexp(unit, 664))
    clear_caches()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=10, deadline=None)
@given(st.floats(0.3, 0.99), st.integers(0, 2**32 - 1))
def test_cg_solves_a_source_of_1e_minus_150_next_to_an_unscaled_one(
        fraction, seed):
    # r.z of the tiny column underflows to 0 at its own scale, which made
    # its step lengths 0 / 0; at its power-of-two scale it iterates like
    # the unscaled copy, bit for bit when the scale is a power of two
    g = build_grid((1.0, 1.0, 1.0), (10, 9, 11))
    rng = np.random.default_rng(seed)
    sys_ = HelmholtzSystem(g, rng.uniform(0.25, 1.0, g.n_cells),
                           fraction * first_stencil_eigenvalue(g))
    s = make_acquisition(g, "full", 0.5, 0.5, 0.2).sources[:, 0]
    clear_caches()
    u = solve_dirichlet(sys_, np.column_stack([s, 1e-150 * s, 2.0**-500 * s]))
    assert cache_info()["factorizations"] == 0
    assert np.array_equal(u[:, 2], np.ldexp(u[:, 0], -500))
    inner = u[g.interior_nodes]
    assert (np.linalg.norm(inner[:, 1] - 1e-150 * inner[:, 0])
            <= 1e-12 * np.linalg.norm(1e-150 * inner[:, 0]))
    clear_caches()


def test_an_overflowed_right_hand_side_fails():
    # finite boundary data whose coupling to the interior overflows: the
    # column is refused before CG or LU runs, with no numpy warning on the
    # way (the RuntimeWarning filter of the test settings turns one into an
    # error), instead of accepting inf <= SOLVER_RTOL * inf
    g3 = build_grid((1.0, 1.0, 1.0), (6, 6, 6))
    g2 = build_grid((1.0, 0.8), (12, 10))
    for sys_ in (HelmholtzSystem(g3, np.full(g3.n_cells, 0.5), 10.0),
                 HelmholtzSystem(g2, np.full(g2.n_cells, 0.5), 8.0)):
        G = np.ones((sys_.grid.n_boundary, 2))
        G[:, 1] = 1e307
        clear_caches()
        with pytest.raises(NumericalFailureError,
                           match="right-hand side") as err:
            solve_dirichlet(sys_, G)
        assert err.value.diagnostics["column"] == 1
        info = cache_info()
        assert info["factorizations"] == info["cg_columns"] == 0
    clear_caches()


def test_systems_outside_the_certificate_are_factorized():
    # a 2D system, and a 3D one with omega^2 max c > lambda_h,1 (indefinite:
    # between the first two eigenvalues of the constant-coefficient stencil)
    g2 = build_grid((1.0, 0.8), (12, 10))
    g3 = build_grid((1.0, 0.8, 1.2), (6, 5, 7))
    lam = np.sort(stencil_eigenvalues(g3))
    cases = [(g2, HelmholtzSystem(g2, np.full(g2.n_cells, 0.5), 8.0)),
             (g3, HelmholtzSystem(g3, np.ones(g3.n_cells),
                                  0.5 * (lam[0] + lam[1])))]
    rng = np.random.default_rng(8)
    for g, sys_ in cases:
        clear_caches()
        G = rng.normal(size=(g.n_boundary, 3))
        u = solve_dirichlet(sys_, G)  # passes the residual check
        info = cache_info()
        assert info["factorizations"] == 1
        assert info["cg_columns"] == info["cg_iterations"] == 0
        ref = sys_.factorization.solve(-sys_.coupling.dot(G))
        assert np.array_equal(u[g.interior_nodes], ref)
    clear_caches()


def test_cg_residual_guard_names_the_worst_column(monkeypatch):
    # with one CG iteration allowed no column reaches SOLVER_RTOL; the error
    # names the column that a single-column solve finds worst
    monkeypatch.setattr(solver, "_cg_iteration_cap", lambda *args: 1)
    sys_, G = first_window_block(5)
    single = []
    for j in range(G.shape[1]):
        with pytest.raises(NumericalFailureError) as err:
            solve_dirichlet(sys_, G[:, j])
        diag = err.value.diagnostics
        single.append(diag["residual"] / diag["rhs_norm"])
    clear_caches()
    with pytest.raises(NumericalFailureError, match="CG") as err:
        solve_dirichlet(sys_, G)
    diag = err.value.diagnostics
    assert diag["column"] == int(np.argmax(single))
    assert np.isclose(diag["residual"] / diag["rhs_norm"], max(single),
                      rtol=1e-6)
    assert diag["residual"] > diag["target"]
    # the loop's one iteration and the refinement pass's one
    assert cache_info()["cg_iterations"] == 2
    assert cache_info()["factorizations"] == 0
    clear_caches()


def test_cg_refines_the_columns_that_miss_the_target_at_the_window_edge():
    # a constant coefficient at omega^2 c = 0.999999 lambda_h,1 on 32^3: the
    # preconditioner is the inverse, so one iteration leaves only rounding,
    # amplified by the near-singular matrix, and one column misses
    # SOLVER_RTOL. One more CG solve on the true residual of that column
    # brings it within the target; it counts its iteration, not its column
    g = build_grid((1.0, 1.0, 1.0), (32, 32, 32))
    sys_ = HelmholtzSystem(g, np.full(g.n_cells, 0.5),
                           0.999999 * first_stencil_eigenvalue(g) / 0.5)
    G = np.random.default_rng(0).normal(size=(g.n_boundary, 4))
    clear_caches()
    counter = sys_.interior_matrix = CountingMatrix(sys_.interior_matrix)
    solve_dirichlet(sys_, G)  # passes the residual check
    info = cache_info()
    assert info["factorizations"] == 0 and info["cg_columns"] == 4
    assert info["cg_iterations"] == 2 and counter.products == 2
    assert 0 < info["worst_residual"] <= SOLVER_RTOL
    clear_caches()


layer_boxes = st.tuples(
    st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3, unique=True),
    st.lists(st.integers(3, 9), min_size=3, max_size=3, unique=True))


@settings(max_examples=25, deadline=None)
@given(layer_boxes, st.floats(0.0, 0.99), st.integers(0, 2**32 - 1))
def test_cg_solves_a_depth_layered_coefficient_in_one_iteration(
        box, fraction, seed):
    # one value per cell layer along the depth axis (the last): the node
    # coefficients depend on depth only, so the layered preconditioner is
    # the interior matrix itself, delta = 0 and one iteration solves
    g = build_grid(*box)
    rng = np.random.default_rng(seed)
    nx, ny, nz = g.cells_per_axis
    coeff = np.repeat(rng.uniform(0.25, 1.0, nz), nx * ny)
    sys_ = HelmholtzSystem(g, coeff,
                           fraction * first_stencil_eigenvalue(g) / coeff.max())
    G = rng.normal(size=(g.n_boundary, 3))
    F = rng.normal(size=(g.n_interior, 3))
    clear_caches()
    u = solve_dirichlet(sys_, G, F)
    info = cache_info()
    assert info["factorizations"] == 0
    assert info["cg_columns"] == 3 and info["cg_iterations"] == 1
    assert sys_._plan.delta == 0
    ref = splu(sys_.interior_matrix).solve(F - sys_.coupling.dot(G))
    assert np.all(np.linalg.norm(u[g.interior_nodes] - ref, axis=0)
                  <= 1e-12 * np.linalg.norm(ref, axis=0))
    clear_caches()


@settings(max_examples=40, deadline=None)
@given(layer_boxes, st.floats(0.0, 0.999), st.sampled_from([0.0, 0.1, 1.0]),
       st.integers(0, 2**32 - 1))
def test_cg_plan_certifies_no_larger_delta_than_a_constant_shift(
        box, fraction, noise, seed):
    # per-cell coefficients with a depth trend and lateral noise of relative
    # size noise (0: layered). The plan's delta is never larger than that
    # of the constant shift sigma = omega^2 (c_min + c_max) / 2 over the
    # interior node coefficients, so its iteration cap is never larger
    g = build_grid(*box)
    rng = np.random.default_rng(seed)
    nx, ny, nz = g.cells_per_axis
    coeff = np.repeat(rng.uniform(0.25, 1.0, nz), nx * ny)
    coeff = np.clip(coeff * rng.uniform(1 - noise, 1 + noise, g.n_cells),
                    0.25, 1.0)
    omega2 = fraction * first_stencil_eigenvalue(g) / coeff.max()
    sys_ = HelmholtzSystem(g, coeff, omega2)
    c = sys_.node_coeff[g.interior_nodes]
    sigma = 0.5 * omega2 * (c.min() + c.max())
    constant = (0.5 * omega2 * (c.max() - c.min())
                / (first_stencil_eigenvalue(g) - sigma))
    plan = solver._cg_plan(sys_)
    assert 0 <= plan.delta <= constant * (1 + 1e-9) < 1
    if noise == 0:
        assert plan.delta == 0
    assert (solver._cg_iteration_cap(plan.delta, plan.kappa)
            <= solver._cg_iteration_cap(constant, plan.kappa))


def test_worst_residual_is_the_largest_accepted_relative_residual(
        monkeypatch):
    # 0 after a reset; after an LU and after a CG solve the largest residual
    # of a column relative to its right-hand side; a failed solve leaves it
    clear_caches()
    assert cache_info()["worst_residual"] == 0
    g, sys_ = unit_square(12, 0.5, 8.0)
    G = np.random.default_rng(2).normal(size=(g.n_boundary, 3))
    u = solve_dirichlet(sys_, G)
    rhs = -sys_.coupling.dot(G)
    worst = max(np.linalg.norm(sys_.interior_matrix.dot(u[g.interior_nodes])
                               - rhs, axis=0) / np.linalg.norm(rhs, axis=0))
    info = cache_info()
    assert info["factorizations"] == 1
    assert 0 < info["worst_residual"] <= SOLVER_RTOL
    assert np.isclose(info["worst_residual"], worst, rtol=1e-10)

    clear_caches()
    sys_, G = first_window_block(5)
    solve_dirichlet(sys_, G)
    info = cache_info()
    assert info["cg_columns"] == 4 and info["factorizations"] == 0
    assert 0 < info["worst_residual"] <= SOLVER_RTOL
    monkeypatch.setattr(solver, "_cg_iteration_cap", lambda *args: 1)
    with pytest.raises(NumericalFailureError):
        solve_dirichlet(sys_, G)
    assert cache_info()["worst_residual"] == info["worst_residual"]
    clear_caches()
    assert cache_info()["worst_residual"] == 0


def cg(sys_, rhs):
    return solver._cg_solve(sys_, rhs, solver._cg_plan(sys_))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3, unique=True),
       st.lists(st.integers(3, 6), min_size=3, max_size=3),
       st.floats(0.0, 0.95), st.permutations([1, 9, 17, 0]),
       st.integers(0, 2**32 - 1))
def test_pooled_cg_blocks_give_the_results_of_fresh_ones(extents, cells,
                                                         fraction, order,
                                                         seed):
    # blocks of 1, 9, 17 and 0 columns, solved in random order on one grid,
    # so that the grid's pooled work blocks are reused, outgrown and
    # compacted: every result is bitwise that of the same block solved first
    # on a fresh grid, is left alone by later solves, shares no memory with
    # the pool and matches LU; two threads solving at once get the same
    rng = np.random.default_rng(seed)
    coeff = rng.uniform(0.25, 1.0, int(np.prod(cells)))

    def system():
        g = build_grid(extents, cells)
        return HelmholtzSystem(
            g, coeff, fraction * first_stencil_eigenvalue(g) / coeff.max())

    sys_ = system()
    blocks = {k: rng.normal(size=(sys_.grid.n_interior, k)) for k in order}
    fresh = {k: cg(system(), rhs) for k, rhs in blocks.items()}
    pool = solver._OPERATORS[sys_.grid].cg_blocks
    results = []
    for k in order:
        results.append((k, cg(sys_, blocks[k])))
        for j, u in results:
            assert np.array_equal(u, fresh[j])
            assert not any(np.shares_memory(u, buf)
                           for pooled in pool for buf in pooled)
    lu = splu(sys_.interior_matrix)
    for k, u in results:
        if k:
            ref = lu.solve(blocks[k])
            assert np.all(np.linalg.norm(u - ref, axis=0)
                          <= 1e-12 * np.linalg.norm(ref, axis=0))
        else:
            assert u.shape == (sys_.grid.n_interior, 0)

    start = threading.Barrier(2)
    runs = [None, None]

    def run(i):
        start.wait()
        runs[i] = [cg(sys_, blocks[k]) for k in order]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for run_results in runs:
        for k, u in zip(order, run_results):
            assert np.array_equal(u, fresh[k])
    clear_caches()


def test_warm_cg_solve_allocates_little_and_the_pool_dies_with_the_grid():
    # once the grid's pool holds a set, a solve of 8 columns on 16^3 peaks
    # at its result and a few vectors of one entry per interior node, about
    # 1.6 blocks (a solve that allocates its set peaks near 7); the pool goes
    # with the grid
    g = build_grid((1.0, 1.0, 1.0), (16, 16, 16))
    rng = np.random.default_rng(4)
    sys_ = HelmholtzSystem(g, rng.uniform(0.25, 1.0, g.n_cells),
                           0.9 * first_stencil_eigenvalue(g))
    rhs = rng.normal(size=(g.n_interior, 8))
    cg(sys_, rhs)
    tracemalloc.start()
    try:
        cg(sys_, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * rhs.nbytes
    grid, operators = weakref.ref(g), weakref.ref(solver._OPERATORS[g])
    del g, sys_
    gc.collect()
    assert grid() is None and operators() is None
    clear_caches()
