from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab import solver
from helmstab.forward import cache_info, clear_caches
from helmstab.geometry import build_grid
from helmstab.solver import (
    HelmholtzSystem,
    axis_eigenvalues,
    stencil_eigenvalues,
)
from helmstab.spectrum import (
    FrequencyWindows,
    discrete_dirichlet_eigenvalues,
    frequency_safety,
    windows_covering,
    write_windows_csv,
)

PI2 = np.pi**2


def brute_force_eigenvalues(grid):
    """Every discrete box eigenvalue, one mode (k_1, ..., k_dim) at a time,
    ascending."""
    return np.sort([
        sum(4.0 / h**2 * np.sin(np.pi * k / (2 * n)) ** 2
            for k, h, n in zip(ks, grid.spacing, grid.cells_per_axis))
        for ks in product(*(range(1, n) for n in grid.cells_per_axis))])


def enumerated(grid, omega2):
    """The eigenvalues windows_covering enumerates for omega2 with B1 = B2 = 1:
    every one up to omega2 and the next."""
    return windows_covering(grid, 1.0, 1.0, omega2).source_eigenvalues


def test_unit_cube_first_eigenvalue():
    g = build_grid((1.0, 1.0, 1.0), (8, 8, 8))
    vals = enumerated(g, 1.0)
    assert vals.size == 1
    assert np.isclose(vals[0], 3 * 4 * 64 * np.sin(np.pi / 16) ** 2, rtol=1e-14)
    # the discrete eigenvalue lies below the continuum one, 3 pi^2
    assert 0 < 3 * PI2 - vals[0] < 0.02 * 3 * PI2


def test_unit_square_first_three_with_multiplicity():
    g = build_grid((1.0, 1.0), (16, 16))
    s1, s2 = np.sin(np.pi / 32) ** 2, np.sin(np.pi / 16) ** 2
    exact = 4 * 256 * np.array([2 * s1, s1 + s2, s1 + s2])
    vals = enumerated(g, exact[2] * 1.001)
    assert vals.size == 4
    assert np.allclose(vals[:3], exact, rtol=1e-14)


def test_stretched_box_closed_form():
    g = build_grid((2.0, 1.0, 1.0), (16, 8, 8))
    vals = enumerated(g, 1.0)
    exact = 4 * 64 * (np.sin(np.pi / 32) ** 2 + 2 * np.sin(np.pi / 16) ** 2)
    assert np.isclose(vals[0], exact, rtol=1e-14)
    assert 0 < 9 * PI2 / 4 - vals[0] < 0.02 * 9 * PI2 / 4


def test_eigenvalue_list_is_complete_for_large_count():
    # brute force check: the first 40 values on an irrational-ish box
    g = build_grid((1.0, 1.37), (20, 27))
    brute = brute_force_eigenvalues(g)
    vals = enumerated(g, brute[39])
    assert np.allclose(vals[:40], brute[:40], rtol=1e-14)
    assert vals[-1] > brute[39]


def test_no_window_above_the_top_eigenvalue():
    # the discrete spectrum is finite: far above it every eigenvalue is
    # enumerated, and omega^2 is outside every window
    g = build_grid((1.0, 0.8), (6, 5))
    brute = brute_force_eigenvalues(g)
    fw = windows_covering(g, 0.25, 1.0, omega2=brute[-1] / 0.25 * 1.01)
    assert np.allclose(fw.source_eigenvalues, brute, rtol=1e-14)
    safety = frequency_safety(brute[-1] / 0.25 * 1.01, fw)
    assert not safety.inside
    assert safety.relative_edge_margin() == 0.0
    assert all(hi <= brute[-1] for _, hi in fw.windows)


def lattice_windows(grid, b1, b2, omega2):
    """Reference windows: every eigenvalue up to omega2 * b2 and the next,
    enumerated from the per-axis eigenvalues over the x-fastest lattice and
    added as ``z + (y + x)``, so that the windows agree bit for bit."""
    per_axis = axis_eigenvalues(grid)
    lam = per_axis[0]
    for v in per_axis[1:]:
        lam = np.add.outer(v, lam).ravel()
    count = min(int(np.count_nonzero(lam <= omega2 * b2)) + 1, lam.size)
    return FrequencyWindows(b1=b1, b2=b2,
                            source_eigenvalues=np.sort(lam)[:count]).windows


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(st.integers(2, 9), min_size=2, max_size=2),
                 st.lists(st.integers(2, 9), min_size=3, max_size=3)),
       st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
       st.floats(0.0, 1.2), st.floats(0.2, 1.0))
def test_stencil_eigenvalues_are_the_interior_spectrum(cells, extents,
                                                       fraction, b1):
    # the analytic stencil spectrum is the spectrum of the assembled interior
    # matrix at coefficient 1 and omega^2 = 0, its ends are its extremes,
    # and the windows read from it are the lattice enumeration's
    g = build_grid(extents[:len(cells)], cells)
    lam = stencil_eigenvalues(g)
    dense = HelmholtzSystem(g, np.ones(g.n_cells), 0.0).interior_matrix
    exact = np.linalg.eigvalsh(dense.toarray())
    assert lam.shape == (g.n_interior,)
    assert np.allclose(np.sort(lam), exact, rtol=1e-10, atol=0.0)
    assert lam[0] == lam.min() and lam[-1] == lam.max()
    omega2 = fraction * lam[-1]
    assert (windows_covering(g, b1, 1.0, omega2).windows
            == lattice_windows(g, b1, 1.0, omega2))


@pytest.mark.parametrize("extents, cells, c, count", [
    ((1.3, 0.7), (13, 5), 0.6, 7),
    ((1.0, 0.8, 0.6), (6, 5, 4), 0.4, 6),
])
def test_eigensolve_uses_the_pencil_factorization(monkeypatch, extents, cells,
                                                   c, count):
    # the shift-invert solves with the pencil's own LU: one factorization,
    # counted and computed with the solver's symmetric ordering, and the
    # analytic eigenvalues at a count that cuts no cluster
    g = build_grid(extents, cells)
    exact = np.sort(stencil_eigenvalues(g))[:count + 1] / c
    assert exact[count] > exact[count - 1] * (1 + 1e-6)
    calls = []
    splu = solver.splu
    monkeypatch.setattr(solver, "splu",
                        lambda mat, **kw: calls.append(kw) or splu(mat, **kw))
    clear_caches()
    vals = discrete_dirichlet_eigenvalues(g, np.full(g.n_cells, c), count)
    assert cache_info()["factorizations"] == 1
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A"}]
    assert np.allclose(vals, exact[:count], rtol=1e-9, atol=0.0)
    again = discrete_dirichlet_eigenvalues(g, np.full(g.n_cells, c), count)
    assert np.array_equal(again, vals)
    assert cache_info()["factorizations"] == 2
    clear_caches()


def test_discrete_matches_closed_form_and_continuum():
    g = build_grid((1.0, 1.0), (64, 64))
    vals = discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 1)
    h = 1.0 / 64
    closed = 2 * (4 / h**2) * np.sin(np.pi * h / 2) ** 2
    assert np.isclose(vals[0], closed, rtol=1e-10)
    assert abs(vals[0] - 2 * PI2) / (2 * PI2) < 0.02


def test_scaling_law_constant_coefficient():
    g = build_grid((1.0, 1.0), (20, 20))
    base = discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 4)
    for kappa in (0.3, 2.0, 7.5):
        scaled = discrete_dirichlet_eigenvalues(g, np.full(g.n_cells, kappa), 4)
        assert np.allclose(scaled * kappa, base, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.lists(st.integers(4, 12), min_size=2, max_size=2),
                 st.lists(st.integers(3, 5), min_size=3, max_size=3)),
       st.integers(0, 2**32 - 1))
def test_eigenvalue_sandwich_discrete(cells, seed):
    # lambda_n / B2 <= lambda~_n <= lambda_n / B1 for every c^-2 in [B1, B2]
    g = build_grid((1.0,) * len(cells), cells)
    lam = discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 5)
    b1, b2 = 0.25, 1.0
    coeff = np.random.default_rng(seed).uniform(b1, b2, g.n_cells)
    tl = discrete_dirichlet_eigenvalues(g, coeff, 5)
    assert np.all(lam / b2 <= tl * (1 + 1e-10))
    assert np.all(tl <= lam / b1 * (1 + 1e-10))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(st.integers(4, 12), min_size=2, max_size=2),
                 st.lists(st.integers(3, 5), min_size=3, max_size=3)),
       st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3),
       st.floats(0.3, 1.0),
       st.sampled_from(["b1", "b2", "uniform"]),
       st.integers(0, 2**32 - 1))
def test_discrete_spectrum_avoids_every_window(cells, extents, b1, kind, seed):
    # no admissible coefficient, the extreme constants included, has a
    # discrete resonance inside a window; each window is shrunk by 1e-9
    # relative to absorb the eigensolver's rounding
    g = build_grid(extents[:len(cells)], cells)
    b2 = 1.0
    coeff = {"b1": np.full(g.n_cells, b1), "b2": np.full(g.n_cells, b2),
             "uniform": np.random.default_rng(seed).uniform(b1, b2, g.n_cells),
             }[kind]
    eigs = discrete_dirichlet_eigenvalues(g, coeff, min(6, g.n_interior - 1))
    fw = windows_covering(g, b1, b2, omega2=eigs[-1])
    for lo, hi in fw.windows:
        inside = (eigs > lo * (1 + 1e-9)) & (eigs < hi * (1 - 1e-9))
        assert not np.any(inside), (lo, hi, eigs)


def test_degenerate_bounds_windows_have_no_gaps():
    g = build_grid((1.0, 1.0, 1.0), (8, 8, 8))
    s1, s2 = np.sin(np.pi / 16) ** 2, np.sin(np.pi / 8) ** 2
    lam1, lam2 = 4 * 64 * 3 * s1, 4 * 64 * (s2 + 2 * s1)
    fw = windows_covering(g, 1.0, 1.0, omega2=lam2 * 1.01)
    assert fw.windows[0] == (0.0, pytest.approx(lam1, rel=1e-14))
    assert fw.windows[1] == (pytest.approx(lam1, rel=1e-14),
                             pytest.approx(lam2, rel=1e-14))
    # the triple eigenvalue lam2 produces two empty candidates
    rows = fw.candidate_rows()
    assert [n for n, _, _, _, ok in rows if not ok] == [2, 3]
    los = [w[0] for w in fw.windows]
    his = [w[1] for w in fw.windows]
    assert np.all(np.diff(los) > 0)
    assert all(lo < hi for lo, hi in fw.windows)
    assert all(his[i] <= los[i + 1] for i in range(len(fw.windows) - 1))


def test_wide_bounds_leave_only_first_window():
    g = build_grid((1.0, 1.0), (16, 16))
    fw = windows_covering(g, 0.01, 10.0, omega2=8.0)
    lam1 = 4 * 256 * 2 * np.sin(np.pi / 32) ** 2
    assert len(fw.windows) == 1
    assert fw.windows[0] == (0.0, pytest.approx(lam1 / 10.0, rel=1e-14))


@pytest.mark.parametrize("b1, b2", [(0.25, np.inf), (0.25, np.nan),
                                    (np.nan, 1.0), (0.0, 1.0), (1.0, 0.5)])
def test_bounds_must_be_finite_and_ordered(b1, b2):
    # b2 = inf used to give the single window (0.0, 0.0)
    with pytest.raises(ValueError, match="B2 < inf"):
        windows_covering(build_grid((1.0, 1.0), (8, 8)), b1, b2, omega2=8.0)


def test_seismic_regime_arithmetic():
    # f = 5 Hz, B2 = (1/1400)^2 -> omega^2 * B2 is a small number
    omega2 = (2 * np.pi * 5.0) ** 2
    b2 = (1.0 / 1400.0) ** 2
    assert np.isclose(omega2 * b2, 5.0355e-4, rtol=1e-3)


def test_frequency_safety_cases():
    g = build_grid((1.0, 1.0, 1.0), (8, 8, 8))
    fw = windows_covering(g, 1.0, 1.0, omega2=10.0)
    lam1 = fw.source_eigenvalues[0]

    inside = frequency_safety(lam1 / 2, fw)
    assert inside.inside
    assert np.isclose(inside.edge_distance, lam1 / 2)

    on_edge = frequency_safety(lam1, fw)
    assert not on_edge.inside
    assert on_edge.nearest_distance == 0.0

    g2 = build_grid((1.0, 1.0), (16, 16))
    fw2 = windows_covering(g2, 0.9, 1.0, omega2=25.0)
    gap = frequency_safety(fw2.source_eigenvalues[0] + 0.05, fw2)  # just past window 0
    assert not gap.inside
    assert gap.nearest_window is not None


def test_safety_rejects_negative_or_nonfinite_frequency():
    g = build_grid((1.0, 1.0), (8, 8))
    fw = windows_covering(g, 1.0, 1.0, omega2=8.0)
    # NaN used to read as "outside, nearest window None at distance inf"
    for omega2 in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            frequency_safety(omega2, fw)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            windows_covering(g, 1.0, 1.0, omega2)


def test_zero_frequency_is_inside_the_first_window():
    # the first window is [0, lambda_1/B2): omega^2 = 0 is the Laplace
    # problem, and its lower edge 0 is no resonance, so the margin is the
    # whole window
    g = build_grid((1.0, 1.0), (16, 16))
    fw = windows_covering(g, 0.25, 1.0, 0.0)
    assert fw.source_eigenvalues.size == 1
    safety = frequency_safety(0.0, fw)
    assert safety.inside
    assert safety.window == fw.windows[0] == (0.0, fw.source_eigenvalues[0])
    assert safety.edge_distance == fw.source_eigenvalues[0]
    assert safety.relative_edge_margin() == 1.0


def test_windows_covering_reaches_target():
    g = build_grid((1.0, 1.0), (32, 32))
    lam = windows_covering(g, 1.0, 1.0, omega2=40 * PI2).source_eigenvalues
    # every eigenvalue up to the target, and the first one past it
    assert lam[-1] > 40 * PI2 >= lam[-2]
    assert np.allclose(lam, brute_force_eigenvalues(g)[:lam.size], rtol=1e-14)


def test_windows_csv(tmp_path):
    fw = windows_covering(build_grid((1.0, 1.0), (16, 16)), 1.0, 2.0,
                          omega2=40.0)
    path = tmp_path / "windows.csv"
    write_windows_csv(path, fw)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,lambda_n,window_lo,window_hi,nonempty"
    assert len(lines) == 1 + fw.source_eigenvalues.size  # one row per candidate


def test_count_validation():
    g = build_grid((1.0, 1.0), (8, 8))
    with pytest.raises(ValueError):
        discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 0)
    # the 7^2 interior nodes give at most 48 eigenvalues
    with pytest.raises(ValueError, match="count=49 too large for 49 interior"):
        discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 49)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_eigensolve_rejects_bad_coefficients(bad):
    # a NaN or inf coefficient used to leak "Factor is exactly singular" from
    # inside eigsh
    g = build_grid((1.0, 1.0), (8, 8))
    coeff = np.ones(g.n_cells)
    coeff[5] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        discrete_dirichlet_eigenvalues(g, coeff, 2)


def test_repeated_eigenvalues_are_all_found():
    # on the 8^3 cube the 2nd to 4th discrete eigenvalues coincide (modes
    # (2,1,1), (1,2,1), (1,1,2)); all three copies must come back, not the
    # next distinct eigenvalue in place of one of them
    g = build_grid((1.0, 1.0, 1.0), (8, 8, 8))
    s1, s2 = np.sin(np.pi / 16) ** 2, np.sin(np.pi / 8) ** 2
    exact = 4.0 * 64.0 * np.array([3 * s1] + [s2 + 2 * s1] * 3)
    for _ in range(5):
        vals = discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 4)
        assert np.allclose(vals, exact, rtol=1e-10)


@pytest.mark.parametrize("extents, cells, kappa, count", [
    # 2 x 1 box with h = 1/8 on both axes: the 5th and 6th eigenvalues are the
    # double one of modes (4, 1) and (2, 2)
    ((2.0, 1.0), (16, 8), 1.0, 6),
    ((1.3, 0.7), (13, 5), 0.6, 6),
    ((1.0, 0.8, 0.6), (6, 5, 4), 0.4, 5),
])
def test_anisotropic_box_eigenvalues_are_analytic(extents, cells, kappa, count):
    # constant c^-2 = kappa: the discrete eigenvalues are
    # sum_a (4 / h_a^2) sin^2(pi k_a / (2 n_a)) / kappa, k_a = 1 .. n_a - 1
    g = build_grid(extents, cells)
    per_axis = [4.0 / h**2 * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
                for h, n in zip(g.spacing, cells)]
    exact = np.sort(sum(np.ix_(*per_axis)).ravel())[:count] / kappa
    for _ in range(3):
        vals = discrete_dirichlet_eigenvalues(g, np.full(g.n_cells, kappa),
                                              count)
        assert np.allclose(vals, exact, rtol=1e-10)


def test_eigensolve_repeats_its_digits():
    # the Lanczos start vector is fixed, so equal inputs give equal bits
    g = build_grid((1.0, 1.0), (48, 48))
    c = np.ones(g.n_cells)
    first = discrete_dirichlet_eigenvalues(g, c, 5)
    for _ in range(2):
        assert np.array_equal(discrete_dirichlet_eigenvalues(g, c, 5), first)
