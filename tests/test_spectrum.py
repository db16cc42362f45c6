import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab import solver
from helmstab.errors import NearResonanceError
from helmstab.geometry import build_grid
from helmstab.spectrum import (
    admissible_windows,
    box_dirichlet_eigenvalues,
    discrete_dirichlet_eigenvalues,
    frequency_safety,
    windows_covering,
    write_windows_csv,
)

PI2 = np.pi**2


def test_unit_cube_first_eigenvalue():
    vals = box_dirichlet_eigenvalues((1.0, 1.0, 1.0), 1)
    assert np.isclose(vals[0], 3 * PI2)


def test_unit_square_first_three_with_multiplicity():
    vals = box_dirichlet_eigenvalues((1.0, 1.0), 3)
    assert np.allclose(vals, [2 * PI2, 5 * PI2, 5 * PI2])


def test_stretched_box_closed_form():
    vals = box_dirichlet_eigenvalues((2.0, 1.0, 1.0), 1)
    assert np.isclose(vals[0], 9 * PI2 / 4)


def test_eigenvalue_list_is_complete_for_large_count():
    # brute force check: the first 40 values on a irrational-ish box
    extents = (1.0, 1.37)
    vals = box_dirichlet_eigenvalues(extents, 40)
    brute = sorted(
        PI2 * ((kx / extents[0]) ** 2 + (ky / extents[1]) ** 2)
        for kx in range(1, 40)
        for ky in range(1, 40)
    )[:40]
    assert np.allclose(vals, brute)


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


def test_degenerate_bounds_windows_have_no_gaps():
    fw = admissible_windows((1.0, 1.0, 1.0), 1.0, 1.0, 4)
    assert fw.windows[0] == (0.0, pytest.approx(3 * PI2))
    assert fw.windows[1] == (pytest.approx(3 * PI2), pytest.approx(6 * PI2))
    # the triple eigenvalue 6 pi^2 produces empty candidates, dropped
    assert len(fw.dropped) >= 1
    los = [w[0] for w in fw.windows]
    his = [w[1] for w in fw.windows]
    assert np.all(np.diff(los) > 0)
    assert all(lo < hi for lo, hi in fw.windows)
    assert all(his[i] <= los[i + 1] for i in range(len(fw.windows) - 1))


def test_wide_bounds_leave_only_first_window():
    fw = admissible_windows((1.0, 1.0), 0.01, 10.0, 8)
    assert len(fw.windows) == 1
    assert fw.windows[0] == (0.0, pytest.approx(2 * PI2 / 10.0))


@pytest.mark.parametrize("b1, b2", [(0.25, np.inf), (0.25, np.nan),
                                    (np.nan, 1.0), (0.0, 1.0), (1.0, 0.5)])
def test_bounds_must_be_finite_and_ordered(b1, b2):
    # b2 = inf used to give the single window (0.0, 0.0)
    with pytest.raises(ValueError, match="b2 < inf"):
        admissible_windows((1.0, 1.0), b1, b2, 4)
    with pytest.raises(ValueError, match="b2 < inf"):
        windows_covering((1.0, 1.0), b1, b2, omega2=8.0)


def test_seismic_regime_arithmetic():
    # f = 5 Hz, B2 = (1/1400)^2 -> omega^2 * B2 is a small number
    omega2 = (2 * np.pi * 5.0) ** 2
    b2 = (1.0 / 1400.0) ** 2
    assert np.isclose(omega2 * b2, 5.0355e-4, rtol=1e-3)


def test_frequency_safety_cases():
    fw = admissible_windows((1.0, 1.0, 1.0), 1.0, 1.0, 4)
    lam1 = 3 * PI2

    inside = frequency_safety(lam1 / 2, fw)
    assert inside.inside
    assert np.isclose(inside.edge_distance, lam1 / 2)

    on_edge = frequency_safety(lam1, fw)
    assert not on_edge.inside
    assert on_edge.nearest_distance == 0.0

    fw2 = admissible_windows((1.0, 1.0), 0.9, 1.0, 4)
    gap = frequency_safety(2 * PI2 / 1.0 + 0.05, fw2)  # just past window 0
    assert not gap.inside
    assert gap.nearest_window is not None


def test_safety_rejects_nonpositive_frequency():
    fw = admissible_windows((1.0, 1.0), 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        frequency_safety(0.0, fw)


def test_windows_covering_reaches_target():
    fw = windows_covering((1.0, 1.0), 1.0, 1.0, omega2=40 * PI2)
    assert fw.source_eigenvalues[-1] > 40 * PI2


def test_windows_csv(tmp_path):
    fw = admissible_windows((1.0, 1.0), 1.0, 2.0, 4)
    path = tmp_path / "windows.csv"
    write_windows_csv(path, fw)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,lambda_n,window_lo,window_hi,nonempty"
    assert len(lines) == 1 + 4  # one row per candidate


def test_eigensolve_registers_resonance_guard():
    g = build_grid((1.0, 1.0), (16, 16))
    coeff = np.ones(g.n_cells)
    vals = discrete_dirichlet_eigenvalues(g, coeff, 2)
    with pytest.raises(NearResonanceError):
        solver.assemble(g, coeff, float(vals[0]))
    # slightly detuned frequency is accepted
    solver.assemble(g, coeff, float(vals[0]) * 1.01)


def test_eigensolve_leaves_the_factorization_store_alone():
    # the pencil is the omega = 0 system built directly, not through
    # assemble(), so it can never evict a campaign's factorization
    solver.clear_caches()
    g = build_grid((1.0, 0.8), (12, 10))
    discrete_dirichlet_eigenvalues(g, np.full(g.n_cells, 0.5), 3)
    assert solver.cache_info() == {"hits": 0, "misses": 0, "evictions": 0,
                                   "entries": 0}
    solver.clear_caches()


def test_count_validation():
    g = build_grid((1.0, 1.0), (8, 8))
    with pytest.raises(ValueError):
        discrete_dirichlet_eigenvalues(g, np.ones(g.n_cells), 0)
    with pytest.raises(ValueError):
        box_dirichlet_eigenvalues((1.0, 1.0), 0)


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
