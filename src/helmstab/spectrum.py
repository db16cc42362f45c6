"""Dirichlet Laplacian spectra and admissible frequency windows.

For the box, the continuum Dirichlet eigenvalues are analytic,
``lambda = pi^2 * sum_a (k_a / L_a)^2`` with integer ``k_a >= 1``. The
discrete counterparts solve the generalized problem
``(-Lap_h) u = lambda~ * M_{c^-2} u`` on the same stencil as the Helmholtz
solver. Well-posedness is guaranteed on the frequency windows

    0 < omega^2 < lambda_1 / B2,
    lambda_n / B1 < omega^2 < lambda_{n+1} / B2   (n >= 1),

which the coefficient-bound sandwich ``lambda_n/B2 <= lambda~_n <= lambda_n/B1``
keeps clear of every admissible coefficient's resonances.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import NumericalFailureError
from .geometry import BoxGrid
from .solver import HelmholtzSystem, register_eigenvalues

__all__ = [
    "FrequencyWindows",
    "WindowSafety",
    "box_dirichlet_eigenvalues",
    "discrete_dirichlet_eigenvalues",
    "admissible_windows",
    "frequency_safety",
    "write_windows_csv",
]

EIG_TOL = 1e-10
EIG_MAXITER = 500
# Extra eigenvalues solved for beyond the wanted ones. At EIG_TOL the
# eigenvalues at the edge of the wanted set converge last, and a copy of a
# repeated eigenvalue there can be missed (a 20^2 square lost one of its
# double eigenvalues in 2-4% of solves, an 8^3 cube one of its triple
# eigenvalues in 90%); with two more requested, none was missed in 200.
EIG_GUARD = 2
# most box eigenvalues windows_covering computes to bracket omega^2
WINDOW_MAX_COUNT = 4096


def box_dirichlet_eigenvalues(extents, count: int) -> np.ndarray:
    """Smallest ``count`` Dirichlet eigenvalues of -Lap on the box, with
    multiplicity, ascending."""
    extents = tuple(float(e) for e in extents)
    if any(e <= 0 for e in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")

    lmax = max(extents)
    kmax = 4
    while True:
        vals = []
        for k in product(*(range(1, kmax + 1) for _ in extents)):
            vals.append(np.pi**2 * sum((ki / li) ** 2 for ki, li in zip(k, extents)))
        vals.sort()
        # every omitted tuple has some k_a > kmax, hence an eigenvalue above this
        floor_omitted = np.pi**2 * ((kmax + 1) / lmax) ** 2
        if len(vals) >= count and vals[count - 1] < floor_omitted:
            return np.asarray(vals[:count])
        kmax *= 2


def discrete_dirichlet_eigenvalues(grid: BoxGrid, coeff,
                                   count: int) -> np.ndarray:
    """Smallest ``count`` eigenvalues of ``(-Lap_h) u = lambda~ M_{c^-2} u``.

    Shift-invert Lanczos about zero, on the solver's own stencil and
    cell-to-node coefficient averaging. Results are registered with the
    solver's resonance cache so later assemblies refuse near-resonant
    frequencies.
    """
    coeff = np.asarray(coeff, dtype=float)
    if np.any(coeff <= 0):
        raise ValueError("coefficient must be positive everywhere")
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    # the omega = 0 system, built directly so that it never enters the
    # factorization store
    pencil = HelmholtzSystem(grid, coeff, 0.0)
    lap = pencil.interior_matrix
    n = lap.shape[0]
    if count > n - 1:
        raise ValueError(f"count={count} too large for {n} interior nodes")
    m = sp.diags(pencil.node_coeff[grid.interior_nodes]).tocsc()
    try:
        vals = eigsh(lap, k=min(count + EIG_GUARD, n - 1), M=m, sigma=0.0,
                     which="LM", tol=EIG_TOL, maxiter=EIG_MAXITER,
                     return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(
            "shift-invert eigensolver did not converge",
            {"requested": count, "converged": len(exc.eigenvalues),
             "maxiter": EIG_MAXITER, "tol": EIG_TOL},
        ) from exc
    vals = np.sort(np.real(vals))[:count]
    register_eigenvalues(grid, coeff, vals)
    return vals


@dataclass(frozen=True)
class FrequencyWindows:
    """Admissible omega^2 intervals for coefficient bounds (b1, b2).

    ``windows`` holds the nonempty open intervals, ascending; ``dropped``
    records the indices n whose candidate interval was empty.
    """

    b1: float
    b2: float
    windows: tuple
    source_eigenvalues: np.ndarray
    dropped: tuple = field(default_factory=tuple)

    def candidate_rows(self):
        """Per-candidate table rows (n, lambda_n, lo, hi, nonempty).

        Row 0 is the low-frequency window (0, lambda_1/B2); row n >= 1 is
        (lambda_n/B1, lambda_{n+1}/B2).
        """
        lam = self.source_eigenvalues
        rows = [(0, 0.0, 0.0, lam[0] / self.b2, True)]
        for n in range(1, lam.size):
            lo = lam[n - 1] / self.b1
            hi = lam[n] / self.b2
            rows.append((n, float(lam[n - 1]), lo, hi, lo < hi))
        return rows


def _bounds(b1, b2) -> tuple:
    """(b1, b2) as floats; ValueError unless 0 < b1 <= b2 < inf."""
    b1, b2 = float(b1), float(b2)
    if not (0.0 < b1 <= b2 < np.inf):
        raise ValueError(f"need 0 < b1 <= b2 < inf, got ({b1}, {b2})")
    return b1, b2


def admissible_windows(extents, b1: float, b2: float, count: int) -> FrequencyWindows:
    """Admissible frequency windows from the box's analytic eigenvalues.

    Candidate n = 0 is (0, lambda_1/b2); candidate n >= 1 is
    (lambda_n/b1, lambda_{n+1}/b2). Empty candidates are dropped and
    reported in ``dropped``.
    """
    b1, b2 = _bounds(b1, b2)
    lam = box_dirichlet_eigenvalues(extents, int(count))
    # plain floats, so that messages print (0.0, 29.6) and not np.float64(...)
    windows = [(0.0, float(lam[0] / b2))]
    dropped = []
    for n in range(1, lam.size):
        lo, hi = float(lam[n - 1] / b1), float(lam[n] / b2)
        if lo < hi:
            windows.append((lo, hi))
        else:
            dropped.append(n)
    return FrequencyWindows(b1=b1, b2=b2, windows=tuple(windows),
                            source_eigenvalues=lam, dropped=tuple(dropped))


@dataclass(frozen=True)
class WindowSafety:
    """Where omega^2 sits relative to the admissible windows."""

    omega2: float
    inside: bool
    window: tuple | None          # containing window, or None
    edge_distance: float          # min distance to the containing window's edges
    nearest_window: tuple | None  # closest window when outside
    nearest_distance: float       # distance to that window (0 when inside)

    def relative_edge_margin(self) -> float:
        """Edge distance relative to the containing window's width."""
        if not self.inside or self.window is None:
            return 0.0
        lo, hi = self.window
        return self.edge_distance / (hi - lo)


def frequency_safety(omega2: float, windows: FrequencyWindows) -> WindowSafety:
    """Report the containing window (if any) and distances to window edges."""
    omega2 = float(omega2)
    if omega2 <= 0:
        raise ValueError(f"omega^2 must be positive, got {omega2}")
    for win in windows.windows:
        lo, hi = win
        if lo < omega2 < hi:
            return WindowSafety(omega2=omega2, inside=True, window=win,
                                edge_distance=min(omega2 - lo, hi - omega2),
                                nearest_window=win, nearest_distance=0.0)
    best, best_d = None, np.inf
    for win in windows.windows:
        lo, hi = win
        d = max(lo - omega2, omega2 - hi, 0.0)
        if d < best_d:
            best, best_d = win, d
    return WindowSafety(omega2=omega2, inside=False, window=None,
                        edge_distance=best_d, nearest_window=best,
                        nearest_distance=float(best_d))


def windows_covering(extents, b1: float, b2: float,
                     omega2: float) -> FrequencyWindows:
    """Admissible windows computed with enough eigenvalues to bracket omega2."""
    b1, b2 = _bounds(b1, b2)
    count = 8
    while True:
        lam = box_dirichlet_eigenvalues(extents, count)
        if lam[-1] / b2 > float(omega2) or count >= WINDOW_MAX_COUNT:
            break
        count *= 2
    return admissible_windows(extents, b1, b2, count)


def write_windows_csv(path, windows: FrequencyWindows):
    """Columns: n, lambda_n, window_lo, window_hi, nonempty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda_n", "window_lo", "window_hi", "nonempty"])
        for n, lam, lo, hi, ok in windows.candidate_rows():
            writer.writerow([n, f"{lam:.17g}", f"{lo:.17g}", f"{hi:.17g}",
                             int(ok)])
