"""Discrete Dirichlet spectra and admissible frequency windows.

The solver resonates at the eigenvalues of its own pencil
``(-Lap_h) u = lambda~ * M_{c^-2} u``: the omega = 0 interior matrix against
the diagonal of the nodal coefficient. For a constant coefficient 1 on the
box grid they are analytic,

    lambda_h = sum_a (4 / h_a^2) sin^2(k_a pi / (2 n_a)),  k_a = 1 .. n_a - 1,

with n_a cells of width h_a along axis a. Every nodal value of an admissible
coefficient is a mean of cell values in [B1, B2], so by Courant-Fischer the
sandwich ``lambda_h,n / B2 <= lambda~_n <= lambda_h,n / B1`` holds exactly
for every such coefficient. Hence no admissible coefficient has a discrete
resonance in the windows

    0 <= omega^2 < lambda_h,1 / B2,
    lambda_h,n / B1 < omega^2 < lambda_h,n+1 / B2   (n >= 1),

and there the discrete Dirichlet problem is uniquely solvable. The lower
edge 0 of the first window is no resonance: omega^2 = 0 is the Laplace
problem, which is uniquely solvable for every coefficient. The discrete
spectrum is finite, so there is no window above ``lambda_h,max / B1``; an
omega^2 up there resolves fewer than about pi points per wavelength and is
reported as outside every window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NumericalFailureError, WindowViolationError
from .geometry import BoxGrid
from .model import _bounds
from .solver import HelmholtzSystem, _check_omega2, stencil_eigenvalues

__all__ = [
    "FrequencyWindows",
    "WindowSafety",
    "discrete_dirichlet_eigenvalues",
    "frequency_safety",
    "windows_covering",
    "write_windows_csv",
]

EIG_TOL = 1e-10
EIG_MAXITER = 500
# Extra eigenvalues solved for beyond the wanted ones. At EIG_TOL the
# eigenvalues at the edge of the wanted set converge last, and a copy of a
# repeated eigenvalue there can be missed (from random starts, a 20^2 square
# lost one of its double eigenvalues in 2-4% of solves and an 8^3 cube one of
# its triple eigenvalues in 90%; the fixed start below always loses the
# cube's); with two more requested, none was missed in 200.
EIG_GUARD = 2


def discrete_dirichlet_eigenvalues(grid: BoxGrid, coeff,
                                   count: int) -> np.ndarray:
    """Smallest ``count`` eigenvalues of ``(-Lap_h) u = lambda~ M_{c^-2} u``.

    Shift-invert Lanczos about zero from a fixed start vector, on the
    solver's own stencil and cell-to-node coefficient averaging, so equal
    inputs give equal digits. The shift-invert solves with the pencil's own
    LU (``HelmholtzSystem.factorization``), one factorization per call that
    ``forward.cache_info`` counts. The coefficient must be finite and
    positive (ValueError otherwise).
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    # the omega = 0 system, whose interior matrix is the stiffness -Lap_h
    pencil = HelmholtzSystem(grid, coeff, 0.0)
    lap = pencil.interior_matrix
    n = lap.shape[0]
    if count > n - 1:
        raise ValueError(f"count={count} too large for {n} interior nodes")
    m = sp.diags(pencil.node_coeff[grid.interior_nodes])
    op_inv = LinearOperator(lap.shape, pencil.factorization.solve, dtype=float)
    # a fixed start makes the digits repeat from call to call; a random one
    # has a part along every mode, where ones would have none along the
    # modes that are odd about a symmetry plane of the box
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals = eigsh(lap, k=min(count + EIG_GUARD, n - 1), M=m, sigma=0.0,
                     which="LM", v0=v0, tol=EIG_TOL, maxiter=EIG_MAXITER,
                     OPinv=op_inv, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(
            "shift-invert eigensolver did not converge",
            {"requested": count, "converged": len(exc.eigenvalues),
             "maxiter": EIG_MAXITER, "tol": EIG_TOL},
        ) from exc
    return np.sort(np.real(vals))[:count]


@dataclass(frozen=True, eq=False)
class FrequencyWindows:
    """Admissible omega^2 intervals for coefficient bounds (b1, b2), built
    from the ascending discrete box eigenvalues ``source_eigenvalues``."""

    b1: float
    b2: float
    source_eigenvalues: np.ndarray

    def candidate_rows(self):
        """Per-candidate table rows (n, lambda_n, lo, hi, nonempty).

        Row 0 is the low-frequency window [0, lambda_1/B2); row n >= 1 is
        (lambda_n/B1, lambda_{n+1}/B2). Values are plain floats, so that
        messages print (0.0, 29.6) and not np.float64(...).
        """
        lam = self.source_eigenvalues
        rows = [(0, 0.0, 0.0, float(lam[0] / self.b2), True)]
        for n in range(1, lam.size):
            lo = float(lam[n - 1] / self.b1)
            hi = float(lam[n] / self.b2)
            rows.append((n, float(lam[n - 1]), lo, hi, lo < hi))
        return rows

    @property
    def windows(self) -> tuple:
        """The nonempty candidates as intervals (lo, hi), ascending; the
        first one, (0, lambda_1/B2), also holds its lower edge 0."""
        return tuple((lo, hi) for _, _, lo, hi, ok in self.candidate_rows()
                     if ok)


def windows_covering(grid: BoxGrid, b1: float, b2: float,
                     omega2: float) -> FrequencyWindows:
    """Admissible windows of the grid's discrete problem, up to the first
    one that reaches past omega2.

    Enumerates the analytic eigenvalues ``lambda_h`` of the grid's Dirichlet
    stencil (module docstring), :func:`solver.stencil_eigenvalues`, and
    keeps every one with ``lambda_h / b2 <= omega2`` and the next one, if
    there is one. Candidate n = 0 is [0, lambda_1/b2); candidate n >= 1 is
    (lambda_n/b1, lambda_{n+1}/b2); the nonempty candidates are the windows.
    """
    b1, b2 = _bounds((b1, b2))
    omega2 = _check_omega2(omega2)
    lam = stencil_eigenvalues(grid)
    count = min(int(np.count_nonzero(lam <= omega2 * b2)) + 1, lam.size)
    lam = np.sort(np.partition(lam, count - 1)[:count])
    return FrequencyWindows(b1=b1, b2=b2, source_eigenvalues=lam)


@dataclass(frozen=True)
class WindowSafety:
    """Where omega^2 sits relative to the admissible windows."""

    omega2: float
    inside: bool
    window: tuple | None          # containing window, or None
    edge_distance: float          # min distance to the containing window's
                                  # resonant edges (0 is not one)
    nearest_window: tuple | None  # closest window when outside
    nearest_distance: float       # distance to that window (0 when inside)

    def relative_edge_margin(self) -> float:
        """Edge distance relative to the containing window's width."""
        if not self.inside or self.window is None:
            return 0.0
        lo, hi = self.window
        return self.edge_distance / (hi - lo)

    def refuse_outside(self):
        """Raise :class:`WindowViolationError` unless inside a window."""
        if not self.inside:
            raise WindowViolationError(
                f"omega^2={self.omega2:.9g} outside every admissible window; "
                f"nearest window {self.nearest_window} at distance "
                f"{self.nearest_distance:.3g} (use the override to force)")


def frequency_safety(omega2: float, windows: FrequencyWindows) -> WindowSafety:
    """Report the containing window (if any) and distances to window edges.

    The first window starts at 0, which is no resonance: it holds
    omega^2 = 0, and only its upper edge counts toward the edge distance.
    """
    omega2 = _check_omega2(omega2)
    for win in windows.windows:
        lo, hi = win
        above_lo = omega2 - lo if lo > 0.0 else np.inf
        if above_lo > 0.0 and omega2 < hi:
            return WindowSafety(omega2=omega2, inside=True, window=win,
                                edge_distance=min(above_lo, hi - omega2),
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


def write_windows_csv(path, windows: FrequencyWindows):
    """Columns: n, lambda_n, window_lo, window_hi, nonempty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda_n", "window_lo", "window_hi", "nonempty"])
        for n, lam, lo, hi, ok in windows.candidate_rows():
            writer.writerow([n, f"{lam:.17g}", f"{lo:.17g}", f"{hi:.17g}",
                             int(ok)])
