"""Discrete Helmholtz Dirichlet solver on structured grids.

One discrete form defines every system: the trapezoidal bilinear form, per
unit interior node volume ``prod(h)``, with the symmetric matrix

    K - omega^2 diag(t c),   K = sum_a kron_b (S_a if b == a else T_b),

a Kronecker sum of one small factor per axis b (:func:`geometry._kron`):
``T_b`` the diagonal of the axis's trapezoid factors (1/2 at both ends, 1
inside), ``t`` their product over the axes, and ``S_a`` the 1-D stiffness
``[-1, 2, -1] / h_a^2`` with diagonal ``2 T_a / h_a^2``. The nodal coefficient
is ``c = _node_averaging(grid) @ coeff``, at every node the mean of the cells
that touch it. On an interior row every ``T_b`` is 1, so the interior rows are
the second-order central differences of ``-Lap - omega^2 c^-2`` (5-point
stencil in 2D, 7-point in 3D). :class:`HelmholtzSystem` builds the form once
and reads all three of its blocks from it:

* ``interior_matrix`` and ``coupling``: the interior rows, split by column
  into ``A_ii`` and ``A_ib`` of the Dirichlet problem
  ``A_ii u_i + A_ib u_b = f,  u_b = g``;
* ``flux_rows``: the boundary rows of the form itself, the conormal flux.

The omega = 0 system also gives the pencil of the discrete Dirichlet
eigenproblem (:mod:`spectrum`), so solver and spectrum share one stencil.

Two methods solve the interior system, and :func:`solve_dirichlet` picks
one per system:

* Preconditioned conjugate gradients (CG), for a 3D grid whose system is
  certified symmetric positive definite: ``omega^2 max c < lambda_h,1``
  over the interior node coefficients, with ``lambda_h,1`` the smallest
  analytic eigenvalue of the stencil (:func:`axis_eigenvalues`). In the
  first admissible window (:mod:`spectrum`) every admissible system passes.
  The preconditioner is the shifted constant-coefficient stencil
  ``L_h - sigma I``, ``sigma = omega^2 (c_min + c_max) / 2``, inverted exactly
  by the orthonormal type-I discrete sine transform (DST-I), which
  diagonalizes ``L_h`` (fast-Poisson preconditioning, Concus & Golub 1973).
  The DST-I of length m is the symmetric, involutory matrix
  ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))``; the transform applies one such
  matrix per axis by one BLAS matrix product over the block viewed in place,
  which at these sizes (m up to about 100) beats an FFT. The interior
  matrix differs from the preconditioner by a diagonal of norm at most
  ``omega^2 (c_max - c_min) / 2``, so with
  ``delta = omega^2 (c_max - c_min) / 2 / (lambda_h,1 - sigma) < 1`` the
  preconditioned condition number is at most ``(1 + delta) / (1 - delta)``;
  the iteration cap follows from that bound. No LU is computed.
* Sparse LU, for every other system: every 2D system, and every 3D system
  outside the certificate (where the matrix may be indefinite). The
  interior matrix is factorized once and reused across right-hand sides. It
  is exactly symmetric, so SuperLU orders its columns by minimum degree on
  the pattern of ``A^T + A`` (``MMD_AT_PLUS_A``) rather than by its default
  COLAMD, which ignores that symmetry; the symmetric ordering roughly halves
  the LU fill (6.8 M to 3.3 M nonzeros at 24^3) and with it the
  factorization and solve time.

CPU time on a 2-vCPU Xeon VM with one BLAS thread, unit box, coefficients
uniform in [0.25, 1] with largest value B2, omega = 2 pi 0.45 unless given,
4 random draws each in two runs (the 128^2 CG row calls the CG loop
directly):

    problem                            CG                       LU factor + solve
    24^3, 9 columns                    0.02-0.04 s, 5-6 iter.   0.38-0.42 + 0.02-0.03 s
    24^3, 9 columns, omega^2 B2
      = 0.999 lambda_h,1               0.03-0.05 s, 7 iter.     0.37-0.47 + 0.03 s
    32^3, 9 columns                    0.06-0.09 s, 5 iter.     3.8 + 0.13 s
    128^2, 60 columns                  0.30-0.44 s, 5 iter.     0.05-0.06 + 0.09-0.11 s

In 2D the LU has little fill (0.65 M nonzeros at 128^2, against 3.3 M at
24^3 and 13 M at 32^3), so LU stays faster there and 2D keeps LU. The CG
path needs only numpy and the sparse product, so it loads no further module.

:func:`solve_dirichlet` takes one right-hand side (``g`` of shape
``(n_boundary,)``, ``f`` of shape ``(n_interior,)``) or a block of ``k`` of
them (``(n_boundary, k)`` and ``(n_interior, k)``), which it solves with one
call into the factorization or one CG loop over all columns. Whatever the
method, every column must meet the relative residual target ``SOLVER_RTOL``
on its own. :func:`normal_derivative` likewise acts column-wise on
``(n_nodes, k)`` fields.

Two boundary normal-derivative extractors are provided:

* :func:`normal_derivative` -- the pointwise one-sided stencil
  ``(3 u0 - 4 u1 + u2) / (2 h)`` along the outward normal, one sparse
  boundary-by-node matrix. Exact on quadratics; this is what enters the
  measured DtN data. That matrix's transpose, restricted to the interior
  columns, is :func:`normal_derivative_adjoint`: the right-hand side of the
  adjoint solves of the data-convention derivative.
* :func:`flux_normal_derivative` -- the flux rows applied to the field,
  divided by the boundary quadrature weight. Consistent in the integrated
  (weak) sense and *exactly* self-adjoint in the weighted boundary pairing,
  which the pointwise stencil is not. Dual pairings ("<Lambda g, h>") must
  use this extractor.

No module keeps a system. :func:`assemble` builds a new one on every call,
and the LU of a system, computed on its first direct solve, lives exactly as
long as the system does: it is freed together with the system once its caller
lets go of it. ``forward.forward_map`` keeps the DtN rows that a campaign
reuses, not the systems that solved them. :data:`solve_counts` counts the LUs
computed (``factorizations``) and the columns solved by CG (``cg_columns``)
with the iterations of their block solves (``cg_iterations``);
``forward.cache_info`` reports them and ``forward.clear_caches`` resets them.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalFailureError
from .geometry import BoxGrid, _kron, _lattice, _trapezoid

__all__ = [
    "HelmholtzSystem",
    "assemble",
    "axis_eigenvalues",
    "solve_dirichlet",
    "normal_derivative",
    "normal_derivative_adjoint",
    "flux_normal_derivative",
    "node_coefficients",
    "cell_average",
    "solve_counts",
]

SOLVER_RTOL = 1e-10
# CG stops once every column's residual is this small relative to its
# right-hand side, about what LU reaches at 24^3; SOLVER_RTOL still judges
# the result
CG_RTOL = 1e-14
POINTS_PER_WAVELENGTH_MIN = 8.0

# LUs computed and columns solved by CG, with the iterations of their block
# solves; read by forward.cache_info and reset by forward.clear_caches
solve_counts = {"factorizations": 0, "cg_columns": 0, "cg_iterations": 0}


def _check_omega2(omega2) -> float:
    """``omega2`` as a float; ValueError unless 0 <= omega2 < inf."""
    omega2 = float(omega2)
    if not 0.0 <= omega2 < np.inf:
        raise ValueError(
            f"omega^2 must be nonnegative and finite, got {omega2}")
    return omega2


def _node_averaging(grid: BoxGrid) -> sp.csr_matrix:
    """``(n_nodes, n_cells)`` averaging of cell values onto the nodes: row i
    takes the mean of the cells that touch node i. On every axis an end node
    touches one cell (weight 1) and an inner node two (weight 1/2 each)."""
    weights = [0.5 / _trapezoid(n + 1) for n in grid.cells_per_axis]
    return _kron([w[:, None] * (np.eye(w.size, w.size - 1)
                                + np.eye(w.size, w.size - 1, -1))
                  for w in weights])


def node_coefficients(grid: BoxGrid, coeff) -> np.ndarray:
    """Coefficient at every node: arithmetic mean of the adjacent cell values."""
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != (grid.n_cells,):
        raise ValueError(f"coeff must have one value per cell ({grid.n_cells})")
    return _node_averaging(grid) @ coeff


def _form_stiffness(grid: BoxGrid) -> sp.csr_matrix:
    """Stiffness ``K`` of -Lap per unit interior node volume, the Kronecker
    sum of the module docstring: an edge along axis a carries ``1/h_a^2``
    times the trapezoid factor of every other axis, and an end node of the
    1-D stiffness has one edge, so its diagonal is ``2 T_a / h_a^2``."""
    trap = [_trapezoid(m) for m in grid.nodes_per_axis]
    return sum(_kron([(np.diag(2.0 * f) - np.eye(f.size, k=1)
                       - np.eye(f.size, k=-1)) / (h * h) if t == a
                      else np.diag(f) for t, f in enumerate(trap)])
               for a, h in enumerate(grid.spacing))


def axis_eigenvalues(grid: BoxGrid) -> list:
    """Eigenvalues of the Dirichlet second difference ``[-1, 2, -1] / h_a^2``
    on the interior nodes of every axis, ascending:
    ``4 / h_a^2 sin^2(k pi / (2 n_a))``, ``k = 1 .. n_a - 1``, for n_a cells of
    width h_a. The stencil's eigenvalues are their sums over the axes, with
    the sine lattice ``sin(j k pi / n_a)`` of every axis as eigenvectors."""
    return [4.0 / h**2 * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
            for h, n in zip(grid.spacing, grid.cells_per_axis)]


class HelmholtzSystem:
    """Assembled discrete Helmholtz operator with a lazily computed LU."""

    def __init__(self, grid: BoxGrid, coeff, omega2: float):
        coeff = np.ascontiguousarray(coeff, dtype=float)
        if not np.all((coeff > 0) & (coeff < np.inf)):
            raise ValueError("coefficient must be positive and finite")
        omega2 = _check_omega2(omega2)

        self.grid = grid
        self.omega2 = omega2
        self.node_coeff = node_coefficients(grid, coeff)
        # every interior node has the volume prod(h); the trapezoid factors
        # scale it down at the boundary
        interior_volume = grid.cell_volume()
        relative_volumes = _lattice(
            np.multiply, [_trapezoid(m) for m in grid.nodes_per_axis])
        self.node_volumes = interior_volume * relative_volumes

        # the form K - omega^2 diag(vol * c), divided by prod(h)
        form = (_form_stiffness(grid)
                - omega2 * sp.diags(relative_volumes * self.node_coeff)).tocsr()
        interior_rows = form[grid.interior_nodes]
        self.interior_matrix = interior_rows[:, grid.interior_nodes].tocsc()
        self.coupling = interior_rows[:, grid.boundary_nodes].tocsr()
        # boundary rows of the form itself: the conormal flux
        self.flux_rows = (interior_volume * form[grid.boundary_nodes]).tocsr()

        self._lu = None

    @property
    def factorization(self):
        """Sparse LU of the interior matrix, computed on first use and kept
        as long as the system. :func:`solve_dirichlet` asks for it only for a
        system that CG does not solve (every 2D system, and a 3D one outside
        the first-window certificate)."""
        if self._lu is None:
            try:
                self._lu = splu(self.interior_matrix, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # singular factor
                raise NumericalFailureError(
                    "sparse factorization failed",
                    {"reason": str(exc), "omega2": self.omega2},
                ) from exc
            solve_counts["factorizations"] += 1
        return self._lu


def assemble(grid: BoxGrid, coeff, omega2: float) -> HelmholtzSystem:
    """Assemble the discrete system for one coefficient.

    Warns when the grid resolves fewer than 8 points per wavelength.
    """
    # the constructor validates the inputs before the warning reads them
    sys_ = HelmholtzSystem(grid, coeff, omega2)
    omega2 = sys_.omega2
    if omega2 > 0:
        wavelength = 2.0 * np.pi / (np.sqrt(omega2) * np.sqrt(np.max(coeff)))
        ppw = wavelength / max(grid.spacing)
        if ppw < POINTS_PER_WAVELENGTH_MIN:
            warnings.warn(
                f"grid resolves only {ppw:.2f} points per wavelength "
                f"(< {POINTS_PER_WAVELENGTH_MIN:g}); results may be under-resolved",
                stacklevel=2,
            )
    return sys_


def solve_dirichlet(sys: HelmholtzSystem, g, f=None) -> np.ndarray:
    """Solve the Dirichlet problem; returns the field on all nodes.

    ``g`` holds boundary values (one per boundary node, canonical order) and
    ``f`` the interior source (may be None for the homogeneous equation).
    Either ``g`` is one vector of shape ``(n_boundary,)`` with ``f`` of shape
    ``(n_interior,)`` and the result has shape ``(n_nodes,)``, or ``g`` is a
    block ``(n_boundary, k)`` with ``f`` ``(n_interior, k)`` and the result is
    ``(n_nodes, k)``, column j solving for ``g[:, j]`` and ``f[:, j]``. A 3D
    system certified positive definite (module docstring) is solved by
    preconditioned CG, one loop over all columns; any other system by its LU,
    one call into the factorization per block. ``g`` and ``f`` must be
    finite (ValueError otherwise). Every column must reach a residual of
    ``SOLVER_RTOL`` relative to its own right-hand side, otherwise
    :class:`NumericalFailureError` reports the worst column; a non-finite
    residual always fails. The boundary trace of the result equals ``g``
    exactly.
    """
    grid = sys.grid
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] != grid.n_boundary:
        raise ValueError(
            f"g must have {grid.n_boundary} boundary values per column")
    if not np.all(np.isfinite(g)):
        raise ValueError("g contains non-finite boundary values")
    if f is None:
        rhs = -sys.coupling.dot(g)
    else:
        f = np.asarray(f, dtype=float)
        if f.shape != (grid.n_interior,) + g.shape[1:]:
            raise ValueError(
                f"f must have {grid.n_interior} interior values per column of g")
        if not np.all(np.isfinite(f)):
            raise ValueError("f contains non-finite interior values")
        rhs = f - sys.coupling.dot(g)

    plan = _cg_plan(sys)
    if plan is None:
        u_i = sys.factorization.solve(rhs)
        method = "direct solve"
    else:
        u_i = _cg_solve(sys, rhs, *plan)
        method = "preconditioned CG solve"
    rhs_norm = np.atleast_1d(np.linalg.norm(rhs, axis=0))
    residual = np.atleast_1d(
        np.linalg.norm(sys.interior_matrix.dot(u_i) - rhs, axis=0))
    # a zero right-hand side has the zero solution; no relative target applies.
    # Written as "not within target" so that a NaN residual fails too.
    failing = np.flatnonzero((rhs_norm > 0)
                             & ~(residual <= SOLVER_RTOL * rhs_norm))
    if failing.size:
        j = int(failing[np.argmax(residual[failing] / rhs_norm[failing])])
        details = {"residual": float(residual[j]),
                   "rhs_norm": float(rhs_norm[j]),
                   "target": SOLVER_RTOL * float(rhs_norm[j])}
        if g.ndim == 2:
            details["column"] = j
        raise NumericalFailureError(f"{method} missed the residual target",
                                    details)

    u = np.empty((grid.n_nodes,) + g.shape[1:])
    u[grid.interior_nodes] = u_i
    u[grid.boundary_nodes] = g
    return u


def _cg_iteration_cap(delta: float, kappa: float) -> int:
    """CG iterations after which every residual is within ``CG_RTOL``.

    With the preconditioned condition number at most
    ``(1 + delta) / (1 - delta)``, the energy-norm error falls at least by
    ``2 rho^k``, ``rho = delta / (1 + sqrt(1 - delta^2))``. Starting from zero,
    the residual relative to the right-hand side is at most ``sqrt(kappa)``
    times the relative energy error, ``kappa`` bounding the interior matrix's
    own condition number.
    """
    if delta == 0.0:  # the preconditioner is the inverse
        return 1
    rho = delta / (1.0 + np.sqrt(1.0 - delta * delta))
    need = np.log(2.0 * np.sqrt(kappa) / CG_RTOL) / -np.log(rho)
    return max(1, int(np.ceil(need)))


def _cg_plan(sys_: HelmholtzSystem):
    """``(sigma, cap)`` of the preconditioned CG solve of a 3D system whose
    interior matrix is certified positive definite,
    ``omega^2 max c < lambda_h,1``; None for every other system."""
    grid = sys_.grid
    if grid.dim != 3:
        return None
    c = sys_.node_coeff[grid.interior_nodes]
    c_min, c_max = float(c.min()), float(c.max())
    per_axis = axis_eigenvalues(grid)
    lam_min = sum(float(v[0]) for v in per_axis)
    lam_max = sum(float(v[-1]) for v in per_axis)
    w2 = sys_.omega2
    if not w2 * c_max < lam_min:
        return None
    sigma = 0.5 * w2 * (c_min + c_max)
    delta = 0.5 * w2 * (c_max - c_min) / (lam_min - sigma)
    kappa = (lam_max - w2 * c_min) / (lam_min - w2 * c_max)
    return sigma, _cg_iteration_cap(delta, kappa)


def _sine_matrix(m: int) -> np.ndarray:
    """Orthonormal type-I discrete sine transform of length ``m`` as a
    matrix, ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))``, ``j, k = 1 .. m``. It
    is symmetric and its own inverse."""
    k = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(np.pi / (m + 1) * np.outer(k, k))


def _sine_transform(v: np.ndarray, sines) -> np.ndarray:
    """Orthonormal DST-I over the interior lattice of every column of the
    ``(n_interior, k)`` block ``v``.

    The nodes run x-fastest, so the C-ordered block is the lattice
    ``(n_z, .., n_x, k)``. ``sines`` holds one :func:`_sine_matrix` per axis in
    that order, slowest first, and each is applied by one matrix product
    over the lattice viewed as ``(lead, m_a, rest)``, without a transpose.
    """
    z = v
    lead = 1
    for s in sines:
        m = s.shape[0]
        z = np.matmul(s, z.reshape(lead, m, -1))
        lead *= m
    return z.reshape(v.shape)


def _fast_poisson(grid: BoxGrid, sigma: float):
    """``(L_h - sigma I)^-1`` on ``(n_interior, k)`` blocks, applied exactly
    by :func:`_sine_transform`, which diagonalizes ``L_h``; ``sigma`` must lie
    below ``lambda_h,1``."""
    sines = [_sine_matrix(n - 1) for n in reversed(grid.cells_per_axis)]
    # stencil eigenvalues on the lattice (n_z, .., n_x), one row per node
    inverse = 1.0 / (sum(np.ix_(*axis_eigenvalues(grid)[::-1])) - sigma)
    inverse = inverse.reshape(-1, 1)

    def precondition(r):
        z = _sine_transform(r, sines)
        z *= inverse
        return _sine_transform(z, sines)

    return precondition


def _cg_solve(sys_: HelmholtzSystem, rhs: np.ndarray, sigma: float,
              cap: int) -> np.ndarray:
    """Interior solution of every column of ``rhs`` by CG preconditioned with
    :func:`_fast_poisson`. The columns share each sparse product and
    transform but keep their own step lengths. The iterates, residuals and
    directions of the columns still in the loop are kept as compact blocks;
    a column leaves once its residual is within ``CG_RTOL`` (all leave after
    ``cap`` iterations), and only then is its solution written out and the
    blocks compacted."""
    b = rhs.reshape(rhs.shape[0], -1)
    precondition = _fast_poisson(sys_.grid, sigma)

    def column_dots(u, v):
        return np.einsum("ij,ij->j", u, v)

    out = np.zeros_like(b)
    norms = np.linalg.norm(b, axis=0)
    active = np.flatnonzero(norms > CG_RTOL * norms)
    target = CG_RTOL * norms[active]
    r = b[:, active]
    x = np.zeros_like(r)
    p = rz = None
    iterations = 0
    while active.size and iterations < cap:
        z = precondition(r)
        rz_next = column_dots(r, z)
        if p is None:
            p = z
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
        q = sys_.interior_matrix.dot(p)
        alpha = rz / column_dots(p, q)
        x += alpha * p
        r -= alpha * q
        iterations += 1
        # a NaN residual leaves too, for the residual check to report
        going = np.linalg.norm(r, axis=0) > target
        if not going.all():
            out[:, active[~going]] = x[:, ~going]
            active, target, rz = active[going], target[going], rz[going]
            x, r, p = x[:, going], r[:, going], p[:, going]
    out[:, active] = x
    solve_counts["cg_columns"] += b.shape[1]
    solve_counts["cg_iterations"] += iterations
    return out.reshape(rhs.shape)


def _normal_stencil(grid: BoxGrid):
    """The one-sided normal-derivative stencil: the ``(n_boundary, n_nodes)``
    CSR matrix ``D`` and ``2 h`` per boundary node, with
    ``D @ u / 2h = (3 u0 - 4 u1 + u2) / (2 h)`` and u1, u2 stepping inward
    along the owning face's normal. Each row stores the taps 3, -4 and 1 in
    that order, which is the order ``D @ u`` adds them in."""
    axes, sides = np.divmod(grid.boundary_face, 2)
    step = np.asarray(grid.node_strides())[axes] * np.where(sides == 0, 1, -1)
    b = grid.boundary_nodes
    cols = np.stack([b, b + step, b + 2 * step], axis=1).ravel()
    taps = np.tile([3.0, -4.0, 1.0], grid.n_boundary)
    d = sp.csr_matrix((taps, cols, np.arange(0, 3 * b.size + 1, 3)),
                      shape=(grid.n_boundary, grid.n_nodes))
    return d, 2.0 * np.asarray(grid.spacing)[axes]


def normal_derivative(grid: BoxGrid, u) -> np.ndarray:
    """Outward normal derivative at every boundary node.

    One-sided second-order stencil along the owning face's normal:
    ``(3 u0 - 4 u1 + u2) / (2 h)`` with u1, u2 stepping inward. Exact on
    quadratics. ``u`` is one field ``(n_nodes,)`` or a block ``(n_nodes, k)``,
    whose columns are differentiated independently into ``(n_boundary, k)``.
    """
    u = np.asarray(u)
    if u.ndim not in (1, 2) or u.shape[0] != grid.n_nodes:
        raise ValueError(f"u must be a full-grid field with {grid.n_nodes} values")
    d, two_h = _normal_stencil(grid)
    return d @ u / two_h.reshape((-1,) + (1,) * (u.ndim - 1))


def normal_derivative_adjoint(grid: BoxGrid, positions) -> np.ndarray:
    """Transposed normal-derivative stencil on the interior nodes.

    Column j holds the weights with which :func:`normal_derivative` reads an
    interior field at boundary position ``positions[j]``: for every field
    ``w`` that vanishes on the boundary,
    ``normal_derivative(grid, w)[positions] == E.T @ w[grid.interior_nodes]``
    with ``E`` the returned dense ``(n_interior, len(positions))`` array, the
    transpose of the stencil's rows at ``positions`` restricted to the
    interior columns. Solving against ``E`` gives the adjoint fields of the
    receiver samples.
    """
    positions = np.asarray(positions, dtype=np.int64)
    d, two_h = _normal_stencil(grid)
    return (d[positions][:, grid.interior_nodes].toarray()
            / two_h[positions, None]).T


def flux_normal_derivative(sys: HelmholtzSystem, u) -> np.ndarray:
    """Variational conormal derivative at every boundary node.

    Boundary rows of the symmetric bilinear form applied to ``u``, divided by
    the boundary quadrature weights. The weighted pairing
    ``sum_b w_b * flux(g)_b * h_b`` is exactly symmetric in (g, h) whenever
    both fields solve the homogeneous equation.
    """
    u = np.asarray(u)
    if u.shape != (sys.grid.n_nodes,):
        raise ValueError("u must be a full-grid field")
    return sys.flux_rows.dot(u) / sys.grid.boundary_weights


def cell_average(grid: BoxGrid, u: np.ndarray) -> np.ndarray:
    """Mean of the 2^dim corner nodes per cell, x-fastest order."""
    return _kron([0.5 * (np.eye(n, n + 1) + np.eye(n, n + 1, 1))
                  for n in grid.cells_per_axis]) @ np.asarray(u)
