"""Discrete Helmholtz Dirichlet solver on structured grids.

One discrete form defines every system: the trapezoidal bilinear form, per
unit interior node volume ``prod(h)``, with the symmetric matrix

    K - omega^2 diag(t c),   K = sum_a kron_b (S_a if b == a else T_b),

a Kronecker sum of one small factor per axis b (:func:`geometry._kron`):
``T_b`` the diagonal of the axis's trapezoid factors (1/2 at both ends, 1
inside), ``t`` their product over the axes, and ``S_a`` the 1-D stiffness
``[-1, 2, -1] / h_a^2`` with diagonal ``2 T_a / h_a^2``. The nodal coefficient
is ``c = _node_averaging(grid) @ coeff``, at every node the mean of the cells
that touch it (:func:`node_coefficients` sums the same terms in the same
order without building the matrix). On an interior row every ``T_b`` is 1, so
the interior rows are the second-order central differences of
``-Lap - omega^2 c^-2`` (5-point stencil in 2D, 7-point in 3D).

Only the diagonal term depends on the coefficient. So each grid's stiffness
is cut once, on the grid's first system, into three blocks: the interior
block ``K_ii``, the interior-to-boundary block ``K_ib`` and the boundary rows
``K_b.``, kept read-only with the positions of their diagonal entries.
:class:`HelmholtzSystem` then reads its three blocks from them:

* ``interior_matrix``: ``K_ii - omega^2 diag(t c)`` on the interior nodes, a
  copy of ``K_ii``'s values with the diagonal lowered, on ``K_ii``'s own
  index arrays; with ``coupling``, the grid's ``K_ib`` itself, it is
  ``A_ii`` and ``A_ib`` of the Dirichlet problem
  ``A_ii u_i + A_ib u_b = f,  u_b = g``;
* ``flux_rows``: the boundary rows of the form, the conormal flux, built the
  same way from ``K_b.`` on first read (the forward map never reads them).

The omega = 0 system also gives the pencil of the discrete Dirichlet
eigenproblem (:mod:`spectrum`), so solver and spectrum share one stencil and
one LU path: the eigensolve's shift-invert solves with its ``factorization``.

Two methods solve the interior system, and :func:`solve_dirichlet` picks
one per system:

* Preconditioned conjugate gradients (CG), for a 3D grid whose system is
  certified symmetric positive definite: ``omega^2 max c < lambda_h,1``
  over the interior node coefficients, with ``lambda_h,1`` the smallest
  analytic eigenvalue of the stencil (:func:`stencil_eigenvalues`). In the
  first admissible window (:mod:`spectrum`) every admissible system passes.
  The preconditioner is the shifted constant-coefficient stencil
  ``L_h - sigma I``, ``sigma = omega^2 (c_min + c_max) / 2``, inverted exactly
  by the orthonormal type-I discrete sine transform (DST-I), which
  diagonalizes ``L_h`` (fast-Poisson preconditioning, Concus & Golub 1973).
  The DST-I of length m is the symmetric, involutory matrix
  ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))``; the transform applies one such
  matrix per axis by BLAS matrix products over the block viewed in place,
  which at these sizes (m up to about 100) beats an FFT. The interior
  matrix differs from the preconditioner by a diagonal of norm at most
  ``omega^2 (c_max - c_min) / 2``, so with
  ``delta = omega^2 (c_max - c_min) / 2 / (lambda_h,1 - sigma) < 1`` the
  preconditioned condition number is at most ``(1 + delta) / (1 - delta)``;
  the iteration cap follows from that bound. No LU is computed, and the
  loop applies no sparse matrix. On interior rows every trapezoid factor is
  1, so the interior matrix splits exactly as ``(L_h - sigma I) + diag(d)``,
  ``d = sigma - omega^2 c``. The preconditioner solves with the first term,
  so the product ``w`` of that term with the search direction ``p`` follows
  from the residual ``r`` by the recurrence ``w <- r + beta w`` (the idea of
  Eisenstat 1981 for SSOR), and the matrix times ``p`` is ``w + d p``. The
  residual check of :func:`solve_dirichlet` still applies the interior
  matrix, once per solve. All nonzero columns of a block iterate together,
  each as one C-ordered row of a ``(k, n_interior)`` block, so that every
  per-column scalar broadcasts along a row of length ``n_interior``. The
  loop has one exit: the last column within ``CG_RTOL``, or the cap. The
  residuals, the directions, ``w`` and the two blocks of the transforms
  are one set of five work blocks that each grid keeps in a pool for as
  long as it lives: a solve borrows a set and returns it, and a nested or
  concurrent solve on the same grid borrows a set of its own. So once a
  grid has solved, the CG loop allocates only its result, which is the
  iterate itself, and the memory of the blocks is not handed back to the
  system and faulted in again on the next solve.
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
random boundary data, 4 random draws each in two runs (the CG column is
the whole CG solve of :func:`solve_dirichlet`, residual check included;
the 128^2 CG row calls the CG loop directly):

    problem                            CG                       LU factor + solve
    24^3, 9 columns                    0.010-0.013 s, 5-6 iter. 0.38-0.42 + 0.02-0.03 s
    24^3, 9 columns, omega^2 B2
      = 0.999 lambda_h,1               0.012-0.013 s, 7 iter.   0.37-0.47 + 0.03 s
    32^3, 9 columns                    0.028-0.029 s, 5 iter.   3.8 + 0.13 s
    128^2, 60 columns                  0.16-0.18 s, 5 iter.     0.05-0.06 + 0.09-0.11 s

In 2D the LU has little fill (0.65 M nonzeros at 128^2, against 3.3 M at
24^3 and 13 M at 32^3), so LU stays faster there and 2D keeps LU. The CG
path needs only numpy, so it loads no further module.

:func:`solve_dirichlet` takes one right-hand side (``g`` of shape
``(n_boundary,)``, ``f`` of shape ``(n_interior,)``) or a block of ``k`` of
them (``(n_boundary, k)`` and ``(n_interior, k)``), which it solves with one
call into the factorization or one CG loop over all columns. Whatever the
method, every column must meet the relative residual target ``SOLVER_RTOL``
on its own. Before either method runs, a column whose norm nears over- or
underflow is scaled by the power of two that puts its largest entry in
[0.5, 1), solved and judged at that exact scale and scaled back, so any
finite data scale solves alike. :func:`normal_derivative` likewise acts
column-wise on ``(n_nodes, k)`` fields.

One boundary extractor serves each data convention:

* :func:`normal_derivative` -- the pointwise one-sided stencil
  ``(3 u0 - 4 u1 + u2) / (2 h)`` along the outward normal, one sparse
  boundary-by-node matrix. Exact on quadratics; this is what enters the
  measured DtN data. That matrix's transpose, restricted to the interior
  columns, is :func:`normal_derivative_adjoint`: the right-hand side of the
  adjoint solves of the data-convention derivative.
* ``HelmholtzSystem.flux_rows`` -- the boundary rows of the form, the
  conormal flux. Applied to a field and paired with boundary data, it is
  consistent in the integrated (weak) sense and *exactly* symmetric in the
  two data, which the pointwise stencil is not; every dual pairing
  ("<Lambda g, h>") reads these rows.

No module keeps a system. :func:`assemble` builds a new one on every call,
and the LU of a system, computed on its first direct solve, lives exactly as
long as the system does: it is freed together with the system once its caller
lets go of it. The grid keeps what does not depend on the coefficient: the
stiffness blocks above, the trapezoid volumes and the normal-derivative
stencil, built on first use and dropped together with the grid, with nothing
to reset. ``forward.forward_map`` keeps the DtN rows that a campaign reuses,
not the systems that solved them. :data:`solve_counts` counts the LUs
computed (``factorizations``) and the columns solved by CG (``cg_columns``)
with the iterations of their block solves (``cg_iterations``), and keeps the
largest residual, relative to its right-hand side, of any column that
:func:`solve_dirichlet` accepted (``worst_residual``);
``forward.cache_info`` reports them and ``forward.clear_caches`` resets them.
"""

from __future__ import annotations

import itertools
import warnings
import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalFailureError
from .geometry import BoxGrid, _kron, _lattice, _trapezoid
from .model import _positive

__all__ = [
    "HelmholtzSystem",
    "assemble",
    "axis_eigenvalues",
    "stencil_eigenvalues",
    "solve_dirichlet",
    "normal_derivative",
    "normal_derivative_adjoint",
    "node_coefficients",
    "solve_counts",
]

SOLVER_RTOL = 1e-10
# CG stops once every column's residual is this small relative to its
# right-hand side, about what LU reaches at 24^3; SOLVER_RTOL still judges
# the result
CG_RTOL = 1e-14
POINTS_PER_WAVELENGTH_MIN = 8.0

# LUs computed and columns solved by CG, with the iterations of their block
# solves, and the largest relative residual of a column that solve_dirichlet
# accepted; read by forward.cache_info and reset by forward.clear_caches
solve_counts = {"factorizations": 0, "cg_columns": 0, "cg_iterations": 0,
                "worst_residual": 0.0}


def _check_omega2(omega2) -> float:
    """``omega2`` as a float; ValueError unless 0 <= omega2 < inf."""
    omega2 = float(omega2)
    if not 0.0 <= omega2 < np.inf:
        raise ValueError(
            f"omega^2 must be nonnegative and finite, got {omega2}")
    return omega2


def _averaging_weights(grid: BoxGrid) -> list:
    """The per-axis rule of node averaging, for each axis with n cells, x
    first: an end node touches one cell (weight 1) and an inner node two
    (weight 1/2 each)."""
    return [0.5 / _trapezoid(n + 1) for n in grid.cells_per_axis]


def _node_averaging(grid: BoxGrid) -> sp.csr_matrix:
    """``(n_nodes, n_cells)`` averaging of cell values onto the nodes: row i
    takes the mean of the cells that touch node i, the Kronecker product of
    one ``(n + 1, n)`` factor per axis with :func:`_averaging_weights` on its
    two diagonals."""
    return _kron([w[:, None] * (np.eye(w.size, w.size - 1)
                                + np.eye(w.size, w.size - 1, -1))
                  for w in _averaging_weights(grid)])


def node_coefficients(grid: BoxGrid, coeff) -> np.ndarray:
    """Coefficient at every node: arithmetic mean of the adjacent cell values.

    The same numbers as ``_node_averaging(grid) @ coeff``, summed in its
    order, without building the matrix: over the 2^dim corner offsets, the
    last axis slowest and the low side first, add the weighted cell on that
    side of every node, with a zero cell beyond each end of the box."""
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != (grid.n_cells,):
        raise ValueError(f"coeff must have one value per cell ({grid.n_cells})")
    # lattices (n_z, .., n_x), slowest axis first
    nodes = grid.nodes_per_axis[::-1]
    padded = np.pad(coeff.reshape(grid.cells_per_axis[::-1]), 1)
    weights = _lattice(np.multiply, _averaging_weights(grid)).reshape(nodes)
    out = np.zeros(nodes)
    for offset in itertools.product((0, 1), repeat=grid.dim):
        out += weights * padded[tuple(slice(o, o + n)
                                      for o, n in zip(offset, nodes))]
    return out.ravel()


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


def stencil_eigenvalues(grid: BoxGrid) -> np.ndarray:
    """Eigenvalues of the stencil ``L_h``: the sums of :func:`axis_eigenvalues`
    over the interior lattice, x-fastest, so the first is the smallest,
    ``lambda_h,1``, and the last the largest."""
    return _lattice(np.add, axis_eigenvalues(grid))


def _diagonal_positions(block, diagonal) -> np.ndarray:
    """Position in ``block.data`` of the entry of every row of a CSR block
    (column of a CSC block) that lies in column (row) ``diagonal[i]``."""
    return np.flatnonzero(
        block.indices == np.repeat(diagonal, np.diff(block.indptr)))


class _GridOperators:
    """The coefficient-independent blocks of every system on one grid, all
    read-only: the stiffness ``K`` split into the interior block
    ``interior`` (CSC), the interior-to-boundary block ``coupling`` and the
    boundary rows ``boundary_rows`` (CSR), with the positions of their
    diagonal entries; the trapezoid volumes; and the normal-derivative
    stencil of :func:`_normal_stencil`. The CG path adds the factors of its
    preconditioner (:meth:`fast_poisson_factors`) and a pool of work blocks
    (``cg_blocks``, see :func:`_cg_solve`)."""

    def __init__(self, grid: BoxGrid):
        stiffness = _form_stiffness(grid)
        interior_rows = stiffness[grid.interior_nodes]
        self.interior = interior_rows[:, grid.interior_nodes].tocsc()
        self.coupling = interior_rows[:, grid.boundary_nodes].tocsr()
        self.boundary_rows = stiffness[grid.boundary_nodes]
        self.interior_diagonal = _diagonal_positions(
            self.interior, np.arange(grid.n_interior))
        self.boundary_diagonal = _diagonal_positions(
            self.boundary_rows, grid.boundary_nodes)
        # every interior node has the volume prod(h); the trapezoid factors
        # scale it down at the boundary
        self.relative_volumes = _lattice(
            np.multiply, [_trapezoid(m) for m in grid.nodes_per_axis])
        self.node_volumes = grid.cell_volume() * self.relative_volumes
        self.normal_stencil, self.two_h = _normal_stencil(grid)
        self._fast_poisson_factors = None
        # sets of CG work blocks that _cg_solve lends out and takes back
        self.cg_blocks = []

        matrices = (self.interior, self.coupling, self.boundary_rows,
                    self.normal_stencil)
        for arr in (*(getattr(m, a) for m in matrices
                      for a in ("data", "indices", "indptr")),
                    self.interior_diagonal, self.boundary_diagonal,
                    self.relative_volumes, self.node_volumes, self.two_h):
            arr.setflags(write=False)

    def fast_poisson_factors(self, grid: BoxGrid):
        """``(sines, eigenvalues)`` of :func:`_fast_poisson` on ``grid``, the
        grid of these operators: one :func:`_sine_matrix` per axis, slowest
        first, and :func:`stencil_eigenvalues`, read-only and built on first
        call (only the CG path of a 3D grid asks)."""
        if self._fast_poisson_factors is None:
            sines = [_sine_matrix(n - 1) for n in reversed(grid.cells_per_axis)]
            eigenvalues = stencil_eigenvalues(grid)
            for arr in (*sines, eigenvalues):
                arr.setflags(write=False)
            self._fast_poisson_factors = sines, eigenvalues
        return self._fast_poisson_factors


# grid -> its _GridOperators, dropped together with the grid
_OPERATORS = weakref.WeakKeyDictionary()


def _grid_operators(grid: BoxGrid) -> _GridOperators:
    """The grid's :class:`_GridOperators`, built on first use and kept
    exactly as long as the grid."""
    ops = _OPERATORS.get(grid)
    if ops is None:
        ops = _OPERATORS[grid] = _GridOperators(grid)
    return ops


class HelmholtzSystem:
    """Assembled discrete Helmholtz operator with a lazily computed LU."""

    def __init__(self, grid: BoxGrid, coeff, omega2: float):
        coeff = np.ascontiguousarray(coeff, dtype=float)
        _positive(coeff, "coefficient")
        omega2 = _check_omega2(omega2)

        ops = _grid_operators(grid)
        self.grid = grid
        self.omega2 = omega2
        self.node_coeff = node_coefficients(grid, coeff)
        self.node_volumes = ops.node_volumes
        # the interior rows of the form K - omega^2 diag(vol * c), divided by
        # prod(h)
        self.interior_matrix = self._lowered(
            ops.interior, ops.interior_diagonal, grid.interior_nodes)
        self.coupling = ops.coupling
        self._lu = None

    def _lowered(self, block, diagonal, nodes):
        """The grid's ``block`` with ``omega^2 t c`` at ``nodes`` subtracted
        from its diagonal entries at ``diagonal``, the only entries the
        coefficient touches: a new matrix with its own values on the block's
        index arrays."""
        t = _grid_operators(self.grid).relative_volumes[nodes]
        data = block.data.copy()
        data[diagonal] -= self.omega2 * (t * self.node_coeff[nodes])
        return type(block)((data, block.indices, block.indptr),
                           shape=block.shape)

    @cached_property
    def flux_rows(self) -> sp.csr_matrix:
        """Boundary rows of the form itself, the conormal flux; built on
        first read."""
        ops = _grid_operators(self.grid)
        rows = self._lowered(ops.boundary_rows, ops.boundary_diagonal,
                             self.grid.boundary_nodes)
        rows.data *= self.grid.cell_volume()
        return rows

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
    finite (ValueError otherwise). A right-hand side column whose norm lies
    outside ``_NORM_RANGE`` is scaled once, before the method is chosen, by
    the power of two of :func:`_far_column_exponents`; either method solves
    the scaled block, the residual check judges it, and only then are those
    solution columns scaled back. A column whose right-hand side overflows
    although ``g`` and ``f`` are finite is refused before either method
    runs, with a :class:`NumericalFailureError` that names it. Every column
    must reach a residual of ``SOLVER_RTOL`` relative to its own right-hand
    side, otherwise :class:`NumericalFailureError` reports the worst column
    at the caller's scale; a non-finite residual always fails. The boundary
    trace of the result equals ``g`` exactly.
    """
    grid = sys.grid
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] != grid.n_boundary:
        raise ValueError(
            f"g must have {grid.n_boundary} boundary values per column")
    if not np.all(np.isfinite(g)):
        raise ValueError("g contains non-finite boundary values")
    rhs = sys.coupling.dot(g)
    if f is None:
        np.negative(rhs, out=rhs)
    else:
        f = np.asarray(f, dtype=float)
        if f.shape != (grid.n_interior,) + g.shape[1:]:
            raise ValueError(
                f"f must have {grid.n_interior} interior values per column of g")
        if not np.all(np.isfinite(f)):
            raise ValueError("f contains non-finite interior values")
        np.subtract(f, rhs, out=rhs)
    b = rhs.reshape(grid.n_interior, -1)
    rhs_norm = np.sqrt(_column_dots(b, b))
    scale = _far_column_exponents(b, rhs_norm)
    # finite data whose right-hand side overflowed: no scale helps
    overflowed = np.flatnonzero(~np.isfinite(rhs_norm))
    if overflowed.size:
        details = {"rhs_norm": float(rhs_norm[overflowed[0]])}
        if g.ndim == 2:
            details["column"] = int(overflowed[0])
        raise NumericalFailureError("right-hand side is not finite", details)

    plan = _cg_plan(sys)
    if plan is None:
        u_i = sys.factorization.solve(rhs)
        method = "direct solve"
    else:
        u_i = _cg_solve(sys, rhs, *plan)
        method = "preconditioned CG solve"
    # both methods return Fortran order; the sparse product below would copy
    # it to C order, so copy it once here and keep only that copy
    u_i = np.ascontiguousarray(u_i)
    residual = sys.interior_matrix.dot(u_i).reshape(b.shape)
    residual -= b
    residual = np.sqrt(_column_dots(residual, residual))
    # a zero right-hand side has the zero solution; no relative target applies.
    # Written as "not within target" so that a NaN residual fails too, and an
    # infinite one as well.
    solved = rhs_norm != 0
    failing = np.flatnonzero(solved & ~((residual <= SOLVER_RTOL * rhs_norm)
                                        & np.isfinite(residual)))
    if failing.size:
        j = int(failing[np.argmax(residual[failing] / rhs_norm[failing])])
        rhs_j = float(np.ldexp(rhs_norm[j], scale[j]))
        details = {"residual": float(np.ldexp(residual[j], scale[j])),
                   "rhs_norm": rhs_j, "target": SOLVER_RTOL * rhs_j}
        if g.ndim == 2:
            details["column"] = j
        raise NumericalFailureError(f"{method} missed the residual target",
                                    details)
    solve_counts["worst_residual"] = float(np.max(
        residual[solved] / rhs_norm[solved],
        initial=solve_counts["worst_residual"]))
    scaled = np.flatnonzero(scale)
    if scaled.size:
        x = u_i.reshape(b.shape)  # a view: u_i is C-ordered
        x[:, scaled] = np.ldexp(x[:, scaled], scale[scaled])

    u = np.empty((grid.n_nodes,) + g.shape[1:])
    u[grid.interior_nodes] = u_i
    u[grid.boundary_nodes] = g
    return u


# A column whose norm lies in this range keeps every sum of squares of its CG
# iteration and of the residual check inside the range of doubles, with room
# to spare for the scales of the matrix and the preconditioner
_NORM_RANGE = (2.0**-400, 2.0**400)


def _far_column_exponents(b: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Exponent e per column of the ``(n, k)`` block ``b`` with column norms
    ``norms``: 0 where the norm lies in ``_NORM_RANGE``, otherwise the one
    that puts the column's largest magnitude in [0.5, 1) when the column is
    scaled by ``2^-e``. Those columns of ``b`` are scaled so in place, and
    their ``norms`` are overwritten with the norms of the scaled columns.
    Such a scaling is exact, so work on a scaled column is the unscaled work
    scaled, and its sums of squares neither overflow nor underflow. A zero
    or non-finite column keeps e = 0."""
    exponents = np.zeros(norms.shape, dtype=int)
    far = np.flatnonzero(~((norms >= _NORM_RANGE[0])
                           & (norms <= _NORM_RANGE[1])))
    if far.size:  # a zero column, or data far from 1
        columns = b[:, far]
        exponents[far] = np.frexp(np.abs(columns).max(axis=0, initial=0.0))[1]
        np.ldexp(columns, -exponents[far], out=columns)
        b[:, far] = columns
        norms[far] = np.sqrt(_column_dots(columns, columns))
    return exponents


def _column_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sum_i u[i, j] v[i, j]`` for every column j of two ``(n, k)`` blocks,
    without a temporary block."""
    return np.einsum("ij,ij->j", u, v)


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
    ``omega^2 max c < lambda_h,1``, the first of :func:`stencil_eigenvalues`;
    None for every other system."""
    grid = sys_.grid
    if grid.dim != 3:
        return None
    c = sys_.node_coeff[grid.interior_nodes]
    c_min, c_max = float(c.min()), float(c.max())
    _, lam = _grid_operators(grid).fast_poisson_factors(grid)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
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


def _sine_transform(v: np.ndarray, sines, work) -> np.ndarray:
    """Orthonormal DST-I over the interior lattice of every row of the
    ``(k, n_interior)`` block ``v``.

    The nodes run x-fastest, so the C-ordered block is the lattice
    ``(k, n_z, .., n_x)``. ``sines`` holds one :func:`_sine_matrix` per axis
    in that order, slowest first. Every axis but the fastest is applied by
    one batched matrix product over the block viewed as ``(lead, m_a,
    rest)``: one product per row for the slowest axis, one per row and
    slower index for a middle one. The fastest axis is one product per row
    from the right, over the block viewed as ``(k, rest, m_x)``, since the
    sine matrices are symmetric; at these sizes OpenBLAS runs that faster
    than one product over all rows. No product needs a transpose. The
    products are written alternately into ``work``, a pair of flat arrays
    of at least ``v.size`` entries, beginning with ``work[0]``; the result
    is a view of one of them. If ``work[0]`` holds ``v``, numpy copies
    ``v`` before the first product.
    """
    rows = v.shape[0]
    z, lead = v, rows
    for i, s in enumerate(sines):
        m = s.shape[0]
        out = work[i % 2][:v.size]
        if i < len(sines) - 1:
            z = np.matmul(s, z.reshape(lead, m, -1),
                          out=out.reshape(lead, m, -1))
            lead *= m
        else:
            z = np.matmul(z.reshape(rows, -1, m), s,
                          out=out.reshape(rows, -1, m))
    return z.reshape(v.shape)


def _fast_poisson(grid: BoxGrid, sigma: float, work):
    """``(L_h - sigma I)^-1`` on ``(k, n_interior)`` blocks, one right-hand
    side per row, applied exactly by the orthonormal DST-I over the interior
    lattice, which diagonalizes ``L_h``: one :func:`_sine_matrix` per axis,
    applied by :func:`_sine_transform`, around a division of every row by
    :func:`stencil_eigenvalues` minus ``sigma``, both read from the grid's
    :meth:`_GridOperators.fast_poisson_factors`. ``sigma`` must lie below
    ``lambda_h,1``. The transforms run in ``work``, a pair of flat arrays
    that each hold a block. The result is a view of ``work[1]``, valid until
    the next call, and ``work[0]`` is free again on return."""
    sines, eigenvalues = _grid_operators(grid).fast_poisson_factors(grid)
    inverse = 1.0 / (eigenvalues - sigma)
    # the first transform ends in work[(len(sines) - 1) % 2]; the second
    # begins in the other block, so that numpy need not copy its input, and
    # so ends in work[1]
    second = work[::-1] if len(sines) % 2 else work

    def precondition(r):
        z = _sine_transform(r, sines, work)
        z *= inverse
        return _sine_transform(z, sines, second)

    return precondition


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sum_j u[i, j] v[i, j]`` for every row i of two ``(k, n)`` blocks, one
    BLAS dot product per row, without a temporary block."""
    return np.matmul(u[:, None, :], v[:, :, None]).reshape(u.shape[0])


def _cg_solve(sys_: HelmholtzSystem, rhs: np.ndarray, sigma: float,
              cap: int) -> np.ndarray:
    """Interior solution of every column of ``rhs`` by CG preconditioned with
    :func:`_fast_poisson`; :func:`solve_dirichlet` hands it every nonzero
    finite column with its norm inside ``_NORM_RANGE``. The columns share
    each transform but keep their own step lengths. A zero column is left
    out and solved by zero; all other columns iterate together until the
    last of them is within ``CG_RTOL`` of its right-hand side, or for ``cap``
    iterations. A NaN residual ends the loop as well, for the residual check
    of :func:`solve_dirichlet` to report.

    The loop applies no sparse matrix: with the splitting of the module
    docstring, ``w = (L_h - sigma I) p`` follows ``w <- r + beta w`` and the
    matrix times ``p`` is ``w + d p``, ``d = sigma - omega^2 c``. The
    recurrence drifts from the true product by rounding only, and the
    residual check of :func:`solve_dirichlet` applies the true matrix.

    The blocks run transposed, one right-hand side per C-ordered row. The
    residuals, directions and ``w``, and the two work blocks of the
    transforms, are one set of five flat arrays from the grid's pool,
    ``_GridOperators.cg_blocks``: the call takes a set out (a new one when
    the pool is empty or the set has too few columns) and puts it back on
    return, so the pool keeps one solve's blocks for as long as the grid
    lives, and a nested or concurrent solve on the same grid works in a set
    of its own. The spent preconditioned residual takes ``A p`` and the
    other work block the steps. The iterate is the call's own result block,
    returned transposed (Fortran-ordered) and sharing no memory with the
    pool. So after the grid's first solve, a call allocates that block and a
    few vectors of ``n_interior`` entries, and one more block only when some
    columns are zero."""
    b = rhs.reshape(rhs.shape[0], -1)
    n, columns = b.shape
    pool = _grid_operators(sys_.grid).cg_blocks
    try:
        blocks = pool.pop()
    except IndexError:  # first solve, or the set is out on loan
        blocks = None
    if blocks is None or blocks[0].size < n * columns:
        blocks = tuple(np.empty(n * columns) for _ in range(5))
    r = blocks[0][:n * columns].reshape(columns, n)
    r[...] = b.T
    norms = np.sqrt(_row_dots(r, r))
    active = np.flatnonzero(norms > CG_RTOL * norms)
    target = CG_RTOL * norms[active]
    k = active.size
    if k < columns:  # the active rows move up, through a copy
        r[:k] = r[active]
        r = r[:k]
    p, w = (buf[:n * k].reshape(k, n) for buf in blocks[1:3])
    work = blocks[3:]
    spare = work[0][:n * k].reshape(k, n)
    out = np.zeros((columns, n))
    x = out if k == columns else np.zeros((k, n))

    precondition = _fast_poisson(sys_.grid, sigma, work)
    d = sigma - sys_.omega2 * sys_.node_coeff[sys_.grid.interior_nodes]
    rz = None
    iterations = 0
    while k and iterations < cap:
        z = precondition(r)
        rz_next = _row_dots(r, z)
        if rz is None:
            p[...] = z
            w[...] = r
        else:
            beta = (rz_next / rz)[:, None]
            p *= beta
            p += z
            w *= beta
            w += r
        rz = rz_next
        # z is spent; its block takes A p
        q = np.multiply(d, p, out=z)
        q += w
        alpha = (rz / _row_dots(p, q))[:, None]
        x += np.multiply(alpha, p, out=spare)
        r -= np.multiply(alpha, q, out=spare)
        iterations += 1
        residual = np.sqrt(_row_dots(r, r))
        if np.isnan(residual).any() or np.all(residual <= target):
            break
    if x is not out:
        out[active] = x
    pool.append(blocks)
    solve_counts["cg_columns"] += columns
    solve_counts["cg_iterations"] += iterations
    return out.T.reshape(rhs.shape)


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
    ops = _grid_operators(grid)
    two_h = ops.two_h.reshape((-1,) + (1,) * (u.ndim - 1))
    return ops.normal_stencil @ u / two_h


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
    ops = _grid_operators(grid)
    return (ops.normal_stencil[positions][:, grid.interior_nodes].toarray()
            / ops.two_h[positions, None]).T

