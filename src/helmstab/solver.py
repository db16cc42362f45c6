"""Discrete Helmholtz Dirichlet solver on structured grids.

One discrete form defines every system: the trapezoidal bilinear form

    a(u, v) = sum over edges e of w_e (u_p - u_q)(v_p - v_q)
              - omega^2 sum over nodes i of vol_i c_i u_i v_i,

with c the nodal coefficient, vol the trapezoidal node volumes and an edge
along axis a weighted by its transverse face measure over h_a. Its matrix
``K - omega^2 diag(vol * c)`` is symmetric. Every interior node has the
volume ``prod(h)``, and every edge that touches an interior node carries
``prod(h) / h_a^2``, so the interior rows divided by ``prod(h)`` are the
second-order central differences of ``-Lap - omega^2 c^-2`` (5-point
stencil in 2D, 7-point in 3D). :class:`HelmholtzSystem` builds the form
once, stored per unit interior volume, and reads all three of its blocks
from it:

* ``interior_matrix`` and ``coupling``: the interior rows, split by column
  into ``A_ii`` and ``A_ib`` of the Dirichlet problem
  ``A_ii u_i + A_ib u_b = f,  u_b = g``;
* ``flux_rows``: the boundary rows of the form itself, the conormal flux.

The omega = 0 system also gives the pencil of the discrete Dirichlet
eigenproblem (:mod:`spectrum`), so solver and spectrum share one stencil.

The interior matrix is factorized once (sparse direct) and reused across
right-hand sides. It is exactly symmetric, so SuperLU orders its columns by
minimum degree on the pattern of ``A^T + A`` (``MMD_AT_PLUS_A``) rather than
by its default COLAMD, which ignores that symmetry; the symmetric ordering
roughly halves the LU fill (6.8 M to 3.3 M nonzeros at 24^3) and with it the
factorization and solve time.

:func:`solve_dirichlet` takes one right-hand side (``g`` of shape
``(n_boundary,)``, ``f`` of shape ``(n_interior,)``) or a block of ``k`` of
them (``(n_boundary, k)`` and ``(n_interior, k)``), which it solves with one
call into the factorization. Every column must meet the relative residual
target ``SOLVER_RTOL`` on its own. :func:`normal_derivative` likewise acts
column-wise on ``(n_nodes, k)`` fields.

Two boundary normal-derivative extractors are provided:

* :func:`normal_derivative` -- the pointwise one-sided stencil
  ``(3 u0 - 4 u1 + u2) / (2 h)`` along the outward normal. Exact on
  quadratics; this is what enters the measured DtN data. Its transpose on
  the interior nodes, :func:`normal_derivative_adjoint`, is the right-hand
  side of the adjoint solves of the data-convention derivative.
* :func:`flux_normal_derivative` -- the flux rows applied to the field,
  divided by the boundary quadrature weight. Consistent in the integrated
  (weak) sense and *exactly* self-adjoint in the weighted boundary pairing,
  which the pointwise stencil is not. Dual pairings ("<Lambda g, h>") must
  use this extractor.

Factorized systems from :func:`assemble` live in one store keyed by grid,
coefficient content hash and omega^2 that keeps the 4 most recently used.
An entry holds its LU and the DtN rows of the sources solved against it
(``HelmholtzSystem.dtn_rows``, filled by ``forward.forward_map``), and both
are evicted together. :func:`cache_info` counts the store's hits, misses and
evictions and the rows read from an entry (row hits) or solved into one (row
misses); :func:`clear_caches` empties the store.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalFailureError
from .geometry import BoxGrid

__all__ = [
    "HelmholtzSystem",
    "assemble",
    "solve_dirichlet",
    "normal_derivative",
    "normal_derivative_adjoint",
    "flux_normal_derivative",
    "node_coefficients",
    "cell_average",
    "cache_info",
    "clear_caches",
]

SOLVER_RTOL = 1e-10
POINTS_PER_WAVELENGTH_MIN = 8.0

# Factorized systems keyed by (grid.key, coeff hash, omega2), least recently
# used first. A campaign cell needs the two systems of its model pair. In the
# benchmark campaigns a system is needed again after at most 3 other distinct
# systems (a 3D two-layer field that one scale does not align), so 4 entries
# keep every reuse; 3 would factorize one twice. An entry holds its LU and its
# DtN rows, n_boundary floats per solved source (about 240 kB for 60 sources
# at 128^2), and evicting the entry drops both.
_STORE_SIZE = 4
_store: OrderedDict = OrderedDict()
_store_counts = {"hits": 0, "misses": 0, "evictions": 0,
                 "row_hits": 0, "row_misses": 0}


def _coeff_hash(coeff: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(coeff, dtype=float).tobytes()).hexdigest()


def cache_info() -> dict:
    """Hits, misses and evictions of the factorization store, and the DtN
    rows read from an entry (``row_hits``) or solved into one
    (``row_misses``), since the last :func:`clear_caches`; and the store's
    live entry count."""
    return dict(_store_counts, entries=len(_store))


def clear_caches():
    """Empty the factorization store and reset its counts."""
    _store.clear()
    _store_counts.update(dict.fromkeys(_store_counts, 0))


def node_coefficients(grid: BoxGrid, coeff) -> np.ndarray:
    """Coefficient at every node: arithmetic mean of the adjacent cell values."""
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != (grid.n_cells,):
        raise ValueError(f"coeff must have one value per cell ({grid.n_cells})")
    cells = coeff.reshape(grid.cells_per_axis, order="F")
    acc = np.zeros(grid.nodes_per_axis)
    cnt = np.zeros(grid.nodes_per_axis)
    # each cell touches the 2^dim nodes at its corners
    for offsets in np.ndindex(*([2] * grid.dim)):
        sl = tuple(slice(o, o + n) for o, n in zip(offsets, grid.cells_per_axis))
        acc[sl] += cells
        cnt[sl] += 1.0
    return np.ravel(acc / cnt, order="F")


def _trapezoid(n: int) -> np.ndarray:
    """Trapezoid-rule factors of an axis with ``n`` nodes: 1/2 at both ends,
    1 inside."""
    f = np.ones(n)
    f[0] = f[-1] = 0.5
    return f


def _lattice(op, per_axis) -> np.ndarray:
    """``op``-combination of one 1-D array per axis over the lattice they
    span, flattened x-fastest."""
    out = per_axis[0]
    for v in per_axis[1:]:
        out = op.outer(v, out).ravel()
    return out


def _form_stiffness(grid: BoxGrid) -> sp.csr_matrix:
    """Stiffness of the trapezoidal bilinear form of -Lap, per unit interior
    node volume ``prod(h)``.

    The sum over grid edges of ``w_e (e_p - e_q)(e_p - e_q)^T``, where an edge
    along axis ``a`` carries ``1/h_a^2`` times the trapezoid factor of every
    transverse axis. An edge that touches an interior node lies inside on
    every transverse axis, so an interior row is exactly the central-
    difference row of -Lap.
    """
    n = grid.n_nodes
    strides = grid.node_strides()
    rows, cols, vals = [], [], []
    for a, h in enumerate(grid.spacing):
        counts = [m - (t == a) for t, m in enumerate(grid.nodes_per_axis)]
        p = _lattice(np.add, [np.arange(c) * s for c, s in zip(counts, strides)])
        q = p + strides[a]
        w = _lattice(np.multiply, [np.full(c, 1.0 / (h * h)) if t == a
                                   else _trapezoid(c)
                                   for t, c in enumerate(counts)])
        rows.extend([p, q, p, q])
        cols.extend([p, q, q, p])
        vals.extend([w, w, -w, -w])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class HelmholtzSystem:
    """Assembled discrete Helmholtz operator with a reusable factorization."""

    def __init__(self, grid: BoxGrid, coeff, omega2: float):
        coeff = np.ascontiguousarray(coeff, dtype=float)
        if coeff.shape != (grid.n_cells,):
            raise ValueError(f"coeff must have one value per cell ({grid.n_cells})")
        if not np.all((coeff > 0) & (coeff < np.inf)):
            raise ValueError("coefficient must be positive and finite")
        omega2 = float(omega2)
        if not 0.0 <= omega2 < np.inf:
            raise ValueError(
                f"omega^2 must be nonnegative and finite, got {omega2}")

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
        # outward normal derivative at every boundary node of each solved
        # source field, one (n_boundary,) array per (source boundary index,
        # source sigma); see missing_rows and keep_rows
        self.dtn_rows: dict = {}

    def missing_rows(self, keys) -> dict:
        """``{key: first position in keys}`` for every key without a DtN
        row; the other positions count as row hits."""
        missing = {}
        for pos, key in enumerate(keys):
            if key not in self.dtn_rows:
                missing.setdefault(key, pos)
        _store_counts["row_hits"] += len(keys) - len(missing)
        return missing

    def keep_rows(self, keys, block: np.ndarray):
        """Keep column k of the ``(n_boundary, len(keys))`` block as the DtN
        row of ``keys[k]``, copied so that the block is not kept alive; the
        kept rows count as row misses."""
        for k, key in enumerate(keys):
            self.dtn_rows[key] = block[:, k].copy()
        _store_counts["row_misses"] += len(keys)

    @property
    def factorization(self):
        """Sparse LU of the interior matrix, computed lazily and shareable."""
        if self._lu is None:
            try:
                self._lu = splu(self.interior_matrix, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # singular factor
                raise NumericalFailureError(
                    "sparse factorization failed",
                    {"reason": str(exc), "omega2": self.omega2},
                ) from exc
        return self._lu


def assemble(grid: BoxGrid, coeff, omega2: float) -> HelmholtzSystem:
    """Assemble (or reuse from the store) the discrete system for one
    coefficient.

    Warns when the grid resolves fewer than 8 points per wavelength.
    """
    coeff = np.ascontiguousarray(coeff, dtype=float)
    omega2 = float(omega2)
    key = (grid.key, _coeff_hash(coeff), omega2)
    sys_ = _store.get(key)
    if sys_ is not None:
        _store_counts["hits"] += 1
        _store.move_to_end(key)
    else:
        # the constructor validates the inputs before anything is stored
        sys_ = HelmholtzSystem(grid, coeff, omega2)
        _store_counts["misses"] += 1
        _store[key] = sys_
        if len(_store) > _STORE_SIZE:
            _store.popitem(last=False)
            _store_counts["evictions"] += 1

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
    ``(n_nodes, k)``, column j solving for ``g[:, j]`` and ``f[:, j]``. A block
    is solved with one call into the factorization. ``g`` and ``f`` must be
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

    u_i = sys.factorization.solve(rhs)
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
        raise NumericalFailureError("direct solve missed the residual target",
                                    details)

    u = np.empty((grid.n_nodes,) + g.shape[1:])
    u[grid.interior_nodes] = u_i
    u[grid.boundary_nodes] = g
    return u


def _inward_strides(grid: BoxGrid):
    """Signed flat stride stepping inward from each boundary node."""
    strides = np.asarray(grid.node_strides())
    axes = grid.boundary_face // 2
    sides = grid.boundary_face % 2
    return np.where(sides == 0, strides[axes], -strides[axes]), axes


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
    if any(n < 3 for n in grid.nodes_per_axis):
        raise ValueError("need at least 3 nodes along every axis for the stencil")
    step, axes = _inward_strides(grid)
    b = grid.boundary_nodes
    h = np.asarray(grid.spacing)[axes].reshape((-1,) + (1,) * (u.ndim - 1))
    return (3.0 * u[b] - 4.0 * u[b + step] + u[b + 2 * step]) / (2.0 * h)


def normal_derivative_adjoint(grid: BoxGrid, positions) -> np.ndarray:
    """Transposed normal-derivative stencil on the interior nodes.

    Column j holds the weights with which :func:`normal_derivative` reads an
    interior field at boundary position ``positions[j]``: for every field
    ``w`` that vanishes on the boundary,
    ``normal_derivative(grid, w)[positions] == E.T @ w[grid.interior_nodes]``
    with ``E`` the returned ``(n_interior, len(positions))`` array. The
    ``3 u0`` term and every inward node that lies on the boundary (next to an
    edge or corner) drop out, because ``w`` is zero there. Solving against
    ``E`` gives the adjoint fields of the receiver samples.
    """
    if any(n < 3 for n in grid.nodes_per_axis):
        raise ValueError("need at least 3 nodes along every axis for the stencil")
    positions = np.asarray(positions, dtype=np.int64)
    step, axes = _inward_strides(grid)
    b = grid.boundary_nodes[positions]
    step = step[positions]
    h = np.asarray(grid.spacing)[axes[positions]]
    interior_position = np.full(grid.n_nodes, -1, dtype=np.int64)
    interior_position[grid.interior_nodes] = np.arange(grid.n_interior)
    e = np.zeros((grid.n_interior, positions.size))
    cols = np.arange(positions.size)
    for k, coef in ((1, -4.0), (2, 1.0)):
        rows = interior_position[b + k * step]
        inside = rows >= 0
        e[rows[inside], cols[inside]] += coef / (2.0 * h[inside])
    return e


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
    lattice = np.asarray(u).reshape(grid.nodes_per_axis, order="F")
    acc = np.zeros(grid.cells_per_axis, dtype=lattice.dtype)
    for off in np.ndindex(*([2] * grid.dim)):
        sl = tuple(slice(o, o + n) for o, n in zip(off, grid.cells_per_axis))
        acc = acc + lattice[sl]
    return np.ravel(acc / 2 ** grid.dim, order="F")

