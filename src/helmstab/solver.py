"""Discrete Helmholtz Dirichlet solver on structured grids.

The operator ``(-Lap - omega^2 c^-2)`` is discretized with second-order
central differences (5-point stencil in 2D, 7-point in 3D). Boundary values
are eliminated by the block split

    A_ii u_i + A_ib u_b = f,    u_b = g,

and the interior matrix is factorized once (sparse direct) and reused across
right-hand sides.

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
* :func:`flux_normal_derivative` -- the variational conormal flux obtained
  from the symmetric bilinear form of the discretization, divided by the
  boundary quadrature weight. Consistent in the integrated (weak) sense and
  *exactly* self-adjoint in the weighted boundary pairing, which the
  pointwise stencil is not. Dual pairings ("<Lambda g, h>") must use this
  extractor.

Factorized systems, Dirichlet (:func:`assemble`) and absorbing
(:func:`solve_absorbing`) alike, live in one content-keyed store that keeps
the 4 most recently used; :func:`cache_info` counts its hits, misses and
evictions and :func:`clear_caches` empties it.

The finite-difference choice is not load-bearing for anything downstream:
an alternative discretization (e.g. discontinuous Galerkin) plugs in by
producing the same ``HelmholtzSystem`` surface (interior_matrix, coupling,
flux_rows, factorization) through its own assemble function.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NearResonanceError, NumericalFailureError
from .geometry import BoxGrid

__all__ = [
    "HelmholtzSystem",
    "assemble",
    "solve_dirichlet",
    "solve_absorbing",
    "normal_derivative",
    "normal_derivative_adjoint",
    "flux_normal_derivative",
    "node_coefficients",
    "cell_average",
    "interior_operators",
    "register_eigenvalues",
    "cached_eigenvalues",
    "cache_info",
    "clear_caches",
]

SOLVER_RTOL = 1e-10
RESONANCE_RTOL = 1e-8
POINTS_PER_WAVELENGTH_MIN = 8.0

# Factorized systems keyed by (kind, grid.key, coeff hash, omega2[, top
# face]), least recently used first. A campaign cell needs the two systems of
# its model pair. In the benchmark campaigns a system is needed again after
# at most 3 other distinct systems (a 3D two-layer field that one scale does
# not align), so 4 entries keep every reuse; 3 would factorize one twice.
_STORE_SIZE = 4
_store: OrderedDict = OrderedDict()
_store_counts = {"hits": 0, "misses": 0, "evictions": 0}
# discrete spectra keyed by (grid.key, coeff hash); consulted by assemble()
_eigen_cache: dict = {}


def _coeff_hash(coeff: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(coeff, dtype=float).tobytes()).hexdigest()


def register_eigenvalues(grid: BoxGrid, coeff, eigenvalues):
    """Record discrete eigenvalues so assemble() can refuse near-resonant solves."""
    key = (grid.key, _coeff_hash(np.asarray(coeff, dtype=float)))
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    known = _eigen_cache.get(key)
    if known is not None:
        vals = np.unique(np.concatenate([known, vals]))
    _eigen_cache[key] = vals


def cached_eigenvalues(grid: BoxGrid, coeff):
    return _eigen_cache.get((grid.key, _coeff_hash(np.asarray(coeff, dtype=float))))


def _stored(key, build):
    """The store's entry for ``key``, built by ``build()`` on a miss."""
    entry = _store.get(key)
    if entry is not None:
        _store_counts["hits"] += 1
        _store.move_to_end(key)
        return entry
    _store_counts["misses"] += 1
    entry = _store[key] = build()
    if len(_store) > _STORE_SIZE:
        _store.popitem(last=False)
        _store_counts["evictions"] += 1
    return entry


def cache_info() -> dict:
    """Hits, misses and evictions of the factorization store since the last
    :func:`clear_caches`, and its live entry count."""
    return dict(_store_counts, entries=len(_store))


def clear_caches():
    """Empty the factorization store and the registered spectra."""
    _store.clear()
    _store_counts.update(hits=0, misses=0, evictions=0)
    _eigen_cache.clear()


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


def _node_volumes(grid: BoxGrid) -> np.ndarray:
    """Trapezoidal node volumes: product of h_a, halved at axis extremes."""
    vol = np.ones(grid.nodes_per_axis)
    for a, (n, h) in enumerate(zip(grid.nodes_per_axis, grid.spacing)):
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        shape = [1] * grid.dim
        shape[a] = n
        vol = vol * w.reshape(shape)
    return np.ravel(vol, order="F")


def _graph_laplacian(grid: BoxGrid, edge_weight) -> sp.csr_matrix:
    """Symmetric sum over grid edges of w_e * (e_p - e_q)(e_p - e_q)^T.

    ``edge_weight(axis, low_multi_index)`` returns the per-edge weight array
    for all edges along ``axis`` (an array shaped like the edge lattice).
    """
    n = grid.n_nodes
    rows, cols, vals = [], [], []
    strides = grid.node_strides()
    for a in range(grid.dim):
        edge_shape = tuple(
            grid.nodes_per_axis[t] - (1 if t == a else 0) for t in range(grid.dim)
        )
        idx = np.indices(edge_shape)
        p = np.zeros(edge_shape, dtype=np.int64)
        for t in range(grid.dim):
            p += idx[t] * strides[t]
        p = np.ravel(p, order="F")
        q = p + strides[a]
        w = np.ravel(edge_weight(a, idx), order="F")
        rows.extend([p, q, p, q])
        cols.extend([p, q, q, p])
        vals.extend([w, w, -w, -w])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _fd_stiffness(grid: BoxGrid) -> sp.csr_matrix:
    """Graph Laplacian with 1/h_a^2 edge weights.

    Its interior rows are exactly the second-order central-difference
    discretization of -Lap.
    """
    h = grid.spacing

    def edge_weight(a, idx):
        return np.full(idx[0].shape, 1.0 / (h[a] * h[a]))

    return _graph_laplacian(grid, edge_weight)


def _form_stiffness(grid: BoxGrid) -> sp.csr_matrix:
    """Edge-weighted stiffness of the trapezoidal bilinear form.

    Edge along axis ``a`` carries weight (prod_{t != a} h_t w_t) / h_a where
    w_t halves at transverse extremes. Interior rows equal the FD rows scaled
    by the uniform interior node volume.
    """
    h = grid.spacing

    def edge_weight(a, idx):
        w = np.full(idx[0].shape, 1.0 / h[a])
        for t in range(grid.dim):
            if t == a:
                continue
            tw = np.where(
                (idx[t] == 0) | (idx[t] == grid.nodes_per_axis[t] - 1),
                0.5 * h[t],
                h[t],
            )
            w = w * tw
        return w

    return _graph_laplacian(grid, edge_weight)


class HelmholtzSystem:
    """Assembled discrete Helmholtz operator with a reusable factorization."""

    def __init__(self, grid: BoxGrid, coeff, omega2: float):
        coeff = np.ascontiguousarray(coeff, dtype=float)
        if coeff.shape != (grid.n_cells,):
            raise ValueError(f"coeff must have one value per cell ({grid.n_cells})")
        if np.any(coeff <= 0):
            raise ValueError("coefficient must be positive")
        omega2 = float(omega2)
        if omega2 < 0:
            raise ValueError(f"omega^2 must be nonnegative, got {omega2}")

        self.grid = grid
        self.coeff = coeff
        self.omega2 = omega2
        self.node_coeff = node_coefficients(grid, coeff)
        self.node_volumes = _node_volumes(grid)

        interior = grid.interior_nodes
        boundary = grid.boundary_nodes

        fd = _fd_stiffness(grid)
        fd_int = fd[interior]
        mass_int = self.node_coeff[interior]
        self.interior_matrix = (
            fd_int[:, interior] - omega2 * sp.diags(mass_int)
        ).tocsc()
        self.coupling = fd_int[:, boundary].tocsr()

        # boundary rows of the symmetric form K - omega^2 M (conormal flux)
        form = _form_stiffness(grid)
        mass_full = sp.diags(self.node_volumes * self.node_coeff)
        self.flux_rows = (form - omega2 * mass_full)[boundary].tocsr()

        self._lu = None

    @property
    def factorization(self):
        """Sparse LU of the interior matrix, computed lazily and shareable."""
        if self._lu is None:
            try:
                self._lu = splu(self.interior_matrix)
            except RuntimeError as exc:  # singular factor
                raise NumericalFailureError(
                    "sparse factorization failed",
                    {"reason": str(exc), "omega2": self.omega2},
                ) from exc
        return self._lu


def assemble(grid: BoxGrid, coeff, omega2: float) -> HelmholtzSystem:
    """Assemble (or reuse from the store) the discrete system for one
    coefficient.

    Refuses to build a system whose omega^2 lies within relative 1e-8 of a
    *registered* discrete eigenvalue for this (grid, coeff); the spectrum
    module registers them. Warns when the grid resolves fewer than 8 points
    per wavelength.
    """
    coeff = np.ascontiguousarray(coeff, dtype=float)
    omega2 = float(omega2)
    digest = _coeff_hash(coeff)

    if omega2 > 0:
        known = _eigen_cache.get((grid.key, digest))
        if known is not None and known.size:
            rel = np.abs(omega2 - known) / known
            j = int(np.argmin(rel))
            if rel[j] <= RESONANCE_RTOL:
                raise NearResonanceError(omega2, float(known[j]), float(rel[j]))

    if omega2 > 0:
        wavelength = 2.0 * np.pi / (np.sqrt(omega2) * np.sqrt(np.max(coeff)))
        ppw = wavelength / max(grid.spacing)
        if ppw < POINTS_PER_WAVELENGTH_MIN:
            warnings.warn(
                f"grid resolves only {ppw:.2f} points per wavelength "
                f"(< {POINTS_PER_WAVELENGTH_MIN:g}); results may be under-resolved",
                stacklevel=2,
            )

    return _stored(("dirichlet", grid.key, digest, omega2),
                   lambda: HelmholtzSystem(grid, coeff, omega2))


def solve_dirichlet(sys: HelmholtzSystem, g, f=None) -> np.ndarray:
    """Solve the Dirichlet problem; returns the field on all nodes.

    ``g`` holds boundary values (one per boundary node, canonical order) and
    ``f`` the interior source (may be None for the homogeneous equation).
    Either ``g`` is one vector of shape ``(n_boundary,)`` with ``f`` of shape
    ``(n_interior,)`` and the result has shape ``(n_nodes,)``, or ``g`` is a
    block ``(n_boundary, k)`` with ``f`` ``(n_interior, k)`` and the result is
    ``(n_nodes, k)``, column j solving for ``g[:, j]`` and ``f[:, j]``. A block
    is solved with one call into the factorization. Every column must reach a
    residual of ``SOLVER_RTOL`` relative to its own right-hand side, otherwise
    :class:`NumericalFailureError` reports the worst column. The boundary
    trace of the result equals ``g`` exactly.
    """
    grid = sys.grid
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] != grid.n_boundary:
        raise ValueError(
            f"g must have {grid.n_boundary} boundary values per column")
    if f is None:
        rhs = -sys.coupling.dot(g)
    else:
        f = np.asarray(f, dtype=float)
        if f.shape != (grid.n_interior,) + g.shape[1:]:
            raise ValueError(
                f"f must have {grid.n_interior} interior values per column of g")
        rhs = f - sys.coupling.dot(g)

    u_i = sys.factorization.solve(rhs)
    rhs_norm = np.atleast_1d(np.linalg.norm(rhs, axis=0))
    residual = np.atleast_1d(
        np.linalg.norm(sys.interior_matrix.dot(u_i) - rhs, axis=0))
    # a zero right-hand side has the zero solution; no relative target applies
    failing = np.flatnonzero((rhs_norm > 0) & (residual > SOLVER_RTOL * rhs_norm))
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


def _absorbing_system(grid: BoxGrid, coeff, omega2: float, top_face: int):
    """Complex factorization with first-order absorbing lateral/bottom faces,
    and the boundary positions that keep Dirichlet rows.

    Top-face-owned nodes keep Dirichlet rows (u = g); every other boundary
    node gets the impedance row du/dnu - i*omega*c^-1*u = 0 with the one-sided
    normal stencil. Interior rows are the usual Helmholtz stencil.
    """
    cnode = node_coefficients(grid, coeff)
    omega = np.sqrt(omega2)
    n = grid.n_nodes
    strides = np.asarray(grid.node_strides())

    is_interior = grid.boundary_position < 0
    fd = _fd_stiffness(grid).tocoo()  # same stencil as the Dirichlet path
    keep = is_interior[fd.row]
    rows = [fd.row[keep], grid.interior_nodes]
    cols = [fd.col[keep], grid.interior_nodes]
    vals = [fd.data[keep].astype(complex),
            np.full(grid.n_interior, -omega2) * cnode[grid.interior_nodes]]

    faces = grid.boundary_face
    axes = faces // 2
    sides = faces % 2
    dirichlet_mask = faces == top_face
    robin = ~dirichlet_mask
    b = grid.boundary_nodes[robin]
    h = np.asarray(grid.spacing)[axes[robin]]
    step = np.where(sides[robin] == 0, strides[axes[robin]],
                    -strides[axes[robin]])
    rows += [b, b, b]
    cols += [b, b + step, b + 2 * step]
    vals += [3.0 / (2.0 * h) - 1j * omega * np.sqrt(cnode[b]),
             -4.0 / (2.0 * h) + 0j, 1.0 / (2.0 * h) + 0j]

    d = grid.boundary_nodes[dirichlet_mask]
    rows.append(d)
    cols.append(d)
    vals.append(np.ones(d.size, dtype=complex))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    return splu(mat), np.flatnonzero(dirichlet_mask)


def solve_absorbing(grid: BoxGrid, coeff, omega2: float, g,
                    top_face: int) -> np.ndarray:
    """Complex fields on all nodes for a block ``g`` ``(n_boundary, k)`` of
    boundary data, with Dirichlet values on ``top_face`` and first-order
    absorbing rows on every other face (only ``g`` on the top face enters).
    The factorization comes from the same store as :func:`assemble`'s."""
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != grid.n_boundary:
        raise ValueError(f"g must be a ({grid.n_boundary}, k) block")
    coeff = np.ascontiguousarray(coeff, dtype=float)
    omega2 = float(omega2)
    lu, dirichlet_pos = _stored(
        ("absorbing", grid.key, _coeff_hash(coeff), omega2, top_face),
        lambda: _absorbing_system(grid, coeff, omega2, top_face))
    rhs = np.zeros((grid.n_nodes, g.shape[1]), dtype=complex)
    rhs[grid.boundary_nodes[dirichlet_pos]] = g[dirichlet_pos]
    return lu.solve(rhs)


def _inward_strides(grid: BoxGrid):
    """Signed flat stride stepping inward from each boundary node."""
    strides = np.asarray(grid.node_strides())
    axes = grid.boundary_face // 2
    sides = grid.boundary_face % 2
    return np.where(sides == 0, strides[axes], -strides[axes]), axes


def normal_derivative(sys_or_grid, u) -> np.ndarray:
    """Outward normal derivative at every boundary node.

    One-sided second-order stencil along the owning face's normal:
    ``(3 u0 - 4 u1 + u2) / (2 h)`` with u1, u2 stepping inward. Exact on
    quadratics. ``u`` is one field ``(n_nodes,)`` or a block ``(n_nodes, k)``,
    whose columns are differentiated independently into ``(n_boundary, k)``.
    """
    grid = sys_or_grid.grid if isinstance(sys_or_grid, HelmholtzSystem) else sys_or_grid
    u = np.asarray(u)
    if u.ndim not in (1, 2) or u.shape[0] != grid.n_nodes:
        raise ValueError(f"u must be a full-grid field with {grid.n_nodes} values")
    if any(n < 3 for n in grid.nodes_per_axis):
        raise ValueError("need at least 3 nodes along every axis for the stencil")
    step, axes = _inward_strides(grid)
    b = grid.boundary_nodes
    h = np.asarray(grid.spacing)[axes].reshape((-1,) + (1,) * (u.ndim - 1))
    return (3.0 * u[b] - 4.0 * u[b + step] + u[b + 2 * step]) / (2.0 * h)


def normal_derivative_adjoint(sys_or_grid, positions) -> np.ndarray:
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
    grid = sys_or_grid.grid if isinstance(sys_or_grid, HelmholtzSystem) else sys_or_grid
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


def interior_operators(grid: BoxGrid, coeff):
    """(Dirichlet FD Laplacian, nodal coefficient) over interior nodes.

    Building blocks of the generalized eigenproblem
    ``(-Lap_h) u = lambda~ * M_{c^-2} u`` solved by the spectrum module; uses
    the same stencil and the same cell-to-node coefficient averaging as the
    Helmholtz assembly.
    """
    coeff = np.asarray(coeff, dtype=float)
    fd = _fd_stiffness(grid)
    interior = grid.interior_nodes
    lap = fd[interior][:, interior].tocsc()
    c_int = node_coefficients(grid, coeff)[interior]
    return lap, c_int
