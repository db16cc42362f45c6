"""Rectangular domains, structured grids, and cubical domain partitions.

Conventions used everywhere downstream:

* Axes are ordered (x, y) in 2D and (x, y, z) in 3D; the last axis plays the
  role of depth, so the "top" boundary face is the low side of the last axis.
* Nodes and cells are flattened x-fastest:
  ``flat = ix + nx * (iy + ny * iz)``. Only this module encodes that rule:
  the index maps ``BoxGrid.node_index``/``node_multi_index`` and
  ``cell_index``/``cell_multi_index`` with their strides, :func:`_lattice`,
  which combines one array per axis over their lattice, and its matrix twin
  :func:`_kron`, the Kronecker product of one sparse matrix per axis.
* Each boundary node is owned by exactly one face. Nodes on edges/corners are
  assigned to the touching face with the lowest axis index; the owning face
  (``BoxGrid.boundary_face``) fixes the node's outward normal. Boundary
  quadrature weights are geometric (the node's trapezoidal patch measure
  summed over *all* touching faces), so the weights sum to |dOmega| exactly.
* This module builds the trapezoid rule (:func:`_trapezoid`) and the node
  tables, each table from one 1-D array per axis by :func:`_lattice`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BoxGrid",
    "CubicalPartition",
    "build_grid",
    "build_partition",
]


def _counts(values, what: str) -> tuple:
    """``values`` as a tuple of ints. A string, or a fractional, non-finite
    or non-numeric entry, is a ValueError, never split or truncated."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a list of numbers, got {values!r}")
    values = tuple(values)
    try:
        floats = [float(v) for v in values]
    except (TypeError, ValueError):
        floats = [np.nan]
    if not all(f.is_integer() for f in floats):
        raise ValueError(f"{what} must be whole numbers, got {values}")
    return tuple(int(f) for f in floats)


def _trapezoid(n: int) -> np.ndarray:
    """Trapezoid-rule factors of an axis with ``n`` nodes: 1/2 at both ends,
    1 inside."""
    f = np.ones(n)
    f[0] = f[-1] = 0.5
    return f


def _strides(shape) -> tuple:
    """Flat-index step of every axis of an x-fastest lattice."""
    return tuple(int(s) for s in np.cumprod((1,) + tuple(shape[:-1])))


def _lattice(op, per_axis) -> np.ndarray:
    """``op``-combination of one 1-D array per axis over the lattice they
    span, flattened x-fastest."""
    out = per_axis[0]
    for v in per_axis[1:]:
        out = op.outer(v, out).ravel()
    return out


def _kron(per_axis) -> sp.csr_matrix:
    """Sparse Kronecker product of one small dense matrix per axis, on
    lattices flattened x-fastest: the matrix twin of :func:`_lattice`, which
    combines the factors' nonzeros into the product's entries."""
    rows, cols = zip(*(np.nonzero(m) for m in per_axis))
    n_rows, n_cols = np.array([m.shape for m in per_axis]).T
    vals = [m[r, c] for m, r, c in zip(per_axis, rows, cols)]
    return sp.csr_matrix(
        (_lattice(np.multiply, vals),
         (_lattice(np.add, [r * s for r, s in zip(rows, _strides(n_rows))]),
          _lattice(np.add, [c * s for c, s in zip(cols, _strides(n_cols))]))),
        shape=(n_rows.prod(), n_cols.prod()))


def _multi_index(flat, shape) -> np.ndarray:
    """Per-axis indices ``(..., len(shape))`` of x-fastest flat indices."""
    return np.stack(np.unravel_index(flat, shape, order="F"), axis=-1)


def _flat_index(multi, shape) -> np.ndarray:
    """x-fastest flat indices of per-axis indices ``(..., len(shape))``."""
    return np.ravel_multi_index(tuple(np.moveaxis(np.asarray(multi), -1, 0)),
                                shape, order="F")


class BoxGrid:
    """Axis-aligned box with a uniform structured grid.

    Immutable after construction; all derived arrays are read-only views.
    """

    def __init__(self, extents, cells_per_axis):
        if isinstance(extents, str):
            raise ValueError(f"extents must be a list of numbers, got {extents!r}")
        extents = tuple(float(e) for e in extents)
        cells = _counts(cells_per_axis, "cells")
        if len(extents) not in (2, 3) or len(extents) != len(cells):
            raise ValueError(
                f"expected 2 or 3 matching extents/cells, got {extents} / {cells}"
            )
        if not all(0.0 < e < np.inf for e in extents):
            raise ValueError(f"extents must be positive and finite, got {extents}")
        if any(c < 2 for c in cells):
            raise ValueError(f"need at least 2 cells per axis, got {cells}")

        self.extents = extents
        self.cells_per_axis = cells
        self.spacing = tuple(e / c for e, c in zip(extents, cells))
        self.nodes_per_axis = tuple(c + 1 for c in cells)
        self.dim = len(extents)
        self.n_nodes = int(np.prod(self.nodes_per_axis))
        self.n_cells = int(np.prod(cells))
        # 2*axis + side, side 0 = low, 1 = high
        self.boundary_faces = tuple(range(2 * self.dim))

        self._build_node_tables()

    # -- construction helpers -------------------------------------------------

    def _build_node_tables(self):
        """The boundary tables, each combined by :func:`_lattice` from one
        1-D array per axis."""
        npa = self.nodes_per_axis
        ends = [np.isin(np.arange(n), (0, n - 1)) for n in npa]
        on_boundary = _lattice(np.logical_or, ends)
        self.boundary_nodes = np.flatnonzero(on_boundary)
        self.interior_nodes = np.flatnonzero(~on_boundary)
        self.n_boundary = self.boundary_nodes.size
        self.n_interior = self.interior_nodes.size

        # owning face: the lowest id among the touching faces (2 * dim: none)
        face_ids = [np.where(e, 2 * a + (np.arange(e.size) > 0), 2 * self.dim)
                    for a, e in enumerate(ends)]
        self.boundary_face = _lattice(np.minimum, face_ids)[self.boundary_nodes]

        # every touching face adds its patch measure, the trapezoid rule's
        # node weight over the other axes
        patch = [h * _trapezoid(n) for h, n in zip(self.spacing, npa)]
        weights = sum(_lattice(np.multiply,
                               [ends[t] * 1.0 if t == a else patch[t]
                                for t in range(self.dim)])
                      for a in range(self.dim))
        self.boundary_weights = weights[self.boundary_nodes]

        # boundary position of a flat node index, -1 for interior
        pos = np.full(self.n_nodes, -1, dtype=np.int64)
        pos[self.boundary_nodes] = np.arange(self.n_boundary)
        self.boundary_position = pos

        for arr in (
            self.boundary_nodes,
            self.interior_nodes,
            self.boundary_face,
            self.boundary_weights,
            self.boundary_position,
        ):
            arr.setflags(write=False)

    # -- identity --------------------------------------------------------------

    @property
    def key(self):
        """Hashable identity used by caches and compatibility checks."""
        return (self.extents, self.cells_per_axis)

    def __repr__(self):
        return f"BoxGrid(extents={self.extents}, cells_per_axis={self.cells_per_axis})"

    def content_hash(self) -> str:
        return hashlib.sha1(repr(self.key).encode()).hexdigest()[:12]

    # -- coordinate/index arithmetic -------------------------------------------

    def node_strides(self):
        """Flat-index strides per axis (x-fastest layout)."""
        return _strides(self.nodes_per_axis)

    def node_multi_index(self, flat):
        """Per-axis indices ``(..., dim)`` of the given flat node indices."""
        return _multi_index(flat, self.nodes_per_axis)

    def node_index(self, multi):
        """Flat indices of the per-axis node indices ``(..., dim)``; the
        inverse of :meth:`node_multi_index`."""
        return _flat_index(multi, self.nodes_per_axis)

    def node_coordinates(self, flat):
        """Physical coordinates of the given flat node indices, shape (..., dim)."""
        mi = self.node_multi_index(flat)
        return mi * np.asarray(self.spacing)

    def all_node_coordinates(self):
        return self.node_coordinates(np.arange(self.n_nodes))

    def cell_multi_index(self, flat):
        """Per-axis indices ``(..., dim)`` of the given flat cell indices."""
        return _multi_index(flat, self.cells_per_axis)

    def cell_index(self, multi):
        """Flat indices of the per-axis cell indices ``(..., dim)``; the
        inverse of :meth:`cell_multi_index`."""
        return _flat_index(multi, self.cells_per_axis)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def top_face(self) -> int:
        """Face id of the acquisition surface (low side of the last axis)."""
        return 2 * (self.dim - 1)

    def nearest_boundary_node(self, point):
        """Snap a physical point to the nearest grid node and report it.

        Returns ``(flat_index, distance)``. Raises ValueError if the point
        lies more than h_a/2 from its snapped node on some axis a (it is off
        the box, or not finite), or if the snapped node is not a boundary
        node (the point is too deep inside the domain).
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates")
        # a rounded index outside the node range is more than h_a/2 away
        # from every node on that axis; NaN fails the comparison too
        mi = np.rint(point / np.asarray(self.spacing))
        if not np.all((mi >= 0) & (mi < self.nodes_per_axis)):
            raise ValueError(
                f"point {tuple(point)} lies more than h/2 off the box "
                f"{self.extents}")
        flat = int(self.node_index(mi.astype(np.int64)))
        dist = float(np.linalg.norm(self.node_coordinates(flat) - point))
        if self.boundary_position[flat] < 0:
            raise ValueError(f"point {tuple(point)} does not lie on the boundary")
        return flat, dist


class CubicalPartition:
    """Axis-aligned block decomposition of a :class:`BoxGrid` into N subdomains.

    Blocks are contiguous runs of whole grid cells per axis; subdomain indices
    are flattened x-fastest over the block lattice.
    """

    def __init__(self, grid: BoxGrid, widths_per_axis):
        self.grid = grid
        widths = tuple(_counts(ws, "block widths") for ws in widths_per_axis)
        if len(widths) != grid.dim:
            raise ValueError("one width list per axis required")
        for a, ws in enumerate(widths):
            if any(w < 1 for w in ws):
                raise ValueError(f"axis {a}: block widths must be >= 1, got {ws}")
            if sum(ws) != grid.cells_per_axis[a]:
                raise ValueError(
                    f"axis {a}: widths {ws} do not cover {grid.cells_per_axis[a]} cells"
                )
        self.widths_per_axis = widths
        self.blocks_per_axis = tuple(len(ws) for ws in widths)
        self.n_subdomains = int(np.prod(self.blocks_per_axis))

        # per axis, the flat-index step of the block holding each cell
        self.cell_to_subdomain = _lattice(np.add, [
            np.repeat(np.arange(len(ws), dtype=np.int64) * s, ws)
            for ws, s in zip(widths, _strides(self.blocks_per_axis))])

        lengths = [np.asarray(ws, dtype=float) * grid.spacing[a]
                   for a, ws in enumerate(widths)]
        self.subdomain_volumes = _lattice(np.multiply, lengths)
        self.r0 = float(min(min(lg) for lg in lengths))

        self.cell_to_subdomain.setflags(write=False)
        self.subdomain_volumes.setflags(write=False)

    @property
    def key(self):
        return (self.grid.key, self.widths_per_axis)

    def __repr__(self):
        return (
            f"CubicalPartition(N={self.n_subdomains}, "
            f"blocks_per_axis={self.blocks_per_axis}, r0={self.r0:.6g})"
        )


def build_grid(extents, cells_per_axis) -> BoxGrid:
    """Construct the computational grid for a rectangular domain."""
    return BoxGrid(extents, cells_per_axis)


def _split_cells(cells: int, blocks: int):
    """Partition ``cells`` into ``blocks`` contiguous widths.

    Non-divisible counts put the extra cell on the leading blocks, so widths
    differ by at most one (``numpy.array_split`` semantics).
    """
    base, rem = divmod(cells, blocks)
    return tuple([base + 1] * rem + [base] * (blocks - rem))


def build_partition(grid: BoxGrid, blocks_per_axis) -> CubicalPartition:
    """Decompose the domain into an axis-aligned lattice of blocks."""
    blocks = _counts(blocks_per_axis, "block counts")
    if len(blocks) != grid.dim:
        raise ValueError(f"need {grid.dim} block counts, got {blocks}")
    if any(b < 1 for b in blocks):
        raise ValueError(f"block counts must be >= 1, got {blocks}")
    for a, b in enumerate(blocks):
        if b > grid.cells_per_axis[a]:
            raise ValueError(
                f"axis {a}: {b} blocks exceed {grid.cells_per_axis[a]} cells"
            )
    widths = tuple(_split_cells(grid.cells_per_axis[a], blocks[a])
                   for a in range(grid.dim))
    return CubicalPartition(grid, widths)

