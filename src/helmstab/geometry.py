"""Rectangular domains, structured grids, and cubical domain partitions.

Conventions used everywhere downstream:

* Axes are ordered (x, y) in 2D and (x, y, z) in 3D; the last axis plays the
  role of depth, so the "top" boundary face is the low side of the last axis.
* Nodes and cells are flattened x-fastest:
  ``flat = ix + nx * (iy + ny * iz)``.
* Each boundary node is owned by exactly one face. Nodes on edges/corners are
  assigned to the touching face with the lowest axis index; the owning face
  (``BoxGrid.boundary_face``) fixes the node's outward normal. Boundary
  quadrature weights are geometric (the node's trapezoidal patch measure
  summed over *all* touching faces), so the weights sum to |dOmega| exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "BoxGrid",
    "CubicalPartition",
    "build_grid",
    "build_partition",
]


def _counts(values, what: str) -> tuple:
    """``values`` as a tuple of ints. A fractional, non-finite or non-numeric
    entry is a ValueError, never truncated."""
    values = tuple(values)
    try:
        floats = [float(v) for v in values]
    except (TypeError, ValueError):
        floats = [np.nan]
    if not all(f.is_integer() for f in floats):
        raise ValueError(f"{what} must be whole numbers, got {values}")
    return tuple(int(f) for f in floats)


def _as_flat(a: np.ndarray) -> np.ndarray:
    """Flatten a lattice-shaped array in the package's x-fastest order."""
    return np.ravel(a, order="F")


class BoxGrid:
    """Axis-aligned box with a uniform structured grid.

    Immutable after construction; all derived arrays are read-only views.
    """

    def __init__(self, extents, cells_per_axis):
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
        dim = self.dim
        npa = self.nodes_per_axis
        idx = np.indices(npa)  # shape (dim, *npa)
        on_low = [idx[a] == 0 for a in range(dim)]
        on_high = [idx[a] == npa[a] - 1 for a in range(dim)]
        on_face = [on_low[a] | on_high[a] for a in range(dim)]

        is_boundary = np.zeros(npa, dtype=bool)
        for a in range(dim):
            is_boundary |= on_face[a]

        flat_boundary = _as_flat(is_boundary)
        self.boundary_nodes = np.flatnonzero(flat_boundary)
        self.interior_nodes = np.flatnonzero(~flat_boundary)
        self.n_boundary = self.boundary_nodes.size
        self.n_interior = self.interior_nodes.size

        # owning face: lowest axis index among the touching faces
        owner = np.full(npa, -1, dtype=np.int8)
        for a in reversed(range(dim)):
            owner[on_high[a]] = 2 * a + 1
            owner[on_low[a]] = 2 * a
        self.boundary_face = _as_flat(owner)[self.boundary_nodes].astype(np.int64)

        # patch measure summed over every touching face
        h = self.spacing
        weights = np.zeros(npa)
        for a in range(dim):
            tang = [t for t in range(dim) if t != a]
            w_face = np.ones(npa)
            for t in tang:
                edge = on_face[t]
                w_face = w_face * np.where(edge, 0.5 * h[t], h[t])
            weights += np.where(on_face[a], w_face, 0.0)
        self.boundary_weights = _as_flat(weights)[self.boundary_nodes]

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

    def __eq__(self, other):
        return isinstance(other, BoxGrid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"BoxGrid(extents={self.extents}, cells_per_axis={self.cells_per_axis})"

    def content_hash(self) -> str:
        return hashlib.sha1(repr(self.key).encode()).hexdigest()[:12]

    # -- coordinate/index arithmetic -------------------------------------------

    def node_strides(self):
        """Flat-index strides per axis (x-fastest layout)."""
        strides = [1]
        for n in self.nodes_per_axis[:-1]:
            strides.append(strides[-1] * n)
        return tuple(strides)

    def node_multi_index(self, flat):
        flat = np.asarray(flat)
        out = np.empty(flat.shape + (self.dim,), dtype=np.int64)
        rem = flat
        for a, n in enumerate(self.nodes_per_axis):
            out[..., a] = rem % n
            rem = rem // n
        return out

    def node_coordinates(self, flat):
        """Physical coordinates of the given flat node indices, shape (..., dim)."""
        mi = self.node_multi_index(flat)
        return mi * np.asarray(self.spacing)

    def all_node_coordinates(self):
        return self.node_coordinates(np.arange(self.n_nodes))

    def cell_multi_index(self, flat):
        flat = np.asarray(flat)
        out = np.empty(flat.shape + (self.dim,), dtype=np.int64)
        rem = flat
        for a, n in enumerate(self.cells_per_axis):
            out[..., a] = rem % n
            rem = rem // n
        return out

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def top_face(self) -> int:
        """Face id of the acquisition surface (low side of the last axis)."""
        return 2 * (self.dim - 1)

    def face_axis_side(self, face):
        return face // 2, face % 2

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
        flat = int(np.dot(mi.astype(np.int64), self.node_strides()))
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

        # per-axis map: cell index -> block index
        cell_to_block = [
            np.repeat(np.arange(len(ws), dtype=np.int64), ws) for ws in widths
        ]
        mesh = np.meshgrid(*cell_to_block, indexing="ij")
        sub = np.zeros(grid.cells_per_axis, dtype=np.int64)
        mult = 1
        for a in range(grid.dim):
            sub += mesh[a] * mult
            mult *= self.blocks_per_axis[a]
        self.cell_to_subdomain = _as_flat(sub)

        lengths = [np.asarray(ws, dtype=float) * grid.spacing[a]
                   for a, ws in enumerate(widths)]
        vol = lengths[0]
        for a in range(1, grid.dim):
            vol = np.multiply.outer(lengths[a], vol).reshape(-1)  # keeps x-fastest
        self.subdomain_volumes = vol
        self.r0 = float(min(min(lg) for lg in lengths))

        self.cell_to_subdomain.setflags(write=False)
        self.subdomain_volumes.setflags(write=False)

    @property
    def key(self):
        return (self.grid.key, self.widths_per_axis)

    def __eq__(self, other):
        return isinstance(other, CubicalPartition) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

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

