"""Piecewise-constant squared-slowness models and their norms.

The unknown coefficient is the squared slowness ``c**-2`` in s^2/m^2,
represented by one value per subdomain of a :class:`CubicalPartition`.
Coarsening a gridded field onto a partition is the volume-weighted mean,
i.e. the L2-orthogonal projection onto the span of the block indicators.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import BoxGrid, CubicalPartition

__all__ = [
    "SquaredSlownessModel",
    "from_gridded_field",
    "l2_distance",
    "to_cell_field",
    "write_field",
    "read_field",
    "read_text_field",
    "wavespeed_to_squared_slowness",
    "squared_slowness_to_wavespeed",
    "two_layer_field",
    "linear_depth_field",
]

MAGIC = b"HSMD"
FORMAT_VERSION = 1
QUANTITY_WAVESPEED = 0      # stored values are c in m/s
QUANTITY_SQ_SLOWNESS = 1    # stored values are c**-2 in s^2/m^2


def _positive(values, what: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``what`` unless every
    value is positive and finite."""
    values = np.asarray(values, dtype=float)
    if not np.all((values > 0.0) & (values < np.inf)):
        raise ValueError(f"{what} must be positive and finite")
    return values


def _bounds(bounds) -> tuple:
    """The a priori bounds as floats (B1, B2); ValueError unless they are a
    pair of numbers, positive, ordered and finite."""
    try:
        low, high = (float(b) for b in bounds)
    except (TypeError, ValueError):
        raise ValueError(f"expected [B1, B2], got {bounds!r}") from None
    if not 0.0 < low <= high < np.inf:
        raise ValueError(f"need 0 < B1 <= B2 < inf, got {bounds}")
    return low, high


def wavespeed_to_squared_slowness(c):
    c = _positive(c, "wavespeed")
    return 1.0 / (c * c)


def squared_slowness_to_wavespeed(m):
    return 1.0 / np.sqrt(_positive(m, "squared slowness"))


@dataclass(frozen=True)
class SquaredSlownessModel:
    """Coefficient vector over a partition with a priori bounds (B1, B2)."""

    partition: CubicalPartition
    values: np.ndarray
    bounds: tuple[float, float]
    n_clamped: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.partition.n_subdomains,):
            raise ValueError(
                f"expected {self.partition.n_subdomains} values, got {values.shape}"
            )
        b1, b2 = _bounds(self.bounds)
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient values must be finite")
        if np.any(values < b1) or np.any(values > b2):
            raise ValueError("coefficient values violate the bounds [B1, B2]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", (b1, b2))

    @property
    def grid(self) -> BoxGrid:
        return self.partition.grid

    @property
    def n_subdomains(self) -> int:
        return self.partition.n_subdomains

    def content_hash(self) -> str:
        h = hashlib.sha1()
        h.update(repr(self.partition.key).encode())
        h.update(self.values.tobytes())
        return h.hexdigest()[:12]

    def perturbed(self, delta) -> "SquaredSlownessModel":
        """New model with ``delta`` added per subdomain (bounds re-validated)."""
        return SquaredSlownessModel(self.partition, self.values + np.asarray(delta),
                                    self.bounds)


def from_gridded_field(field, partition: CubicalPartition, bounds) -> SquaredSlownessModel:
    """Project a per-cell squared-slowness field onto the partition.

    Each coefficient is the volume-weighted mean of the field over its
    subdomain, clamped into [B1, B2]; the number of clamped subdomains is
    reported on the returned model as ``n_clamped``.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != (partition.grid.n_cells,):
        raise ValueError(
            f"field must have one value per cell ({partition.grid.n_cells}), "
            f"got shape {field.shape}"
        )
    _positive(field, "squared slowness")
    cellvol = partition.grid.cell_volume()
    sums = np.bincount(partition.cell_to_subdomain, weights=field,
                       minlength=partition.n_subdomains) * cellvol
    means = sums / partition.subdomain_volumes
    b1, b2 = _bounds(bounds)
    clamped = np.clip(means, b1, b2)
    n_clamped = int(np.count_nonzero(clamped != means))
    return SquaredSlownessModel(partition, clamped, (b1, b2), n_clamped=n_clamped)


def _check_same_partition(m1: SquaredSlownessModel, m2: SquaredSlownessModel):
    if m1.partition.key != m2.partition.key:
        raise ValueError("models live on different partitions")


def l2_distance(m1: SquaredSlownessModel, m2: SquaredSlownessModel) -> float:
    """L2(Omega) distance, exact for piecewise constants:
    sqrt(sum_j (c1_j - c2_j)^2 |D_j|)."""
    _check_same_partition(m1, m2)
    d = m1.values - m2.values
    return float(np.sqrt(np.sum(d * d * m1.partition.subdomain_volumes)))


def to_cell_field(m: SquaredSlownessModel) -> np.ndarray:
    """Expand the model to one value per grid cell (x-fastest order)."""
    return m.values[m.partition.cell_to_subdomain]


# -- file formats ---------------------------------------------------------------

def write_field(path, grid: BoxGrid, field, quantity=QUANTITY_SQ_SLOWNESS):
    """Write a per-cell field as a flat binary file.

    Layout (little-endian): magic ``HSMD``, version u16, dim u8, quantity u8
    (0: c in m/s, 1: c**-2 in s^2/m^2), cells_per_axis u32 per axis, extents
    f64 per axis, then the cell values as f64 in x-fastest order. The in-memory
    field is always squared slowness; quantity=0 converts on the way out.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.n_cells,):
        raise ValueError(f"field must have {grid.n_cells} values")
    if quantity == QUANTITY_WAVESPEED:
        stored = squared_slowness_to_wavespeed(field)
    elif quantity == QUANTITY_SQ_SLOWNESS:
        stored = field
    else:
        raise ValueError(f"unknown quantity flag {quantity}")
    header = MAGIC + struct.pack("<HBB", FORMAT_VERSION, grid.dim, quantity)
    header += struct.pack(f"<{grid.dim}I", *grid.cells_per_axis)
    header += struct.pack(f"<{grid.dim}d", *grid.extents)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(stored.astype("<f8").tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    """The next ``size`` bytes of a binary file; ValueError if fewer remain.

    The remaining length is checked before reading, so a corrupt header that
    claims a huge section fails cleanly instead of allocating for it.
    """
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > remaining:
        raise ValueError(
            f"{path}: truncated {what} ({remaining} of {size} bytes left)")
    return fh.read(size)


def read_field(path):
    """Read a binary field file; returns ``(field_c2, extents, cells_per_axis)``.

    The returned field is always squared slowness, regardless of the stored
    quantity flag. A truncated file raises ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, dim, quantity = struct.unpack(
            "<HBB", _read_exact(fh, 4, path, "header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        cells = struct.unpack(f"<{dim}I", _read_exact(fh, 4 * dim, path, "header"))
        extents = struct.unpack(f"<{dim}d",
                                _read_exact(fh, 8 * dim, path, "header"))
        n = math.prod(cells)   # exact: a corrupt count cannot wrap around
        stored = np.frombuffer(_read_exact(fh, 8 * n, path, "data section"),
                               dtype="<f8").astype(float)
    if quantity == QUANTITY_WAVESPEED:
        field = wavespeed_to_squared_slowness(stored)
    elif quantity == QUANTITY_SQ_SLOWNESS:
        field = stored
    else:
        raise ValueError(f"{path}: unknown quantity flag {quantity}")
    return field, extents, cells


def read_text_field(path, is_wavespeed=False):
    """Plain-text loader: one cell value per line, x-fastest order."""
    values = np.loadtxt(path, dtype=float, ndmin=1)
    if is_wavespeed:
        return wavespeed_to_squared_slowness(values)
    return values


# -- stock profile generators -----------------------------------------------------

def _cell_depths(grid: BoxGrid) -> np.ndarray:
    """Depth (last-axis cell-center coordinate) of every cell, x-fastest."""
    axis = grid.dim - 1
    h = grid.spacing[axis]
    centers = (np.arange(grid.cells_per_axis[axis]) + 0.5) * h
    reps_inner = int(np.prod(grid.cells_per_axis[:axis]))
    return np.repeat(centers, reps_inner)


def two_layer_field(grid: BoxGrid, v_top, v_bottom, interface_depth) -> np.ndarray:
    """Squared-slowness cell field of a two-layer wavespeed model.

    ``v_top``/``v_bottom`` are wavespeeds in m/s; the interface is a constant
    depth along the last axis (top face is depth 0).
    """
    depths = _cell_depths(grid)
    c = np.where(depths < interface_depth, float(v_top), float(v_bottom))
    return wavespeed_to_squared_slowness(c)


def linear_depth_field(grid: BoxGrid, v_top, v_bottom) -> np.ndarray:
    """Squared-slowness cell field with wavespeed linear in depth.

    A configurable stand-in for a one-dimensional background profile; the
    wavespeed ramps from ``v_top`` at depth 0 to ``v_bottom`` at the bottom.
    """
    depths = _cell_depths(grid)
    depth_max = grid.extents[grid.dim - 1]
    c = float(v_top) + (float(v_bottom) - float(v_top)) * depths / depth_max
    return wavespeed_to_squared_slowness(c)
