"""Coefficient-to-data forward map: Gaussian boundary sources, block
Dirichlet solves, and the sampled discrete Dirichlet-to-Neumann data.

The data matrix holds, per source, the outward normal derivative of the
wavefield sampled at the receiver nodes. The data-space distance between two
data sets is a weighted l2 operator norm: the largest singular value of the
difference matrix with source/receiver boundary-quadrature weighting (the
Sobolev-dual operator norm is out of reach on sampled data; the gap is
absorbed into fitted constants, and the choice is recorded in metadata as
``norm="weighted-l2-opnorm"``).
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import WindowViolationError
from .geometry import BoxGrid
from .model import SquaredSlownessModel, _read_exact, to_cell_field
from .solver import assemble, normal_derivative, solve_absorbing, solve_dirichlet
from .spectrum import frequency_safety, windows_covering

__all__ = [
    "Acquisition",
    "DtnData",
    "gaussian_source",
    "make_acquisition",
    "forward_map",
    "dtn_operator_norm",
    "weighted_operator_norm",
    "weighted_frobenius",
    "write_dtn",
    "read_dtn",
    "export_trace_csv",
]

NORM_KIND = "weighted-l2-opnorm"

MODE_FULL = "full"
MODE_TOP = "top"

_DTN_MAGIC = b"HSDT"
_DTN_VERSION = 1

# Sources per block solve. One factorization solve on 8 stacked right-hand
# sides costs about a third of 8 single solves at 128^2; wider blocks gain
# little more, and every column is a full-grid field held in memory (solving
# all 60 sources of a 128^2 campaign at once raised its peak memory by 11%).
_BLOCK = 8


def _blocks(n: int):
    """Consecutive slices of at most ``_BLOCK`` items covering ``range(n)``."""
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


def _gaussians(grid: BoxGrid, positions, sigma) -> np.ndarray:
    """Gaussian boundary data centred at ``positions``, one column each."""
    return np.column_stack([gaussian_source(grid, pos, sigma) for pos in positions])


@dataclass(frozen=True)
class Acquisition:
    """Boundary source/receiver layout with quadrature weights.

    Positions are snapped to boundary nodes (snap distance <= h/2 per axis);
    the stored index arrays point into the grid's canonical boundary-node
    ordering.
    """

    grid: BoxGrid
    mode: str
    source_idx: np.ndarray      # indices into grid.boundary_nodes ordering
    receiver_idx: np.ndarray
    source_sigma: float
    top_face: int

    def __post_init__(self):
        for name in ("source_idx", "receiver_idx"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.size == 0:
                raise ValueError(f"{name}: empty lattice")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.mode not in (MODE_FULL, MODE_TOP):
            raise ValueError(f"unknown acquisition mode {self.mode!r}")
        if self.mode == MODE_TOP:
            faces = self.grid.boundary_face
            for name in ("source_idx", "receiver_idx"):
                if np.any(faces[getattr(self, name)] != self.top_face):
                    raise ValueError(f"{name}: positions stray off the top face")

    @property
    def n_sources(self) -> int:
        return self.source_idx.size

    @property
    def n_receivers(self) -> int:
        return self.receiver_idx.size

    @property
    def source_positions(self) -> np.ndarray:
        return self.grid.node_coordinates(self.grid.boundary_nodes[self.source_idx])

    @property
    def receiver_positions(self) -> np.ndarray:
        return self.grid.node_coordinates(self.grid.boundary_nodes[self.receiver_idx])

    @property
    def source_weights(self) -> np.ndarray:
        return self.grid.boundary_weights[self.source_idx]

    @property
    def receiver_weights(self) -> np.ndarray:
        """Per-receiver boundary measure (m^(dim-1))."""
        return self.grid.boundary_weights[self.receiver_idx]

    def compat_key(self):
        return (self.grid.key, self.mode, self.source_idx.tobytes(),
                self.receiver_idx.tobytes())


@dataclass(frozen=True)
class DtnData:
    """Per-source boundary normal-derivative samples (discrete DtN data)."""

    acquisition: Acquisition
    omega2: float
    values: np.ndarray          # (n_sources, n_receivers)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values)
        expected = (self.acquisition.n_sources, self.acquisition.n_receivers)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        if not np.all(np.isfinite(values)):
            raise ValueError("DtN data contains non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def gaussian_source(grid: BoxGrid, center, sigma: float) -> np.ndarray:
    """Gaussian boundary data of unit peak centred at a boundary point.

    The center is snapped to the nearest boundary node; the profile
    ``exp(-|x - center|^2 / (2 sigma^2))`` is evaluated on the nodes owned by
    the face containing the snapped center and is zero elsewhere.
    """
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    center = np.asarray(center, dtype=float)
    hmax = max(grid.spacing)
    edge_gap = min(
        min(abs(center[a]), abs(grid.extents[a] - center[a]))
        for a in range(grid.dim)
    )
    if edge_gap > 0.5 * hmax:
        raise ValueError(f"center {tuple(center)} is not on the boundary")
    flat, _snap = grid.nearest_boundary_node(center)
    bpos = grid.boundary_position[flat]
    face = int(grid.boundary_face[bpos])
    if sigma < hmax:
        warnings.warn(
            f"sigma={sigma:g} below grid spacing {hmax:g}: source is "
            "under-resolved",
            stacklevel=2,
        )
    snapped = grid.node_coordinates(flat)
    coords = grid.node_coordinates(grid.boundary_nodes)
    g = np.zeros(grid.n_boundary)
    mask = grid.boundary_face == face
    d2 = np.sum((coords[mask] - snapped) ** 2, axis=1)
    g[mask] = np.exp(-d2 / (2.0 * sigma * sigma))
    return g


def _resolve_spacing(spacing, dim):
    if np.isscalar(spacing):
        return tuple(float(spacing) for _ in range(dim))
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != dim:
        raise ValueError(f"need one spacing per axis ({dim}), got {spacing}")
    return spacing


def _face_lattice(grid: BoxGrid, face: int, spacing) -> np.ndarray:
    """Flat node indices of a regular interior lattice on one face."""
    axis, side = grid.face_axis_side(face)
    strides = grid.node_strides()
    tang = [t for t in range(grid.dim) if t != axis]
    per_axis = []
    for t in tang:
        sp_t = spacing[t]
        h_t = grid.spacing[t]
        if sp_t < h_t:
            raise ValueError(
                f"axis {t}: spacing {sp_t:g} finer than grid spacing {h_t:g}"
            )
        n = int(np.floor(grid.extents[t] / sp_t - 1e-9))
        if n < 1:
            return np.empty(0, dtype=np.int64)
        ks = np.arange(1, n + 1) * sp_t
        idx = np.clip(np.rint(ks / h_t).astype(np.int64), 1,
                      grid.nodes_per_axis[t] - 2)
        per_axis.append(np.unique(idx))
    flats = []
    base = 0 if side == 0 else (grid.nodes_per_axis[axis] - 1) * strides[axis]
    for combo in product(*per_axis):
        flat = base
        for t, it in zip(tang, combo):
            flat += it * strides[t]
        flats.append(flat)
    return np.asarray(sorted(flats), dtype=np.int64)


def make_acquisition(grid: BoxGrid, mode: str, source_spacing, receiver_spacing,
                     sigma: float, top_face: int | None = None) -> Acquisition:
    """Regular source/receiver lattices per face.

    Full mode places an interior lattice on every face; top mode only on the
    designated top face (default: low side of the last axis). Spacings are in
    meters, scalar or per (global) axis.
    """
    if mode not in (MODE_FULL, MODE_TOP):
        raise ValueError(f"unknown acquisition mode {mode!r}")
    top = grid.top_face() if top_face is None else int(top_face)
    src_sp = _resolve_spacing(source_spacing, grid.dim)
    rec_sp = _resolve_spacing(receiver_spacing, grid.dim)
    faces = (grid.boundary_faces if mode == MODE_FULL else (top,))

    def lattice(spacing):
        flats = [_face_lattice(grid, f, spacing) for f in faces]
        flats = np.unique(np.concatenate(flats)) if flats else np.empty(0, int)
        idx = grid.boundary_position[flats]
        if np.any(idx < 0):
            raise ValueError("lattice produced a non-boundary node")
        return idx

    src = lattice(src_sp)
    rec = lattice(rec_sp)
    if src.size == 0 or rec.size == 0:
        raise ValueError("empty source or receiver lattice for these spacings")
    return Acquisition(grid=grid, mode=mode, source_idx=src, receiver_idx=rec,
                       source_sigma=float(sigma), top_face=top)


# -- the forward map ---------------------------------------------------------------

def forward_map(model: SquaredSlownessModel, omega2: float, acq: Acquisition,
                *, override_window_check: bool = False,
                absorbing: bool = False) -> DtnData:
    """Discrete DtN data for one model: F_omega(c^-2) sampled on the acquisition.

    Row s holds the outward normal derivative of the solution driven by the
    Gaussian source s, sampled at the receiver nodes. Sources are solved in
    blocks of 8 columns, so only one block of full-grid fields is alive at a
    time. Deterministic for fixed inputs.
    """
    grid = acq.grid
    if grid.key != model.grid.key:
        raise ValueError("acquisition and model live on different grids")
    omega2 = float(omega2)
    if not override_window_check:
        safety = frequency_safety(
            omega2, windows_covering(grid.extents, *model.bounds, omega2=omega2)
        )
        if not safety.inside:
            raise WindowViolationError(
                f"omega^2={omega2:.9g} outside every admissible window; nearest "
                f"window {safety.nearest_window} at distance "
                f"{safety.nearest_distance:.3g} (use the override to force)"
            )

    coeff = to_cell_field(model)
    if absorbing:
        if acq.mode != MODE_TOP:
            raise ValueError("absorbing boundaries only apply to top-only mode")
        values = np.empty((acq.n_sources, acq.n_receivers), dtype=complex)

        def solve(g):
            return solve_absorbing(grid, coeff, omega2, g, acq.top_face)
    else:
        sys_ = assemble(grid, coeff, omega2)
        values = np.empty((acq.n_sources, acq.n_receivers))

        def solve(g):
            return solve_dirichlet(sys_, g)

    positions = acq.source_positions
    for block in _blocks(acq.n_sources):
        u = solve(_gaussians(grid, positions[block], acq.source_sigma))
        values[block] = normal_derivative(grid, u)[acq.receiver_idx].T

    meta = {
        "absorbing": bool(absorbing),
        "model_hash": model.content_hash(),
        "grid_hash": grid.content_hash(),
        "norm": NORM_KIND,
    }
    return DtnData(acquisition=acq, omega2=omega2, values=values, metadata=meta)


def _check_compatible(d1: DtnData, d2: DtnData):
    if d1.acquisition.compat_key() != d2.acquisition.compat_key():
        raise ValueError("data sets use different acquisitions")
    if d1.omega2 != d2.omega2:
        raise ValueError("data sets use different frequencies")


def _weighted_difference(d1: DtnData, d2: DtnData) -> np.ndarray:
    acq = d1.acquisition
    diff = d1.values - d2.values
    sw = np.sqrt(acq.source_weights)
    rw = np.sqrt(acq.receiver_weights)
    return sw[:, None] * diff * rw[None, :]


def weighted_operator_norm(values: np.ndarray, acq: Acquisition) -> float:
    """Largest singular value of a data-shaped matrix under quadrature weights."""
    values = np.asarray(values)
    if values.shape != (acq.n_sources, acq.n_receivers):
        raise ValueError("matrix shape does not match the acquisition")
    b = (np.sqrt(acq.source_weights)[:, None] * values
         * np.sqrt(acq.receiver_weights)[None, :])
    if not np.any(b):
        return 0.0
    return float(np.linalg.svd(b, compute_uv=False)[0])


def dtn_operator_norm(d1: DtnData, d2: DtnData) -> float:
    """Largest singular value of the quadrature-weighted data difference."""
    _check_compatible(d1, d2)
    return weighted_operator_norm(d1.values - d2.values, d1.acquisition)


def weighted_frobenius(d1: DtnData, d2: DtnData) -> float:
    """Quadrature-weighted Frobenius norm (secondary, for reports)."""
    _check_compatible(d1, d2)
    return float(np.linalg.norm(_weighted_difference(d1, d2)))


# -- serialization ------------------------------------------------------------------

def write_dtn(path, data: DtnData, magic: bytes = _DTN_MAGIC):
    """Binary DtN data dump (little-endian).

    Layout: magic(4s) version(u16) dim(u8) mode(u8) flags(u8: bit0 complex)
    omega2(f64) sigma(f64) n_src(u32) n_rec(u32) cells(u32 x dim)
    extents(f64 x dim) model_hash(12s) grid_hash(12s), then source positions,
    receiver positions, source weights, receiver weights and the row-major
    value matrix, all f64 (complex values interleave re/im).
    """
    acq = data.acquisition
    grid = acq.grid
    is_complex = np.iscomplexobj(data.values)
    mode_code = 0 if acq.mode == MODE_FULL else 1
    head = magic + struct.pack(
        "<HBBBddII", _DTN_VERSION, grid.dim, mode_code, 1 if is_complex else 0,
        data.omega2, acq.source_sigma, acq.n_sources, acq.n_receivers,
    )
    head += struct.pack(f"<{grid.dim}I", *grid.cells_per_axis)
    head += struct.pack(f"<{grid.dim}d", *grid.extents)
    head += data.metadata.get("model_hash", "?" * 12).encode()[:12].ljust(12)
    head += data.metadata.get("grid_hash", "?" * 12).encode()[:12].ljust(12)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(acq.source_positions.astype("<f8").tobytes())
        fh.write(acq.receiver_positions.astype("<f8").tobytes())
        fh.write(acq.source_weights.astype("<f8").tobytes())
        fh.write(acq.receiver_weights.astype("<f8").tobytes())
        if is_complex:
            fh.write(data.values.astype("<c16").tobytes())
        else:
            fh.write(data.values.astype("<f8").tobytes())


def read_dtn(path, magic: bytes = _DTN_MAGIC) -> DtnData:
    """Read a binary DtN dump, rebuilding the grid and acquisition.

    A truncated file raises ValueError.
    """
    with open(path, "rb") as fh:
        def read(size, what="header"):
            return _read_exact(fh, size, path, what)

        got = fh.read(4)
        if got != magic:
            raise ValueError(f"{path}: bad magic {got!r}, expected {magic!r}")
        version, dim, mode_code, flags, omega2, sigma, n_src, n_rec = \
            struct.unpack("<HBBBddII", read(struct.calcsize("<HBBBddII")))
        if version != _DTN_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        cells = struct.unpack(f"<{dim}I", read(4 * dim))
        extents = struct.unpack(f"<{dim}d", read(8 * dim))
        model_hash = read(12).decode(errors="replace").strip()
        grid_hash = read(12).decode(errors="replace").strip()
        src_pos = np.frombuffer(read(8 * n_src * dim, "source positions"),
                                "<f8").reshape(n_src, dim)
        rec_pos = np.frombuffer(read(8 * n_rec * dim, "receiver positions"),
                                "<f8").reshape(n_rec, dim)
        # weights are derived from the grid on reload
        read(8 * (n_src + n_rec), "weights")
        if flags & 1:
            values = np.frombuffer(read(16 * n_src * n_rec, "values"), "<c16")
        else:
            values = np.frombuffer(read(8 * n_src * n_rec, "values"), "<f8")
        values = values.reshape(n_src, n_rec)

    grid = BoxGrid(extents, cells)

    def positions_to_idx(pos):
        flats = [grid.nearest_boundary_node(p)[0] for p in pos]
        return grid.boundary_position[np.asarray(flats, dtype=np.int64)]

    acq = Acquisition(
        grid=grid,
        mode=MODE_FULL if mode_code == 0 else MODE_TOP,
        source_idx=positions_to_idx(src_pos),
        receiver_idx=positions_to_idx(rec_pos),
        source_sigma=sigma,
        top_face=grid.top_face(),
    )
    meta = {"model_hash": model_hash, "grid_hash": grid_hash,
            "absorbing": bool(flags & 1), "norm": NORM_KIND}
    return DtnData(acquisition=acq, omega2=omega2, values=values, metadata=meta)


def export_trace_csv(data: DtnData, source_index: int, path):
    """One source's trace: receiver index, coordinates, and value columns."""
    acq = data.acquisition
    if not (0 <= source_index < acq.n_sources):
        raise ValueError(f"source index {source_index} out of range")
    pos = acq.receiver_positions
    row = data.values[source_index]
    is_complex = np.iscomplexobj(row)
    coord_names = ["x", "y", "z"][: acq.grid.dim]
    val_cols = ["value_re", "value_im"] if is_complex else ["value"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["receiver"] + coord_names + val_cols) + "\n")
        for r in range(acq.n_receivers):
            cols = [str(r)] + [f"{c:.17g}" for c in pos[r]]
            if is_complex:
                cols += [f"{row[r].real:.17g}", f"{row[r].imag:.17g}"]
            else:
                cols += [f"{row[r]:.17g}"]
            fh.write(",".join(cols) + "\n")
