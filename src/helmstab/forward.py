"""Coefficient-to-data forward map: Gaussian boundary sources, block
Dirichlet solves, and the sampled discrete Dirichlet-to-Neumann data.

The data matrix holds, per source, the outward normal derivative of the
wavefield sampled at the receiver nodes. The data-space distance between two
data sets is a weighted l2 operator norm: the largest singular value of the
difference matrix with source/receiver boundary-quadrature weighting,
recorded in metadata as ``norm="weighted-l2-opnorm"``. The package reports
this norm; it does not compute the paper's H^{1/2} -> H^{-1/2} operator norm.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import BoxGrid
from .model import SquaredSlownessModel, _read_exact, to_cell_field
from .solver import (_check_omega2, assemble, normal_derivative, solve_counts,
                     solve_dirichlet)
from .spectrum import windows_covering  # unused here; benchmarks/spans.py traces this binding

__all__ = [
    "Acquisition",
    "DtnData",
    "gaussian_source",
    "make_acquisition",
    "forward_map",
    "dtn_operator_norm",
    "weighted_operator_norm",
    "write_dtn",
    "read_dtn",
    "export_trace_csv",
    "cache_info",
    "clear_caches",
]

NORM_KIND = "weighted-l2-opnorm"

MODE_FULL = "full"
MODE_TOP = "top"

_DTN_MAGIC = b"HSDT"
_DTN_VERSION = 2

# Sources per block solve. One factorization solve on 8 stacked right-hand
# sides costs about two thirds of 8 single solves at 128^2; blocks of 16 gain
# nothing more and blocks of 64 are slower, and every column is a full-grid
# field held in memory (solving all 60 sources of a 128^2 campaign at once
# raised its peak memory by 11%).
_BLOCK = 8


# DtN rows keyed by (grid.key, coefficient hash, omega2), least recently used
# first. An entry maps (source boundary index, source sigma) to the outward
# normal derivative of that source's field at every boundary node, n_boundary
# floats per source (about 240 kB for 60 sources at 128^2). A campaign cell
# needs the rows of its two models. In the benchmark campaigns a model's rows
# are needed again after at most 3 other distinct (model, omega2) entries (a
# 3D two-layer field that one scale does not align), so 4 entries keep every
# reuse. No system is kept: the one that solves the missing rows, with its LU,
# is freed when forward_map returns.
_STORE_SIZE = 4
_rows: OrderedDict = OrderedDict()
_counts = {"hits": 0, "misses": 0, "evictions": 0, "row_hits": 0,
           "row_misses": 0}


def cache_info() -> dict:
    """Hits, misses and evictions of the DtN row store's entries, the rows
    read from an entry (``row_hits``) or solved into one (``row_misses``),
    the LUs computed (``factorizations``, each eigensolve's pencil LU too)
    and the columns solved by CG (``cg_columns``) with the CG iterations of
    their block solves (``cg_iterations``), and the largest relative
    residual of a column that ``solver.solve_dirichlet`` accepted
    (``worst_residual``), since the last :func:`clear_caches`; and the
    store's live entry count."""
    return dict(_counts, **solve_counts, entries=len(_rows))


def clear_caches():
    """Empty the DtN row store and reset the counts, the solver's included."""
    _rows.clear()
    for counts in (_counts, solve_counts):
        counts.update(dict.fromkeys(counts, 0))


def _positive_width(value, name: str) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a number
    with 0 < value, 0 < 2 value^2 < inf and 1 / (2 value^2) < inf, so that a
    Gaussian of this width is neither 0/0 at its centre nor flat, and its
    exponent does not overflow next to the centre."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected a number, got {value!r}") from None
    square = 2.0 * value * value
    if not (0.0 < value and 0.0 < square < np.inf and 1.0 / square < np.inf):
        raise ValueError(f"{name} must be finite and positive with a finite "
                         f"nonzero square, got {value}")
    return value


def _blocks(n: int):
    """Consecutive slices of at most ``_BLOCK`` items covering ``range(n)``."""
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


@dataclass(frozen=True, eq=False)
class Acquisition:
    """Boundary source/receiver layout with quadrature weights.

    ``source_idx`` and ``receiver_idx`` index the grid's canonical
    boundary-node ordering (``grid.boundary_nodes``); every sample sits on a
    boundary node. In top mode every sample lies on ``grid.top_face()``.
    ``sources`` and ``receivers`` are the Gaussian boundary data of width
    ``source_sigma`` centred at each sample, one ``(n_boundary,)`` column per
    source or receiver; each is built with :func:`gaussian_source` on first
    use and kept, read-only, on the acquisition.
    """

    grid: BoxGrid
    mode: str
    source_idx: np.ndarray      # indices into grid.boundary_nodes ordering
    receiver_idx: np.ndarray
    source_sigma: float

    def __post_init__(self):
        if self.mode not in (MODE_FULL, MODE_TOP):
            raise ValueError(f"unknown acquisition mode {self.mode!r}")
        object.__setattr__(self, "source_sigma", _positive_width(
            self.source_sigma, "source_sigma"))
        faces, top = self.grid.boundary_face, self.grid.top_face()
        for name in ("source_idx", "receiver_idx"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.size == 0:
                raise ValueError(f"{name}: empty lattice")
            if np.any((arr < 0) | (arr >= self.grid.n_boundary)):
                raise ValueError(f"{name}: indices must lie in "
                                 f"[0, {self.grid.n_boundary})")
            if self.mode == MODE_TOP and np.any(faces[arr] != top):
                raise ValueError(f"{name}: positions stray off the top face")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _gaussian_columns(self, positions) -> np.ndarray:
        columns = np.column_stack([gaussian_source(self.grid, p, self.source_sigma)
                                   for p in positions])
        columns.setflags(write=False)
        return columns

    @cached_property
    def sources(self) -> np.ndarray:
        """``(n_boundary, n_sources)`` Gaussian boundary data, column s
        centred at source s."""
        return self._gaussian_columns(self.source_positions)

    @cached_property
    def receivers(self) -> np.ndarray:
        """``(n_boundary, n_receivers)`` Gaussian boundary data of width
        ``source_sigma``, column r centred at receiver r (the receiver
        functionals of the pairing convention)."""
        return self._gaussian_columns(self.receiver_positions)

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
        """Each source node's own boundary patch measure, about h^(dim-1)
        (m^(dim-1)), not the measure its lattice spacing stands for; so the
        data norms scale like h and ``c_est`` like 1/h across grids."""
        return self.grid.boundary_weights[self.source_idx]

    @property
    def receiver_weights(self) -> np.ndarray:
        """Each receiver node's own boundary patch measure, about h^(dim-1)
        (m^(dim-1)); see :attr:`source_weights`."""
        return self.grid.boundary_weights[self.receiver_idx]

    @cached_property
    def data_weights(self) -> np.ndarray:
        """``sqrt(w_s w_r)`` per (source, receiver) entry: the data norms and
        the Jacobian's smallest singular value act on the data matrix scaled
        entrywise by these weights. Built on first use and kept, read-only,
        like :attr:`sources`."""
        weights = np.sqrt(np.outer(self.source_weights, self.receiver_weights))
        weights.setflags(write=False)
        return weights

    def compat_key(self):
        return (self.grid.key, self.mode, self.source_idx.tobytes(),
                self.receiver_idx.tobytes())


@dataclass(frozen=True, eq=False)
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

    The center is snapped to the nearest boundary node
    (:meth:`BoxGrid.nearest_boundary_node`, which rejects a center off the
    box or off the boundary); the profile
    ``exp(-|x - center|^2 / (2 sigma^2))`` is evaluated on the nodes owned by
    the face containing the snapped center and is zero elsewhere.
    """
    sigma = _positive_width(sigma, "sigma")
    flat, _snap = grid.nearest_boundary_node(center)
    bpos = grid.boundary_position[flat]
    face = int(grid.boundary_face[bpos])
    hmax = max(grid.spacing)
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
    # exp(-x) is 0 from x = 746 on, so capping the quotient at 1500 changes
    # no value and keeps it finite however small sigma is
    square = 2.0 * sigma * sigma
    g[mask] = np.exp(-np.minimum(d2, 1500.0 * square) / square)
    return g


def _resolve_spacing(spacing, dim):
    if np.isscalar(spacing):
        spacing = (spacing,) * dim
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != dim:
        raise ValueError(f"need one spacing per axis ({dim}), got {spacing}")
    if not np.all(np.isfinite(spacing)):
        raise ValueError(f"spacings must be finite, got {spacing}")
    return spacing


def _face_lattice(grid: BoxGrid, face: int, spacing) -> np.ndarray:
    """Flat node indices of a regular interior lattice on one face, sorted."""
    axis, side = divmod(face, 2)
    per_axis = [[0 if side == 0 else grid.nodes_per_axis[axis] - 1]] * grid.dim
    for t in range(grid.dim):
        if t == axis:
            continue
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
        per_axis[t] = np.unique(idx)
    mesh = np.stack(np.meshgrid(*per_axis, indexing="ij"), axis=-1)
    return np.sort(grid.node_index(mesh), axis=None)


def make_acquisition(grid: BoxGrid, mode: str, source_spacing, receiver_spacing,
                     sigma: float) -> Acquisition:
    """Regular source/receiver lattices per face.

    Full mode places an interior lattice on every face; top mode only on the
    top face (the low side of the last axis). Spacings are in meters, scalar
    or per (global) axis.
    """
    faces = grid.boundary_faces if mode == MODE_FULL else (grid.top_face(),)

    def lattice(spacing):
        spacing = _resolve_spacing(spacing, grid.dim)
        flats = np.concatenate([_face_lattice(grid, f, spacing) for f in faces])
        return grid.boundary_position[np.unique(flats)]

    return Acquisition(grid=grid, mode=mode, source_idx=lattice(source_spacing),
                       receiver_idx=lattice(receiver_spacing), source_sigma=sigma)


# -- the forward map ---------------------------------------------------------------

def _check_grid(model: SquaredSlownessModel, acq: Acquisition):
    if acq.grid.key != model.grid.key:
        raise ValueError("acquisition and model live on different grids")


def forward_map(model: SquaredSlownessModel, omega2: float,
                acq: Acquisition) -> DtnData:
    """Discrete DtN data for one model: F_omega(c^-2) sampled on the acquisition.

    Row s holds the outward normal derivative of the solution driven by the
    Gaussian source s, sampled at the receiver nodes. A store of the 4 most
    recently used (grid, coefficient, omega^2) entries keeps that derivative
    at every boundary node for each source solved, keyed by (source boundary
    index, source sigma), which depends neither on the model nor on the
    acquisition. Only when a source is missing from its entry is the system
    assembled (:func:`assemble`); the missing sources are solved in blocks of
    8 columns, so that only one block of full-grid fields is alive at a
    time, and their rows are kept. A block whose solve raises keeps nothing.
    So a top-mode map reuses the rows of a full-mode map of the same model,
    and the other way round; the system and its LU are freed on return.
    Deterministic for fixed inputs. Any finite omega^2 >= 0 is taken as
    given, 0 (the Laplace map) included; :func:`spectrum.frequency_safety`
    says whether it is admissible.
    """
    _check_grid(model, acq)
    grid = acq.grid
    omega2 = float(omega2)
    coeff = np.ascontiguousarray(to_cell_field(model), dtype=float)
    entry = (grid.key, hashlib.sha1(coeff.tobytes()).hexdigest(), omega2)
    rows = _rows.get(entry)
    if rows is not None:
        _counts["hits"] += 1
        _rows.move_to_end(entry)
    keys = [(int(s), acq.source_sigma) for s in acq.source_idx]
    missing = {}
    for pos, key in enumerate(keys):
        if rows is None or key not in rows:
            missing.setdefault(key, pos)
    _counts["row_hits"] += len(keys) - len(missing)
    if missing:
        # assemble validates omega2 before an entry is stored
        sys_ = assemble(grid, coeff, omega2)
        if rows is None:
            rows = _rows[entry] = {}
            _counts["misses"] += 1
            if len(_rows) > _STORE_SIZE:
                _rows.popitem(last=False)
                _counts["evictions"] += 1
        solve_keys, solve_cols = list(missing), list(missing.values())
        for block in _blocks(len(solve_cols)):
            u = solve_dirichlet(sys_, acq.sources[:, solve_cols[block]])
            dtn = normal_derivative(grid, u)
            # copied, so that the block of fields is not kept alive
            for k, key in enumerate(solve_keys[block]):
                rows[key] = dtn[:, k].copy()
            _counts["row_misses"] += len(solve_keys[block])
    values = np.stack([rows[key][acq.receiver_idx] for key in keys])

    meta = {
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


def weighted_operator_norm(values: np.ndarray, acq: Acquisition) -> float:
    """Largest singular value of a data-shaped matrix under quadrature weights."""
    values = np.asarray(values)
    if values.shape != (acq.n_sources, acq.n_receivers):
        raise ValueError("matrix shape does not match the acquisition")
    b = values * acq.data_weights
    if not np.any(b):
        return 0.0
    return float(np.linalg.svd(b, compute_uv=False)[0])


def dtn_operator_norm(d1: DtnData, d2: DtnData) -> float:
    """Largest singular value of the quadrature-weighted data difference."""
    _check_compatible(d1, d2)
    return weighted_operator_norm(d1.values - d2.values, d1.acquisition)


# -- serialization ------------------------------------------------------------------

def write_dtn(path, data: DtnData):
    """Binary DtN data dump (little-endian).

    Layout: magic(4s) version(u16) dim(u8) mode(u8: 0 full, 1 top)
    flags(u8: reserved, must be 0) omega2(f64) sigma(f64) n_src(u32)
    n_rec(u32) cells(u32 x dim) extents(f64 x dim) model_hash(12s)
    grid_hash(12s), then source positions, receiver positions and the
    row-major value matrix, all f64.
    """
    acq = data.acquisition
    grid = acq.grid
    mode_code = 0 if acq.mode == MODE_FULL else 1
    head = _DTN_MAGIC + struct.pack(
        "<HBBBddII", _DTN_VERSION, grid.dim, mode_code, 0,
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
        fh.write(data.values.astype("<f8").tobytes())


def read_dtn(path) -> DtnData:
    """Read a binary DtN dump, rebuilding the grid and acquisition.

    A file of another version (version 1 also stored the quadrature
    weights), a truncated file, an unknown mode code, a nonzero flags byte,
    an ``omega2`` that is not finite and nonnegative, a ``sigma`` that is not
    finite and positive, a grid that ``BoxGrid`` rejects and a source or
    receiver position that is not finite or lies off the box raise
    ValueError. ``omega2 = 0`` (the Laplace map, which :func:`forward_map`
    computes) is read back.
    """
    with open(path, "rb") as fh:
        def read(size, what="header"):
            return _read_exact(fh, size, path, what)

        got = fh.read(4)
        if got != _DTN_MAGIC:
            raise ValueError(
                f"{path}: bad magic {got!r}, expected {_DTN_MAGIC!r}")
        version, dim, mode_code, flags, omega2, sigma, n_src, n_rec = \
            struct.unpack("<HBBBddII", read(struct.calcsize("<HBBBddII")))
        if version != _DTN_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if mode_code not in (0, 1):
            raise ValueError(f"{path}: unknown acquisition mode code {mode_code}")
        if flags != 0:
            raise ValueError(
                f"{path}: flags byte is {flags}, expected 0 (complex "
                "absorbing-boundary data are no longer supported)")
        cells = struct.unpack(f"<{dim}I", read(4 * dim))
        extents = struct.unpack(f"<{dim}d", read(8 * dim))
        model_hash = read(12).decode(errors="replace").strip()
        grid_hash = read(12).decode(errors="replace").strip()
        src_pos = np.frombuffer(read(8 * n_src * dim, "source positions"),
                                "<f8").reshape(n_src, dim)
        rec_pos = np.frombuffer(read(8 * n_rec * dim, "receiver positions"),
                                "<f8").reshape(n_rec, dim)
        values = np.frombuffer(read(8 * n_src * n_rec, "values"),
                               "<f8").reshape(n_src, n_rec)

    try:
        omega2 = _check_omega2(omega2)
        grid = BoxGrid(extents, cells)
        source_idx, receiver_idx = (
            grid.boundary_position[[grid.nearest_boundary_node(p)[0] for p in pos]]
            for pos in (src_pos, rec_pos))
        acq = Acquisition(
            grid=grid,
            mode=MODE_FULL if mode_code == 0 else MODE_TOP,
            source_idx=source_idx,
            receiver_idx=receiver_idx,
            source_sigma=sigma,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    meta = {"model_hash": model_hash, "grid_hash": grid_hash,
            "norm": NORM_KIND}
    return DtnData(acquisition=acq, omega2=omega2, values=values, metadata=meta)


def export_trace_csv(data: DtnData, source_index: int, path):
    """One source's trace: receiver index, coordinates and value."""
    acq = data.acquisition
    if not (0 <= source_index < acq.n_sources):
        raise ValueError(f"source index {source_index} out of range")
    pos = acq.receiver_positions
    row = data.values[source_index]
    coord_names = ["x", "y", "z"][: acq.grid.dim]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["receiver"] + coord_names + ["value"]) + "\n")
        for r in range(acq.n_receivers):
            cols = [str(r)] + [f"{c:.17g}" for c in pos[r]] + [f"{row[r]:.17g}"]
            fh.write(",".join(cols) + "\n")
