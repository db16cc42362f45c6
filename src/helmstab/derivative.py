"""Frechet derivative of the forward map.

Sign convention: with the outward normal fixed throughout the package, the
exact identity for two coefficients reads

    <(Lambda_2 - Lambda_1) g, h>  =  omega^2 * integral (c1^-2 - c2^-2) u1 v2,

with u1 the solve for model 1 / data g and v2 the solve for model 2 / data h.
Consequently the derivative pairing carries a minus sign,

    <DF[c](dc) g, h>  =  -omega^2 * integral dc u~ v,

while the derivative of the receiver data (normal derivative at the
receivers) is the plain directional derivative of the forward map. Two
conventions for the derivative matrix are exposed and never mixed within one
matrix. Both are computed as adjoint nodal products (adjoint-state method)

    entry (s, r)  =  sum over interior nodes i of  dnode_i * u_s,i * z_r,i,

with dnode the nodal coefficient of the direction, u_s the field of source s
and z_r an adjoint field of receiver r:

* ``convention="data"``: entry (s, r) is the derivative of the receiver
  sample, i.e. the one-sided normal-derivative stencil at receiver r applied
  to the first-order field ``(-Lap - omega^2 c^-2) w = omega^2 dc u~_s``
  (w = 0 on the boundary). The interior matrix is symmetric, so
  ``z_r = omega^2 A^-1 e_r`` with e_r the transposed stencil
  (:func:`solver.normal_derivative_adjoint`).
* ``convention="pairing"``: entry (s, r) is the dual pairing of DF against a
  receiver functional of the same Gaussian shape as the sources, the
  (nodal-quadrature) volume integral above: ``z_r = -omega^2 vol * v_r`` with
  v_r the solve for receiver r's Gaussian.

Every direction shares the same u_s and z_r, so the derivative along all N
canonical directions (:func:`frechet_jacobian`) costs n_sources +
n_receivers solves, not N * n_sources. The weights dnode of the directions
are the rows of a sparse direction-by-node matrix W on the interior nodes,
all from one product of the averaging :func:`solver._node_averaging` with
the directions as cell-field columns. The source fields u are kept on the
interior nodes (n_interior x n_sources floats) and the adjoint fields
stream in blocks of 8 receivers. For a block z and a direction j, with s_j
the nodes of row j of W and w_j its values, slice j of the block is one
dense matrix product,

    out[j, :, block]  =  u[s_j].T @ (w_j[:, None] * z[s_j]),

nnz(W) * n_sources * n_receivers multiply-adds in all, as many as a sparse
product per receiver takes, but run as BLAS level-3 products. Besides the
result, memory holds the source fields, one adjoint block with its weighted
rows (nnz(W) x 8 floats) and the source rows of one product; a row of W
longer than an adjoint block's worth of source rows (a dense direction) is
taken in pieces, so no second n_interior x n_sources array is made. Solving
all receivers at once costs more memory for no fewer solves. A directional
derivative is returned as the data-shaped ``(n_sources, n_receivers)``
array, the same shape as one slice of the Jacobian.

omega^2 is taken as given; :func:`spectrum.frequency_safety` says whether it
is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .forward import (
    _BLOCK,
    Acquisition,
    _blocks,
    _check_grid,
    gaussian_source,  # unused here; benchmarks/spans.py traces this binding
    weighted_operator_norm,
)
from .model import SquaredSlownessModel, to_cell_field
from .solver import (
    HelmholtzSystem,
    _node_averaging,
    assemble,
    normal_derivative,  # unused here; benchmarks/spans.py traces this binding
    normal_derivative_adjoint,
    solve_dirichlet,
)

__all__ = [
    "frechet_directional",
    "frechet_jacobian",
    "frechet_norm_bounds_report",
]


def _check_direction(base: SquaredSlownessModel, direction) -> np.ndarray:
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (base.n_subdomains,):
        raise ValueError(
            f"direction needs {base.n_subdomains} entries, got {direction.shape}"
        )
    if not np.all(np.isfinite(direction)):
        raise ValueError("direction entries must be finite")
    return direction


def _source_blocks(sys_: HelmholtzSystem, acq: Acquisition):
    """(slice, source-field block) per block of sources, solved against the
    system ``sys_``; only one block of full-grid fields is alive at a time.
    The derivative paths need the whole fields; ``forward.forward_map``
    keeps only their DtN rows."""
    for block in _blocks(acq.n_sources):
        yield block, solve_dirichlet(sys_, acq.sources[:, block])


def _adjoint_fields(sys_: HelmholtzSystem, acq: Acquisition, omega2: float,
                    convention: str, block: slice) -> np.ndarray:
    """Adjoint-field block of the receivers in ``block`` on the interior
    nodes, scaled so that an entry of the derivative is the plain nodal sum
    ``sum_i dnode_i u_s,i z_r,i``."""
    grid = sys_.grid
    interior = grid.interior_nodes
    if convention == "data":
        e = normal_derivative_adjoint(grid, acq.receiver_idx[block])
        z = solve_dirichlet(sys_, np.zeros((grid.n_boundary, e.shape[1])),
                            e)[interior]
        z *= omega2
    else:
        z = solve_dirichlet(sys_, acq.receivers[:, block])[interior]
        z *= -omega2 * sys_.node_volumes[interior, None]
    return z


def _row_pieces(indptr: np.ndarray, length: int) -> list:
    """``(row, slice)`` over the stored entries of every CSR row, a row
    longer than ``length`` entries cut into consecutive pieces of at most
    ``length``."""
    return [(j, slice(start, min(start + length, stop)))
            for j, (first, stop) in enumerate(zip(indptr[:-1], indptr[1:]))
            for start in range(first, stop, length)]


def _contract(out: np.ndarray, u: np.ndarray, weights: sp.csr_matrix,
              pieces: list, z: np.ndarray):
    """Write the adjoint block ``z`` into ``out``, the ``(m, n_sources, k)``
    slices of its receivers: ``out[j] = u[s_j].T @ (w_j z[s_j])`` per row j of
    ``weights``, one dense product per piece of :func:`_row_pieces`."""
    nodes = weights.indices
    weighted = z.take(nodes, axis=0)
    weighted *= weights.data[:, None]
    previous = None
    for j, piece in pieces:
        rows = u.take(nodes[piece], axis=0).T
        if j == previous:
            out[j] += rows @ weighted[piece]
        else:
            np.matmul(rows, weighted[piece], out=out[j])
            previous = j


def _derivative(base: SquaredSlownessModel, omega2: float, acq: Acquisition,
                cell_fields, convention: str) -> np.ndarray:
    """``(m, n_sources, n_receivers)`` derivative along the m columns of the
    ``(n_cells, m)`` array or sparse matrix ``cell_fields``.

    Entry (j, s, r) is ``sum_i weights[j, i] u_s,i z_r,i`` over the interior
    nodes, with u_s the source fields and z_r the adjoint fields of
    :func:`_adjoint_fields`. The weight row of a column is its nodal
    coefficient on the interior nodes, all rows from one product with the
    averaging :func:`solver._node_averaging`. The source fields are kept on
    the interior nodes; the adjoint fields stream in blocks of ``_BLOCK``
    receivers, and :func:`_contract` turns each block into one dense product
    per row of the weights, ``u[s_j].T @ (w_j z[s_j])`` with s_j the row's
    nodes and w_j its values: nnz(weights) * n_sources * n_receivers
    multiply-adds in all. A row is taken in pieces of at most
    ``n_interior * _BLOCK // n_sources`` nodes, so the source rows that one
    product gathers never exceed an adjoint block.
    """
    omega2 = float(omega2)
    if convention not in ("data", "pairing"):
        raise ValueError(f"unknown convention {convention!r}")
    _check_grid(base, acq)
    grid = base.grid
    interior = grid.interior_nodes
    sys_ = assemble(grid, to_cell_field(base), omega2)
    weights = sp.csr_matrix((_node_averaging(grid)[interior] @ cell_fields).T)
    u = np.empty((interior.size, acq.n_sources))
    for block, fields in _source_blocks(sys_, acq):
        u[:, block] = fields[interior]
    del fields  # the last full-grid block is not needed by the adjoint solves
    pieces = _row_pieces(weights.indptr,
                         max(1, interior.size * _BLOCK // acq.n_sources))
    # a row without entries (a zero direction) keeps its zeros
    out = np.zeros((weights.shape[0], acq.n_sources, acq.n_receivers))
    for block in _blocks(acq.n_receivers):
        _contract(out[:, :, block], u, weights, pieces,
                  _adjoint_fields(sys_, acq, omega2, convention, block))
    return out


def frechet_jacobian(base: SquaredSlownessModel, omega2: float,
                     acq: Acquisition, *, convention: str = "data") -> np.ndarray:
    """Derivative of the forward map along every canonical subdomain direction.

    Slice j of the returned ``(N, n_sources, n_receivers)`` array is the
    derivative along the indicator of subdomain j, in the given convention
    (module docstring). Costs n_sources + n_receivers solves.
    """
    indicators = sp.identity(base.n_subdomains, format="csr")[
        base.partition.cell_to_subdomain]
    return _derivative(base, omega2, acq, indicators, convention)


def frechet_directional(base: SquaredSlownessModel, direction, omega2: float,
                        acq: Acquisition, *,
                        convention: str = "data") -> np.ndarray:
    """Directional derivative of the forward map at ``base``, as an
    ``(n_sources, n_receivers)`` array.

    See the module docstring for the two conventions. Both are exactly linear
    in ``direction``: the result is ``sum_j direction[j] J_j`` with ``J`` from
    :func:`frechet_jacobian`, computed by the same adjoint products with the
    single weight row of ``direction``. That costs n_sources + n_receivers
    solves in either convention (a per-direction first-order data path would
    take 2 * n_sources), and keeps every source field on the interior nodes
    while the receivers stream.
    """
    direction = _check_direction(base, direction)
    column = direction[base.partition.cell_to_subdomain, None]
    return _derivative(base, omega2, acq, column, convention)[0]


@dataclass(frozen=True, eq=False)
class BoundShapeReport:
    """Operator norms of DF along all N canonical directions (``norms[j]``
    for subdomain j), with the analytic bound shapes evaluated at fitted
    constants (report only, no pass/fail: the paper-level constants are
    unknown).

    ``jacobian_sigma_min`` is the smallest singular value of the Jacobian as
    a map from coefficients in the L2 subdomain-volume norm to data in the
    Frobenius norm of the matrix scaled by ``acq.data_weights``, and
    ``local_lipschitz`` its inverse: the local stability constant of the
    linearized problem in that Frobenius data norm. The campaign's ``c_est``
    measures data in the weighted operator norm, which is no larger than the
    Frobenius norm, so ``local_lipschitz`` is a lower bound on the linearized
    ``c_est``, not the same quantity.
    """

    omega2: float
    n_subdomains: int
    norms: np.ndarray
    distance_to_spectrum: float | None
    upper_shape_constant: float    # C in C*omega^2*(1 + omega^2/d)^2
    lower_shape_constant: float    # K in omega^2*exp(-K*(1+omega^2*B2)*N^(4/7))
    b2: float
    jacobian_sigma_min: float
    local_lipschitz: float

    @property
    def min_norm(self) -> float:
        return float(np.min(self.norms))

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def _jacobian_sigma_min(jac: np.ndarray, acq: Acquisition,
                        volumes: np.ndarray) -> float:
    """Smallest singular value of the ``(n_sources * n_receivers, N)``
    Jacobian, rows weighted by ``acq.data_weights`` and columns by
    ``1 / sqrt(|Omega_j|)``. Overwrites ``jac``: it is scaled in place and
    handed to LAPACK without a copy (the flattened transpose of a C-ordered
    array is Fortran-ordered)."""
    n = jac.shape[0]
    if acq.n_sources * acq.n_receivers < n:
        return 0.0   # more unknowns than data: the Jacobian has a kernel
    jac *= acq.data_weights
    jac /= np.sqrt(volumes)[:, None, None]
    sigma = scipy.linalg.svdvals(jac.reshape(n, -1).T, overwrite_a=True,
                                 check_finite=False)
    return float(sigma[-1])


def frechet_norm_bounds_report(base: SquaredSlownessModel, omega2: float,
                               acq: Acquisition, *,
                               distance_to_spectrum: float | None = None
                               ) -> BoundShapeReport:
    """Weighted operator norm of DF(e_j) for every canonical direction j.

    The norms are taken from the slices of :func:`frechet_jacobian`. The two
    analytic bound shapes are juxtaposed with constants fitted to the
    observed min/max, and the report carries the Jacobian's smallest
    singular value and the local Lipschitz estimate (see
    :class:`BoundShapeReport`).
    """
    omega2 = float(omega2)
    n = base.n_subdomains
    jac = frechet_jacobian(base, omega2, acq)
    norms = np.array([weighted_operator_norm(j, acq) for j in jac])
    sigma_min = _jacobian_sigma_min(jac, acq, base.partition.subdomain_volumes)
    lipschitz = 1.0 / sigma_min if sigma_min > 0 else np.inf

    b2 = base.bounds[1]
    if distance_to_spectrum is not None and distance_to_spectrum > 0:
        denom = omega2 * (1.0 + omega2 / distance_to_spectrum) ** 2
    else:
        denom = omega2
    upper_c = float(np.max(norms)) / denom
    ratio = float(np.min(norms)) / omega2
    if ratio > 0:
        lower_k = -np.log(ratio) / ((1.0 + omega2 * b2) * n ** (4.0 / 7.0))
    else:
        lower_k = np.inf
    return BoundShapeReport(
        omega2=omega2, n_subdomains=n, norms=norms,
        distance_to_spectrum=distance_to_spectrum,
        upper_shape_constant=upper_c, lower_shape_constant=float(lower_k),
        b2=b2, jacobian_sigma_min=sigma_min, local_lipschitz=lipschitz,
    )

