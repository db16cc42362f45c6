"""Frechet derivative of the forward map and the Alessandrini identity.

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
n_receivers solves, not N * n_sources. The source fields are kept on the
interior nodes (n_interior x n_sources floats) and the adjoint fields stream
in blocks of 8 receivers, each contracted with a sparse direction-by-node
weight matrix: one product of the averaging :func:`solver._node_averaging`
with the directions as cell-field columns. Solving all receivers at once, or
contracting against a dense weight matrix, costs more memory for no fewer
solves. A directional
derivative is returned as the data-shaped ``(n_sources, n_receivers)``
array, the same shape as one slice of the Jacobian.

The pairing form has an exactly equivalent second implementation -- the
variational boundary flux of the first-order solution paired with the
receiver Gaussian -- used as the built-in cross-check.

omega^2 is taken as given; :func:`spectrum.frequency_safety` says whether it
is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .forward import (
    Acquisition,
    _blocks,
    _check_grid,
    forward_map,
    gaussian_source,  # unused here; benchmarks/spans.py traces this binding
    weighted_operator_norm,
)
from .model import SquaredSlownessModel, to_cell_field
from .solver import (
    HelmholtzSystem,
    _node_averaging,
    assemble,
    cell_average,
    node_coefficients,
    normal_derivative,
    normal_derivative_adjoint,
    solve_dirichlet,
)

__all__ = [
    "PairingResult",
    "alessandrini_pairing",
    "frechet_directional",
    "frechet_jacobian",
    "frechet_pairing_first_order",
    "taylor_remainder",
    "central_difference_matrix",
    "frechet_norm_bounds_report",
]

@dataclass(frozen=True)
class PairingResult:
    """Both sides of the discrete Alessandrini identity."""

    volume_side: float
    boundary_side: float

    @property
    def relative_mismatch(self) -> float:
        scale = max(abs(self.volume_side), abs(self.boundary_side))
        if scale == 0.0:
            return 0.0
        return abs(self.volume_side - self.boundary_side) / scale


def alessandrini_pairing(m1: SquaredSlownessModel, m2: SquaredSlownessModel,
                         g, h, omega2: float) -> PairingResult:
    """Evaluate both sides of the Alessandrini identity for two models.

    Volume side: ``omega^2 * sum_cells (c1 - c2) avg(u) avg(v) vol`` with u
    the model-1 solve for data g, v the model-2 solve for data h, and avg the
    mean of a cell's 2^dim corner nodes (:func:`solver.cell_average`); the
    product of the averages is taken per cell, not the average of ``u v``.
    Boundary side: ``sum_b w_b ((Lambda_2 - Lambda_1) g)_b h_b``
    from the pointwise normal-derivative data (outward-normal convention; see
    the module docstring for why Lambda_2 - Lambda_1 matches this volume
    side). The sides agree up to discretization error only.
    """
    if m1.grid.key != m2.grid.key:
        raise ValueError("models live on different grids")
    grid = m1.grid
    omega2 = float(omega2)
    f1 = to_cell_field(m1)
    f2 = to_cell_field(m2)
    s1 = assemble(grid, f1, omega2)
    s2 = assemble(grid, f2, omega2)

    u = solve_dirichlet(s1, g)
    v = solve_dirichlet(s2, h)
    volume = omega2 * float(
        np.sum((f1 - f2) * cell_average(grid, u) * cell_average(grid, v))
    ) * grid.cell_volume()

    u2 = solve_dirichlet(s2, g)
    lam1 = normal_derivative(grid, u)
    lam2 = normal_derivative(grid, u2)
    boundary = float(np.sum(grid.boundary_weights * (lam2 - lam1) * np.asarray(h)))
    return PairingResult(volume_side=volume, boundary_side=boundary)


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


def _adjoint_blocks(sys_: HelmholtzSystem, acq: Acquisition, omega2: float,
                    convention: str):
    """(slice, adjoint-field block on the interior nodes) per block of
    receivers, scaled so that an entry of the derivative is the plain nodal
    sum ``sum_i dnode_i u_s,i z_r,i``."""
    grid = sys_.grid
    interior = grid.interior_nodes
    for block in _blocks(acq.n_receivers):
        if convention == "data":
            e = normal_derivative_adjoint(grid, acq.receiver_idx[block])
            z = solve_dirichlet(sys_, np.zeros((grid.n_boundary, e.shape[1])), e)
            yield block, omega2 * z[interior]
        else:
            v = solve_dirichlet(sys_, acq.receivers[:, block])[interior]
            yield block, -omega2 * sys_.node_volumes[interior, None] * v


def _derivative(base: SquaredSlownessModel, omega2: float, acq: Acquisition,
                cell_fields, convention: str) -> np.ndarray:
    """``(m, n_sources, n_receivers)`` derivative along the m columns of the
    ``(n_cells, m)`` array or sparse matrix ``cell_fields``.

    Entry (j, s, r) is ``sum_i weights[j, i] u_s,i z_r,i`` over the interior
    nodes, with u_s the source fields and z_r the adjoint fields of
    :func:`_adjoint_blocks`. The weight row of a column is its nodal
    coefficient on the interior nodes, all rows from one product with the
    averaging :func:`solver._node_averaging`. The source fields are kept on
    the interior nodes; the adjoint side streams in blocks, and each
    receiver scales the sparse weights by z_r instead of forming the dense
    products u_s z_r.
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
    out = np.empty((weights.shape[0], acq.n_sources, acq.n_receivers))
    nodes = weights.indices
    for block, z in _adjoint_blocks(sys_, acq, omega2, convention):
        for k, r in enumerate(range(block.start, block.stop)):
            scaled = sp.csr_matrix((weights.data * z[nodes, k], nodes,
                                    weights.indptr), shape=weights.shape)
            out[:, :, r] = scaled @ u
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


def frechet_pairing_first_order(base: SquaredSlownessModel, direction,
                                omega2: float,
                                acq: Acquisition) -> np.ndarray:
    """Pairing-convention derivative via the first-order boundary flux, as an
    ``(n_sources, n_receivers)`` array.

    Solves ``(-Lap - omega^2 c^-2) w_s = omega^2 dc u~_s`` per source and
    pairs the variational flux of w_s against each receiver Gaussian. Agrees
    with the adjoint-product pairing to solver tolerance (exact discrete
    duality); it is the independent cross-check of that path.
    """
    omega2 = float(omega2)
    _check_grid(base, acq)
    direction = _check_direction(base, direction)
    grid = base.grid
    dnode = node_coefficients(grid, direction[base.partition.cell_to_subdomain])
    sys_ = assemble(grid, to_cell_field(base), omega2)
    values = np.empty((acq.n_sources, acq.n_receivers))
    for block, u in _source_blocks(sys_, acq):
        # first-order fields, zero on the boundary
        w = solve_dirichlet(sys_, np.zeros((grid.n_boundary, u.shape[1])),
                            omega2 * (dnode[:, None] * u)[grid.interior_nodes])
        values[block] = sys_.flux_rows.dot(w).T @ acq.receivers
    return values


def default_step(base: SquaredSlownessModel) -> float:
    """Finite-difference step: 1e-3 of the coefficient's sup norm."""
    return 1e-3 * float(np.max(np.abs(base.values)))


def taylor_remainder(base: SquaredSlownessModel, direction, omega2: float,
                     acq: Acquisition, eps: float,
                     derivative: np.ndarray) -> float:
    """|| F(c + eps*dc) - F(c) - eps*DF(dc) || in the weighted operator norm.

    ``derivative`` is DF(dc) as returned by :func:`frechet_directional`.
    Second-order in eps when DF is the data-convention derivative. The
    perturbed model must stay within bounds (no clamping, which would
    destroy differentiability).
    """
    direction = np.asarray(direction, dtype=float)
    d0 = forward_map(base, omega2, acq)
    d1 = forward_map(base.perturbed(eps * direction), omega2, acq)
    resid = d1.values - d0.values - eps * derivative
    return weighted_operator_norm(resid, acq)


def central_difference_matrix(base: SquaredSlownessModel, direction,
                              omega2: float, acq: Acquisition,
                              eps: float) -> np.ndarray:
    """Central finite-difference slope of the data matrix along ``direction``."""
    direction = np.asarray(direction, dtype=float)
    dp = forward_map(base.perturbed(eps * direction), omega2, acq)
    dm = forward_map(base.perturbed(-eps * direction), omega2, acq)
    return (dp.values - dm.values) / (2.0 * eps)


@dataclass(frozen=True)
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

