"""Reference implementations that the tests compare the library against.

None of these is part of the data map: each is an independent way of
computing something the library computes, or an exact discrete identity
that the library's results must satisfy.

* :func:`alessandrini_pairing` -- both sides of the Alessandrini identity
  (Alessandrini 1988) for two models, from the pointwise normal-derivative
  data and the cell-averaged fields (:func:`cell_average`).
* :func:`frechet_pairing_first_order` -- the pairing-convention derivative
  by a second route: the variational boundary flux of the first-order
  solution paired with the receiver Gaussian. It agrees with
  ``derivative.frechet_directional(..., convention="pairing")`` to solver
  tolerance (exact discrete duality).
* :func:`taylor_remainder` and :func:`central_difference_matrix` -- finite
  differences of ``forward.forward_map`` against the data-convention
  derivative, with the step :func:`default_step`.
* :func:`dense_derivative` -- the adjoint nodal products of
  ``derivative.frechet_jacobian`` by dense linear algebra: every field by
  ``np.linalg.solve`` on the dense interior matrix, the weights by
  :func:`solver.node_coefficients` and the contraction by one ``einsum``.

Sign convention: with the outward normal, the exact identity for two
coefficients reads

    <(Lambda_2 - Lambda_1) g, h>  =  omega^2 * integral (c1^-2 - c2^-2) u1 v2,

with u1 the solve for model 1 / data g and v2 the solve for model 2 / data h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from helmstab.derivative import _check_direction, _source_blocks
from helmstab.forward import (
    Acquisition,
    _check_grid,
    forward_map,
    weighted_operator_norm,
)
from helmstab.geometry import BoxGrid, _kron
from helmstab.model import SquaredSlownessModel, to_cell_field
from helmstab.solver import (
    assemble,
    node_coefficients,
    normal_derivative,
    solve_dirichlet,
)


def cell_average(grid: BoxGrid, u: np.ndarray) -> np.ndarray:
    """Mean of the 2^dim corner nodes per cell, x-fastest order."""
    return _kron([0.5 * (np.eye(n, n + 1) + np.eye(n, n + 1, 1))
                  for n in grid.cells_per_axis]) @ np.asarray(u)


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
    mean of a cell's 2^dim corner nodes (:func:`cell_average`); the
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

    ``derivative`` is DF(dc) as returned by
    ``derivative.frechet_directional``. Second-order in eps when DF is the
    data-convention derivative. The perturbed model must stay within bounds
    (no clamping, which would destroy differentiability).
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


def dense_derivative(base: SquaredSlownessModel, directions, omega2: float,
                     acq: Acquisition, convention: str) -> np.ndarray:
    """``(m, n_sources, n_receivers)`` derivative along the m rows of the
    ``(m, n_subdomains)`` array ``directions``, for small grids.

    Entry (j, s, r) is ``sum_i dnode_j,i u_s,i z_r,i`` over the interior
    nodes (``derivative`` module docstring): u_s solves the source data, z_r
    is ``omega^2 A^-1 e_r`` with e_r the receiver's row of
    ``normal_derivative`` (data) or ``-omega^2 vol v_r`` with v_r the solve
    for the receiver Gaussian (pairing), each by a dense solve with the
    interior matrix A, and dnode_j is :func:`solver.node_coefficients` of
    direction j.
    """
    grid = base.grid
    interior = grid.interior_nodes
    sys_ = assemble(grid, to_cell_field(base), omega2)
    a = sys_.interior_matrix.toarray()
    coupling = sys_.coupling.toarray()
    u = np.linalg.solve(a, -coupling @ acq.sources)
    if convention == "data":
        embed = np.zeros((grid.n_nodes, grid.n_interior))
        embed[interior, np.arange(grid.n_interior)] = 1.0
        stencil = normal_derivative(grid, embed)[acq.receiver_idx].T
        z = omega2 * np.linalg.solve(a, stencil)
    else:
        v = np.linalg.solve(a, -coupling @ acq.receivers)
        z = -omega2 * sys_.node_volumes[interior, None] * v
    weights = np.array([
        node_coefficients(grid, d[base.partition.cell_to_subdomain])[interior]
        for d in np.asarray(directions, dtype=float)])
    return np.einsum("ji,is,ir->jsr", weights, u, z)
