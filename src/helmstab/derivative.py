"""Frechet derivative of the forward map and the Alessandrini identity.

Sign convention: with the outward normal fixed throughout the package, the
exact identity for two coefficients reads

    <(Lambda_2 - Lambda_1) g, h>  =  omega^2 * integral (c1^-2 - c2^-2) u1 v2,

with u1 the solve for model 1 / data g and v2 the solve for model 2 / data h.
Consequently the derivative pairing carries a minus sign,

    <DF[c](dc) g, h>  =  -omega^2 * integral dc u~ v,

while the derivative of the *sampled* data (normal derivative at receivers)
is the plain directional derivative of the forward map. Two conventions for
the derivative matrix are exposed and never mixed within one matrix:

* ``convention="data"``: entry (s, r) is the derivative of the receiver
  sample, computed by solving the first-order equation
  ``(-Lap - omega^2 c^-2) w = omega^2 dc u~_s`` with w = 0 on the boundary
  and applying the one-sided normal-derivative stencil at receiver r.
* ``convention="pairing"``: entry (s, r) is the dual pairing of DF against a
  receiver functional of the same Gaussian shape as the sources, computed as
  the (nodal-quadrature) volume integral above.

The pairing form has an exactly equivalent second implementation -- the
variational boundary flux of the first-order solution paired with the
receiver Gaussian -- used as the built-in cross-check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .forward import (
    Acquisition,
    _blocks,
    forward_map,
    gaussian_source,
    weighted_operator_norm,
)
from .model import SquaredSlownessModel, to_cell_field
from .solver import (
    HelmholtzSystem,
    assemble,
    cell_average,
    node_coefficients,
    normal_derivative,
    solve_dirichlet,
)

__all__ = [
    "PairingResult",
    "DirectionalDerivative",
    "alessandrini_pairing",
    "frechet_directional",
    "frechet_pairing_first_order",
    "taylor_remainder",
    "central_difference_matrix",
    "frechet_norm_bounds_report",
    "write_bounds_report_csv",
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
                         g, h, omega2: float, *, cache: bool = True) -> PairingResult:
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
    s1 = assemble(grid, f1, omega2, cache=cache)
    s2 = assemble(grid, f2, omega2, cache=cache)

    u = solve_dirichlet(s1, g)
    v = solve_dirichlet(s2, h)
    volume = omega2 * float(
        np.sum((f1 - f2) * cell_average(grid, u) * cell_average(grid, v))
    ) * grid.cell_volume()

    u2 = solve_dirichlet(s2, g)
    lam1 = normal_derivative(s1, u)
    lam2 = normal_derivative(s2, u2)
    boundary = float(np.sum(grid.boundary_weights * (lam2 - lam1) * np.asarray(h)))
    return PairingResult(volume_side=volume, boundary_side=boundary)


@dataclass(frozen=True)
class DirectionalDerivative:
    """Derivative of the DtN data along one coefficient direction."""

    base_model: SquaredSlownessModel
    direction: np.ndarray
    omega2: float
    acquisition: Acquisition
    values: np.ndarray           # (n_sources, n_receivers)
    convention: str              # "data" or "pairing"

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float).copy()
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)
        values = np.asarray(self.values, dtype=float).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _direction_fields(base: SquaredSlownessModel, direction):
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (base.n_subdomains,):
        raise ValueError(
            f"direction needs {base.n_subdomains} entries, got {direction.shape}"
        )
    dcell = direction[base.partition.cell_to_subdomain]
    dnode = node_coefficients(base.grid, dcell) if np.any(dcell) else \
        np.zeros(base.grid.n_nodes)
    return direction, dnode


def _gaussians(grid, positions, sigma) -> np.ndarray:
    """Gaussian boundary data centred at ``positions``, one column each."""
    return np.column_stack([gaussian_source(grid, pos, sigma) for pos in positions])


def _source_blocks(sys_: HelmholtzSystem, acq: Acquisition):
    """(slice, source-field block) per block of sources; only one block of
    full-grid fields is alive at a time."""
    positions = acq.source_positions
    for block in _blocks(acq.n_sources):
        g = _gaussians(sys_.grid, positions[block], acq.source_sigma)
        yield block, solve_dirichlet(sys_, g)


def _first_order_solve(sys_: HelmholtzSystem, dnode, u, omega2):
    """First-order fields ``w`` (zero on the boundary) for a block ``u``."""
    grid = sys_.grid
    rhs = omega2 * (dnode[:, None] * u)[grid.interior_nodes]
    return solve_dirichlet(sys_, np.zeros((grid.n_boundary, u.shape[1])), rhs)


def frechet_directional(base: SquaredSlownessModel, direction, omega2: float,
                        acq: Acquisition, *, convention: str = "data",
                        cache: bool = True) -> DirectionalDerivative:
    """Directional derivative of the forward map at ``base``.

    See the module docstring for the two conventions. Both are exactly linear
    in ``direction``.
    """
    omega2 = float(omega2)
    if convention not in ("data", "pairing"):
        raise ValueError(f"unknown convention {convention!r}")
    direction, dnode = _direction_fields(base, direction)
    sys_ = assemble(base.grid, to_cell_field(base), omega2, cache=cache)
    grid = base.grid
    values = np.empty((acq.n_sources, acq.n_receivers))

    if convention == "data":
        for block, u in _source_blocks(sys_, acq):
            w = _first_order_solve(sys_, dnode, u, omega2)
            values[block] = normal_derivative(sys_, w)[acq.receiver_idx].T
    else:
        interior = grid.interior_nodes
        weight = (sys_.node_volumes * dnode)[interior]
        # receiver fields on the interior, weighted by the volume quadrature
        weighted_v = np.empty((grid.n_interior, acq.n_receivers))
        positions = acq.receiver_positions
        for block in _blocks(acq.n_receivers):
            h = _gaussians(grid, positions[block], acq.source_sigma)
            weighted_v[:, block] = \
                weight[:, None] * solve_dirichlet(sys_, h)[interior]
        for block, u in _source_blocks(sys_, acq):
            values[block] = -omega2 * u[interior].T @ weighted_v

    return DirectionalDerivative(base_model=base, direction=direction,
                                 omega2=omega2, acquisition=acq, values=values,
                                 convention=convention)


def frechet_pairing_first_order(base: SquaredSlownessModel, direction,
                                omega2: float, acq: Acquisition, *,
                                cache: bool = True) -> DirectionalDerivative:
    """Pairing-convention derivative via the first-order boundary flux.

    Solves ``(-Lap - omega^2 c^-2) w_s = omega^2 dc u~_s`` per source and
    pairs the variational flux of w_s against each receiver Gaussian. Agrees
    with the volume-integral pairing to solver tolerance (exact discrete
    duality).
    """
    omega2 = float(omega2)
    direction, dnode = _direction_fields(base, direction)
    sys_ = assemble(base.grid, to_cell_field(base), omega2, cache=cache)
    receivers = _gaussians(base.grid, acq.receiver_positions, acq.source_sigma)
    values = np.empty((acq.n_sources, acq.n_receivers))
    for block, u in _source_blocks(sys_, acq):
        w = _first_order_solve(sys_, dnode, u, omega2)
        values[block] = sys_.flux_rows.dot(w).T @ receivers
    return DirectionalDerivative(base_model=base, direction=direction,
                                 omega2=omega2, acquisition=acq, values=values,
                                 convention="pairing")


def default_step(base: SquaredSlownessModel) -> float:
    """Finite-difference step: 1e-3 of the coefficient's sup norm."""
    return 1e-3 * float(np.max(np.abs(base.values)))


def taylor_remainder(base: SquaredSlownessModel, direction, omega2: float,
                     acq: Acquisition, eps: float,
                     derivative: DirectionalDerivative | None = None) -> float:
    """|| F(c + eps*dc) - F(c) - eps*DF(dc) || in the weighted operator norm.

    Second-order in eps when DF is the data-convention derivative. The
    perturbed model must stay within bounds (no clamping, which would destroy
    differentiability).
    """
    direction = np.asarray(direction, dtype=float)
    if derivative is None:
        derivative = frechet_directional(base, direction, omega2, acq)
    d0 = forward_map(base, omega2, acq, check_window=False)
    d1 = forward_map(base.perturbed(eps * direction), omega2, acq,
                     check_window=False)
    resid = d1.values - d0.values - eps * derivative.values
    return weighted_operator_norm(resid, acq)


def central_difference_matrix(base: SquaredSlownessModel, direction,
                              omega2: float, acq: Acquisition,
                              eps: float) -> np.ndarray:
    """Central finite-difference slope of the data matrix along ``direction``."""
    direction = np.asarray(direction, dtype=float)
    dp = forward_map(base.perturbed(eps * direction), omega2, acq,
                     check_window=False)
    dm = forward_map(base.perturbed(-eps * direction), omega2, acq,
                     check_window=False)
    return (dp.values - dm.values) / (2.0 * eps)


@dataclass(frozen=True)
class BoundShapeReport:
    """Operator norms of DF over canonical directions, with the analytic
    bound shapes evaluated at fitted constants (report only, no pass/fail:
    the paper-level constants are unknown)."""

    omega2: float
    n_subdomains: int
    directions: tuple
    norms: np.ndarray
    distance_to_spectrum: float | None
    upper_shape_constant: float    # C in C*omega^2*(1 + omega^2/d)^2
    lower_shape_constant: float    # K in omega^2*exp(-K*(1+omega^2*B2)*N^(4/7))
    b2: float
    extra: dict = field(default_factory=dict)

    @property
    def min_norm(self) -> float:
        return float(np.min(self.norms))

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def frechet_norm_bounds_report(base: SquaredSlownessModel, omega2: float,
                               acq: Acquisition, *,
                               distance_to_spectrum: float | None = None,
                               max_directions: int = 64,
                               rng=None) -> BoundShapeReport:
    """Weighted operator norm of DF(e_j) per canonical direction.

    Enumerates all N canonical directions when N <= max_directions, otherwise
    samples that many without replacement. The two analytic bound shapes are
    juxtaposed with constants fitted to the observed min/max.
    """
    omega2 = float(omega2)
    n = base.n_subdomains
    if n <= max_directions:
        chosen = list(range(n))
    else:
        rng = np.random.default_rng(rng)
        chosen = sorted(rng.choice(n, size=max_directions, replace=False))
    norms = []
    for j in chosen:
        e = np.zeros(n)
        e[j] = 1.0
        df = frechet_directional(base, e, omega2, acq)
        norms.append(weighted_operator_norm(df.values, acq))
    norms = np.asarray(norms)

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
        omega2=omega2, n_subdomains=n, directions=tuple(chosen), norms=norms,
        distance_to_spectrum=distance_to_spectrum,
        upper_shape_constant=upper_c, lower_shape_constant=float(lower_k),
        b2=b2,
    )


def write_bounds_report_csv(path, report: BoundShapeReport):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "df_opnorm"])
        for j, nrm in zip(report.directions, report.norms):
            writer.writerow([j, f"{nrm:.17g}"])
        writer.writerow([])
        writer.writerow(["omega2", f"{report.omega2:.17g}"])
        writer.writerow(["n_subdomains", report.n_subdomains])
        writer.writerow(["min_norm", f"{report.min_norm:.17g}"])
        writer.writerow(["max_norm", f"{report.max_norm:.17g}"])
        writer.writerow(["upper_shape_constant", f"{report.upper_shape_constant:.17g}"])
        writer.writerow(["lower_shape_constant", f"{report.lower_shape_constant:.17g}"])
