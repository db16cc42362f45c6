"""Numerical laboratory for Lipschitz stability constants of the Helmholtz
inverse boundary value problem with Dirichlet-to-Neumann data."""

from .geometry import (
    BoxGrid,
    CubicalPartition,
    build_grid,
    build_partition,
)
from .model import (
    SquaredSlownessModel,
    from_gridded_field,
    l2_distance,
    to_cell_field,
)
from .spectrum import (
    FrequencyWindows,
    discrete_dirichlet_eigenvalues,
    frequency_safety,
    windows_covering,
)
from .solver import (
    HelmholtzSystem,
    assemble,
    normal_derivative,
    solve_dirichlet,
)
from .forward import (
    Acquisition,
    DtnData,
    dtn_operator_norm,
    forward_map,
    gaussian_source,
    make_acquisition,
)
from .derivative import (
    frechet_directional,
    frechet_jacobian,
    frechet_norm_bounds_report,
)
from .stability import (
    BoundConstants,
    StabilityRecord,
    estimate_constant,
    evaluate_bounds,
    fit_constants,
    fractional_sobolev_check,
)

__version__ = "0.1.0"
