"""Stability-constant estimation across partition scales, analytic bound
evaluation, constant fitting, and the constant-free fractional-Sobolev check.

The primary reported constant is the *unsquared* ratio

    c_est = ||c1^-2 - c2^-2||_L2 / ||F(c1^-2) - F(c2^-2)||,

matching the bound formulas; the squared-norm convention (both sides of the
defining inequality squared) is carried alongside as ``c_est_sq = c_est**2``
because the two conventions are easy to silently confuse. The exponents 1/5
and 4/7 in the analytic bounds come from the three-dimensional analysis and
are used verbatim in every dimension ("3D-nominal"); output metadata says so.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateInputError, IllConditionedEstimateError
from .forward import NORM_KIND, Acquisition, dtn_operator_norm, forward_map
from .model import SquaredSlownessModel, l2_distance

__all__ = [
    "StabilityRecord",
    "BoundConstants",
    "BoundOverflowWarning",
    "estimate_constant",
    "evaluate_bounds",
    "fill_bounds",
    "fit_constants",
    "fractional_sobolev_check",
    "FractionalSobolevReport",
    "write_records_csv",
    "read_records_csv",
    "RECORD_COLUMNS",
]

LOWER_EXPONENT = 1.0 / 5.0   # 3D-nominal
UPPER_EXPONENT = 4.0 / 7.0   # 3D-nominal

RECORD_COLUMNS = [
    "N", "omega2", "freq_hz", "model_l2", "data_norm", "c_est", "c_est_sq",
    "lower_bound", "upper_bound", "mode", "norm_kind",
]


class BoundOverflowWarning(RuntimeWarning):
    """An analytic bound overflowed and was saturated to the float maximum."""


@dataclass(frozen=True)
class StabilityRecord:
    """One (partition scale, frequency, acquisition mode) stability estimate."""

    n_subdomains: int
    omega2: float
    freq_hz: float
    model_l2: float
    data_norm: float
    c_est: float
    mode: str
    norm_kind: str = NORM_KIND
    lower_bound: float | None = None
    upper_bound: float | None = None
    c_est_sq: float = field(init=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "c_est_sq", self.c_est * self.c_est)


@dataclass(frozen=True)
class BoundConstants:
    """Fitted constants of the analytic lower/upper bound formulas."""

    k: float          # upper-bound constant
    k1: float         # lower-bound constant
    b2: float
    records_used: int
    first_scale_count: int = 0

    def __post_init__(self):
        if self.records_used < 1:
            raise ValueError("need at least one record")
        if not (np.isfinite(self.k) and np.isfinite(self.k1)):
            raise ValueError("fitted constants must be finite")


def estimate_constant(m1: SquaredSlownessModel, m2: SquaredSlownessModel,
                      omega2: float, acq: Acquisition, *,
                      freq_hz: float | None = None) -> StabilityRecord:
    """Estimate the stability constant for one model pair.

    Simulates the data for both media, computes the weighted operator norm of
    the difference, and reports model-distance / data-distance. The bounds
    stay unset until :func:`fill_bounds` adds them from fitted constants.
    omega^2 is taken as given (see :func:`forward.forward_map`);
    :func:`spectrum.frequency_safety` says whether it is admissible.
    """
    model_l2 = l2_distance(m1, m2)
    if np.array_equal(m1.values, m2.values):
        raise DegenerateInputError("models are identical; the ratio is undefined")
    omega2 = float(omega2)

    d1 = forward_map(m1, omega2, acq)
    d2 = forward_map(m2, omega2, acq)
    data_norm = dtn_operator_norm(d1, d2)
    if data_norm < 1e-14 * model_l2:
        raise IllConditionedEstimateError(
            f"data difference {data_norm:.3g} is below 1e-14 of the model "
            f"difference {model_l2:.3g}"
        )

    return StabilityRecord(
        n_subdomains=m1.n_subdomains,
        omega2=omega2,
        freq_hz=float(freq_hz) if freq_hz is not None
        else float(np.sqrt(omega2) / (2.0 * np.pi)),
        model_l2=model_l2,
        data_norm=data_norm,
        c_est=model_l2 / data_norm,
        mode=acq.mode,
    )


_FLOAT_MAX = float(np.finfo(np.float64).max)
_LOG_FLOAT_MAX = float(np.log(_FLOAT_MAX))


def _saturating_exp(log_value: float, label: str) -> float:
    if log_value > _LOG_FLOAT_MAX:
        warnings.warn(
            f"{label} overflowed (log value {log_value:.3g}); saturated to "
            f"float max",
            BoundOverflowWarning,
            stacklevel=3,
        )
        return _FLOAT_MAX
    return float(np.exp(log_value))


def evaluate_bounds(n: int, omega2: float, constants: BoundConstants):
    """Analytic (lower, upper) bounds at partition scale N.

    lower = (1 / (4 omega^2)) * exp(k1 * N^(1/5))
    upper = (1 / omega^2) * exp(k * (1 + omega^2 b2) * N^(4/7))

    Overflowing values saturate to the float maximum with a
    :class:`BoundOverflowWarning`.
    """
    n = int(n)
    omega2 = float(omega2)
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if not 0.0 < omega2 < np.inf:
        raise ValueError(f"omega^2 must be positive and finite, got {omega2}")
    log_lower = constants.k1 * n ** LOWER_EXPONENT - np.log(4.0 * omega2)
    log_upper = (constants.k * (1.0 + omega2 * constants.b2)
                 * n ** UPPER_EXPONENT - np.log(omega2))
    return (_saturating_exp(log_lower, "lower bound"),
            _saturating_exp(log_upper, "upper bound"))


def fill_bounds(record: StabilityRecord, constants: BoundConstants) -> StabilityRecord:
    lower, upper = evaluate_bounds(record.n_subdomains, record.omega2, constants)
    return replace(record, lower_bound=lower, upper_bound=upper)


def fit_constants(records, b2: float, first_scale_count: int | None = None
                  ) -> BoundConstants:
    """Fit the bound constants to stability estimates at one frequency.

    k1 averages ``log(4 omega^2 C_i) / N_i^(1/5)`` over all records; k
    averages ``log(omega^2 C_i) / ((1 + omega^2 b2) N_i^(4/7))`` over the
    records with the smallest N (default: the ceil(n/2) first scales, since
    the upper-bound shape grows too rapidly to match fine scales).
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    omega2 = records[0].omega2
    if any(r.omega2 != omega2 for r in records):
        raise ValueError("all records must share one omega^2")
    if any(r.c_est <= 0 for r in records):
        raise ValueError("every record must have a positive c_est")
    b2 = float(b2)

    ordered = sorted(records, key=lambda r: r.n_subdomains)
    n_st = len(ordered)
    k1 = float(np.mean([
        np.log(4.0 * omega2 * r.c_est) / r.n_subdomains ** LOWER_EXPONENT
        for r in ordered
    ]))
    if first_scale_count is None:
        first_scale_count = int(np.ceil(n_st / 2))
    first_scale_count = max(1, min(first_scale_count, n_st))
    first = ordered[:first_scale_count]
    k = float(np.mean([
        np.log(omega2 * r.c_est)
        / ((1.0 + omega2 * b2) * r.n_subdomains ** UPPER_EXPONENT)
        for r in first
    ]))
    return BoundConstants(k=k, k1=k1, b2=b2, records_used=n_st,
                          first_scale_count=first_scale_count)


# -- fractional-Sobolev inequality -------------------------------------------------

@dataclass(frozen=True, eq=False)
class FractionalSobolevReport:
    """Monte-Carlo check of ||f||^2_{H^s'} <= 2 sum_j c_j^2 ||chi_j||^2_{H^s'}."""

    s_prime: float
    lhs: float
    rhs_total: float
    per_subdomain: np.ndarray      # ||chi_j||^2 seminorm estimates
    defect: float                  # rhs_total - lhs (>= 0 pointwise by design)
    defect_se: float               # standard error of the defect estimate
    samples_used: int
    samples_rejected: int

    @property
    def satisfied(self) -> bool:
        """Inequality holds within three Monte-Carlo standard errors."""
        return self.defect >= -3.0 * self.defect_se


def fractional_sobolev_check(m: SquaredSlownessModel, s_prime: float,
                             samples: int, rng=None) -> FractionalSobolevReport:
    """Estimate both sides of the indicator-decomposition inequality.

    The Gagliardo seminorm double integrals for f = c^-2 and for each block
    indicator are estimated with one shared set of uniform point pairs
    (common random numbers: the pointwise inequality then transfers directly
    to the estimates). Pairs closer than 1e-6 * diam(Omega) are rejected; the
    integrand is integrable for s' < 1/2 so the excluded mass is negligible.
    """
    s_prime = float(s_prime)
    if not (0.0 < s_prime < 0.5):
        raise ValueError(f"s' must lie in (0, 1/2), got {s_prime}")
    samples = int(samples)
    if samples < 1:
        raise ValueError("need a positive sample count")
    if samples < 10_000:
        warnings.warn(
            f"{samples} sample pairs give wide error bars; 1e4+ recommended",
            stacklevel=2,
        )
    grid = m.grid
    if grid.dim != 2:
        warnings.warn("fractional-Sobolev check is costly beyond 2D",
                      stacklevel=2)
    rng = np.random.default_rng(rng)

    extents = np.asarray(grid.extents)
    x = rng.uniform(0.0, 1.0, size=(samples, grid.dim)) * extents
    y = rng.uniform(0.0, 1.0, size=(samples, grid.dim)) * extents
    r = np.linalg.norm(x - y, axis=1)
    keep = r >= 1e-6 * float(np.linalg.norm(extents))
    x, y, r = x[keep], y[keep], r[keep]
    used = int(keep.sum())
    rejected = samples - used

    def subdomain_of(pts):
        cells = np.minimum(
            (pts / np.asarray(grid.spacing)).astype(np.int64),
            np.asarray(grid.cells_per_axis) - 1,
        )
        return m.partition.cell_to_subdomain[grid.cell_index(cells)]

    sx = subdomain_of(x)
    sy = subdomain_of(y)
    kernel = r ** (-(grid.dim + 2.0 * s_prime))
    volume_sq = float(np.prod(extents)) ** 2

    c = m.values
    diff = (c[sx] - c[sy]) ** 2 * kernel
    lhs = volume_sq * float(np.mean(diff))

    # (chi_j(x) - chi_j(y))^2 is 1 exactly for j in {sx, sy} when they differ
    crossing = sx != sy
    contrib = np.where(crossing, kernel, 0.0)
    per_j = np.bincount(sx, weights=contrib, minlength=m.n_subdomains)
    per_j += np.bincount(sy, weights=contrib, minlength=m.n_subdomains)
    per_j = volume_sq * per_j / used

    rhs_point = 2.0 * np.where(crossing, (c[sx] ** 2 + c[sy] ** 2) * kernel, 0.0)
    defect_samples = rhs_point - diff
    defect = volume_sq * float(np.mean(defect_samples))
    defect_se = volume_sq * float(np.std(defect_samples, ddof=1)) / np.sqrt(used)

    return FractionalSobolevReport(
        s_prime=s_prime,
        lhs=lhs,
        rhs_total=2.0 * float(np.sum(c * c * per_j)),
        per_subdomain=per_j,
        defect=defect,
        defect_se=defect_se,
        samples_used=used,
        samples_rejected=rejected,
    )


# -- record CSV ----------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{x:.17g}"


def write_records_csv(path, records, comments=()):
    """Stability records in the documented column order, '#' comments first."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([
                r.n_subdomains, _fmt(r.omega2), _fmt(r.freq_hz),
                _fmt(r.model_l2), _fmt(r.data_norm), _fmt(r.c_est),
                _fmt(r.c_est_sq), _fmt(r.lower_bound), _fmt(r.upper_bound),
                r.mode, r.norm_kind,
            ])


def read_records_csv(path) -> list[dict]:
    """Rows as dicts with numeric fields parsed (comments skipped)."""
    rows = []
    with open(path, "r", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    for row in reader:
        parsed = dict(row)
        parsed["N"] = int(row["N"])
        for key in ("omega2", "freq_hz", "model_l2", "data_norm", "c_est",
                    "c_est_sq", "lower_bound", "upper_bound"):
            parsed[key] = float(row[key])
        rows.append(parsed)
    return rows
