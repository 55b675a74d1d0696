"""Measurement-side formulas: retrieval efficiencies, CHSH, error bars.

All estimators are pure functions of counts and are invariant under uniform
rescaling of pulses and counts. The count fields may be scalars or arrays of
one value per Poisson replica: error bars come from resampling every raw
detector count at once and evaluating the estimator on the columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .engine import CountsTable
from .errors import (DegenerateStatisticsError, InsufficientDataError,
                     ParameterError)

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)
_ANGLE_TOL = 1e-9
_COUNT_FIELDS = ("n_d1", "n_d2", "c13", "c24", "c14", "c23")


@dataclass(frozen=True)
class BellSettings:
    """The four analyzer angles of a CHSH measurement, radians."""

    theta_s: float
    theta_s_prime: float
    theta_as: float
    theta_as_prime: float

    def __post_init__(self):
        if (same_angle(self.theta_s, self.theta_s_prime)
                or same_angle(self.theta_as, self.theta_as_prime)):
            raise ParameterError("CHSH settings must be four distinct angles")

    @classmethod
    def canonical(cls) -> "BellSettings":
        """The standard settings (0, 45, 22.5, 67.5) degrees."""
        return cls(0.0, math.radians(45.0), math.radians(22.5),
                   math.radians(67.5))

    @property
    def combinations(self):
        """The four (theta_s, theta_as) pairs entering S, in E-sum order."""
        return ((self.theta_s, self.theta_as),
                (self.theta_s, self.theta_as_prime),
                (self.theta_s_prime, self.theta_as),
                (self.theta_s_prime, self.theta_as_prime))


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with a 1-standard-deviation uncertainty."""

    value: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ParameterError("sigma must be >= 0")


def same_angle(a: float, b: float, tol: float = _ANGLE_TOL) -> bool:
    """Compare analyzer angles modulo pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d) <= tol


def _ratio(numerator, count, message: str, scale=1):
    """``numerator / (scale * count)`` where ``count > 0``.

    A scalar count <= 0 raises :class:`InsufficientDataError`; in an array
    such entries become NaN, without a floating-point warning.
    """
    if np.ndim(count) == 0:
        if count <= 0:
            raise InsufficientDataError(message)
        return numerator / (scale * count)
    return np.divide(numerator, scale * count, where=count > 0,
                     out=np.full(np.shape(count), np.nan))


def _check_retrieval_inputs(counts: CountsTable, eta_td: float) -> None:
    if eta_td <= 0.0:
        raise ParameterError("eta_td must be > 0")
    if not same_angle(counts.settings.theta_s, counts.settings.theta_as,
                       tol=1e-6):
        raise ParameterError(
            "retrieval estimators require matched analyzer angles "
            "(theta_s = theta_as modulo pi)")


def intrinsic_retrieval_qubit(counts: CountsTable, eta_td: float) -> float:
    """Spin-wave qubit retrieval efficiency from matched-angle counts.

    R = (c13 + c24) / (eta_td * (n_d1 + n_d2)).
    """
    _check_retrieval_inputs(counts, eta_td)
    return _ratio(counts.c13 + counts.c24, counts.n_d1 + counts.n_d2,
                  "no Stokes singles recorded", eta_td)


def intrinsic_retrieval_mode(counts: CountsTable, mode: str,
                             eta_td: float) -> float:
    """Retrieval efficiency of one spin-wave mode ("L": D1-D3, "R": D2-D4)."""
    _check_retrieval_inputs(counts, eta_td)
    if mode == "L":
        coincidences, singles = counts.c13, counts.n_d1
    elif mode == "R":
        coincidences, singles = counts.c24, counts.n_d2
    else:
        raise ParameterError(f"mode must be 'L' or 'R', got {mode!r}")
    return _ratio(coincidences, singles,
                  f"no Stokes singles for mode {mode}", eta_td)


def retrieval_background_corrected(p_s_as: float, p_s: float, p_as: float,
                                   noise_b: float, eta_s: float,
                                   eta_as: float) -> Tuple[float, float]:
    """Background- and accidental-corrected retrieval efficiencies.

    Returns (R_inc, R_net) with
    R_net = (P_SaS - P_S P_aS) / (P_S - B eta_S)  and  R_inc = R_net / eta_aS.
    A negative accidental-corrected numerator (possible at low statistics)
    is clamped to zero with a warning.
    """
    if eta_as <= 0.0:
        raise ParameterError("eta_as must be > 0")
    denom = p_s - noise_b * eta_s
    if denom <= 0.0:
        raise ParameterError(
            "Stokes probability does not exceed the background floor")
    numerator = p_s_as - p_s * p_as
    if numerator < 0.0:
        warnings.warn("accidental correction produced a negative numerator; "
                      "clamping retrieval efficiency to 0", RuntimeWarning,
                      stacklevel=2)
        return 0.0, 0.0
    r_net = numerator / denom
    return r_net / eta_as, r_net


def correlation_E(counts: CountsTable) -> float:
    """Polarization correlation E = (c13 + c24 - c14 - c23) / total."""
    return _ratio(counts.c13 + counts.c24 - counts.c14 - counts.c23,
                  counts.c13 + counts.c24 + counts.c14 + counts.c23,
                  "no coincidences recorded")


def _match_tables(tables: Sequence[CountsTable],
                  settings: BellSettings) -> list:
    if len(tables) != 4:
        raise ParameterError(f"CHSH needs exactly 4 tables, got {len(tables)}")
    ordered = []
    for theta_s, theta_as in settings.combinations:
        matches = [tb for tb in tables
                   if same_angle(tb.settings.theta_s, theta_s)
                   and same_angle(tb.settings.theta_as, theta_as)]
        if len(matches) != 1:
            raise ParameterError(
                "tables do not cover the four CHSH combinations exactly "
                f"(setting {math.degrees(theta_s):g}/"
                f"{math.degrees(theta_as):g} deg matched {len(matches)})")
        ordered.append(matches[0])
    return ordered


def bell_S_signed(tables: Sequence[CountsTable],
                  settings: BellSettings | None = None) -> float:
    """Signed CHSH combination E1 - E2 + E3 + E4 (diagnostic)."""
    settings = settings or BellSettings.canonical()
    e1, e2, e3, e4 = (correlation_E(tb) for tb in _match_tables(tables,
                                                                settings))
    return e1 - e2 + e3 + e4


def bell_S(tables: Sequence[CountsTable],
           settings: BellSettings | None = None, *,
           n_replicas: int = 10_000, seed: int = 0) -> EstimateWithError:
    """CHSH parameter |E1 - E2 + E3 + E4| with a Poisson-MC error bar."""
    settings = settings or BellSettings.canonical()
    return poisson_error(lambda tbs: abs(bell_S_signed(tbs, settings)),
                         list(tables), n_replicas=n_replicas, seed=seed)


def visibility_from_S(s: float) -> float:
    """Interference visibility implied by a CHSH value: V = S / (2 sqrt 2)."""
    if s < 0.0:
        raise ParameterError("S must be >= 0")
    return s / TWO_ROOT_TWO


def fidelity_from_S(s: float) -> float:
    """Bell-state fidelity implied by a CHSH value: F = (3V + 1) / 4."""
    return (3.0 * visibility_from_S(s) + 1.0) / 4.0


def poisson_error(estimator: Callable | Tuple[Callable, ...], counts, *,
                  n_replicas: int = 10_000, seed: int = 0
                  ) -> EstimateWithError | List[EstimateWithError]:
    """Error bar from Poisson resampling of every raw detector count.

    Each replica redraws all singles and coincidence counts as Poisson
    variates with means equal to the observed counts. ``estimator`` is
    evaluated once, on counts whose fields hold one value per replica.
    Returns the estimate on the original counts and the standard deviation
    over replicas. Replicas where the estimator fails (NaN) are dropped
    unless they exceed 1% of the total.

    ``estimator`` may also be a tuple of estimators, all evaluated on the
    one draw; the result is then a list with, for each estimator, what a
    call with it alone and the same seed returns (its own failure rule
    included). The point estimates come first, so one that raises costs
    no draw.
    """
    several = isinstance(estimator, tuple)
    estimators = estimator if several else (estimator,)
    if n_replicas < 100:
        raise ParameterError("n_replicas must be >= 100")
    single = not isinstance(counts, (list, tuple))
    tables = [counts] if single else list(counts)
    values = [float(e(counts)) for e in estimators]

    lam = np.array([[getattr(tb, f) for f in _COUNT_FIELDS] for tb in tables],
                   dtype=float)
    rng = np.random.default_rng(seed)
    try:
        draws = rng.poisson(lam, size=(n_replicas, *lam.shape))
    except ValueError as exc:  # a count beyond numpy's Poisson range
        raise ParameterError(f"counts up to {float(lam.max())!r} cannot "
                             f"be Poisson-resampled: {exc}") from exc

    replicas = [SimpleNamespace(**vars(tb) | dict(zip(_COUNT_FIELDS, col.T)))
                for tb, col in zip(tables, draws.swapaxes(0, 1))]
    estimates = []
    for e, value in zip(estimators, values):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            results = np.asarray(e(replicas[0] if single else replicas),
                                 dtype=float)
            failed = np.isnan(results)
            failures = int(failed.sum())
            if failures > 0.01 * n_replicas:
                raise DegenerateStatisticsError(
                    f"{failures}/{n_replicas} resampling replicas failed")
            sigma = float(np.std(results[~failed]))
        if not (math.isfinite(value) and math.isfinite(sigma)):
            raise DegenerateStatisticsError(
                f"estimate {value!r} with spread {sigma!r} is not finite")
        estimates.append(EstimateWithError(value=value, sigma=sigma))
    return estimates if several else estimates[0]
