"""Measurement-side formulas: retrieval efficiencies, CHSH, error bars.

All estimators are pure functions of counts and are invariant under uniform
rescaling of pulses and counts. The count fields may be scalars or arrays of
one value per Poisson replica: error bars come from resampling the counts
the estimators read, all at once, and evaluating them on the columns.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import CountsTable
from .entanglement import CHSH_SETTINGS
from .errors import (DegenerateStatisticsError, InsufficientDataError,
                     ParameterError, Record, check_in, check_seed)

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)
REPLICAS_MAX = 1_000_000  # at most 5 int64 draws a replica per table
_ANGLE_TOL = 1e-9
# theta_s and theta_as within this of each other (modulo pi) count as
# matched: the retrieval estimators' gate.
MATCHED_ANGLE_TOL = 1e-6
# The channels poisson_error draws for a table: at matched angles, what the
# retrieval estimators read; else the two sums E reads.
_MATCHED_CHANNELS = ("n_d1", "n_d2", "c13", "c24", "crossed")
_POOLED_CHANNELS = ("matched", "crossed")


class EstimateWithError(Record):
    """Point estimate with a 1-standard-deviation uncertainty."""

    value: float
    sigma: float

    def __post_init__(self):
        check_in("sigma", self.sigma, "[0, inf)")


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


def matched_angles(counts: CountsTable) -> bool:
    """Whether the table's analyzers are matched (theta_s = theta_as modulo
    pi, within ``MATCHED_ANGLE_TOL``), as the retrieval estimators need."""
    return same_angle(counts.settings.theta_s, counts.settings.theta_as,
                      tol=MATCHED_ANGLE_TOL)


def _check_retrieval_inputs(counts: CountsTable, eta_td: float) -> None:
    check_in("eta_td", eta_td, "(0, 1]")
    if not matched_angles(counts):
        raise ParameterError(
            "retrieval estimators require matched analyzer angles "
            "(theta_s = theta_as modulo pi)")


def intrinsic_retrieval_qubit(counts: CountsTable, eta_td: float) -> float:
    """Spin-wave qubit retrieval efficiency from matched-angle counts.

    R = matched / (eta_td * (n_d1 + n_d2)), matched = c13 + c24.
    """
    _check_retrieval_inputs(counts, eta_td)
    return _ratio(counts.matched, counts.n_d1 + counts.n_d2,
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


def correlation_E(counts: CountsTable) -> float:
    """Polarization correlation E = (matched - crossed) / (matched +
    crossed), matched = c13 + c24 and crossed = c14 + c23."""
    return _ratio(counts.matched - counts.crossed,
                  counts.matched + counts.crossed,
                  "no coincidences recorded")


def _match_tables(tables: Sequence[CountsTable]) -> list:
    if len(tables) != 4:
        raise ParameterError(f"CHSH needs exactly 4 tables, got {len(tables)}")
    ordered = []
    for theta_s, theta_as in CHSH_SETTINGS:
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


def bell_S_signed(tables: Sequence[CountsTable]) -> float:
    """Signed CHSH combination E1 - E2 + E3 + E4 (diagnostic)."""
    e1, e2, e3, e4 = (correlation_E(tb) for tb in _match_tables(tables))
    return e1 - e2 + e3 + e4


def bell_S(tables: Sequence[CountsTable], *, n_replicas: int = 10_000,
           seed: int = 0) -> EstimateWithError:
    """CHSH parameter |E1 - E2 + E3 + E4| with a Poisson-MC error bar."""
    return poisson_error(lambda tbs: abs(bell_S_signed(tbs)),
                         list(tables), n_replicas=n_replicas, seed=seed)


def visibility_from_S(s: float) -> float:
    """Interference visibility implied by a CHSH value: V = S / (2 sqrt 2)."""
    check_in("S", s, "[0, 4]")
    return s / TWO_ROOT_TWO


def fidelity_from_S(s: float) -> float:
    """Bell-state fidelity implied by a CHSH value: F = (3V + 1) / 4."""
    return (3.0 * visibility_from_S(s) + 1.0) / 4.0


def poisson_error(estimator: Callable | Tuple[Callable, ...], counts, *,
                  n_replicas: int = 10_000, seed: int = 0
                  ) -> EstimateWithError | List[EstimateWithError]:
    """Error bar from Poisson resampling of the counts estimators read.

    Each replica redraws, as Poisson variates with means equal to the
    observed counts, each table's channels:

    - at matched angles (:func:`matched_angles`), ``n_d1``, ``n_d2``,
      ``c13``, ``c24`` and ``crossed``, with ``matched = c13 + c24``;
    - at any other angles, ``matched`` and ``crossed``.

    A sum of independent Poisson counts is Poisson with the summed mean,
    so drawing a sum that estimators read only as a whole gives the same
    replicas as drawing its terms. The layout depends on the tables alone.
    A replica carries ``settings``, ``storage_time``, ``n_pulses`` and its
    channels; reading any other field raises AttributeError.

    ``estimator`` is evaluated once, on counts whose fields hold one value
    per replica. Returns the estimate on the original counts and the
    standard deviation over replicas. Replicas where the estimator fails
    (NaN) are dropped unless they exceed 1% of the total.

    ``estimator`` may also be a tuple of estimators, all evaluated on the
    one draw; the result is then a list with, for each estimator, what a
    call with it alone and the same seed returns (its own failure rule
    included). The point estimates come first, so one that raises costs
    no draw.
    """
    several = isinstance(estimator, tuple)
    estimators = estimator if several else (estimator,)
    check_seed(seed)
    check_in("n_replicas", n_replicas, f"[100, {REPLICAS_MAX}]")
    single = not isinstance(counts, (list, tuple))
    tables = [counts] if single else list(counts)
    values = [float(e(counts)) for e in estimators]

    layouts = [_MATCHED_CHANNELS if matched_angles(tb) else _POOLED_CHANNELS
               for tb in tables]
    lam = np.array([getattr(tb, f) for tb, channels in zip(tables, layouts)
                    for f in channels], dtype=float)
    rng = np.random.default_rng(seed)
    try:
        draws = rng.poisson(lam, size=(n_replicas, lam.size))
    except ValueError as exc:  # a count beyond numpy's Poisson range
        raise ParameterError(f"counts up to {float(lam.max())!r} cannot "
                             f"be Poisson-resampled: {exc}") from exc

    columns = iter(draws.T)
    replicas = []
    for tb, channels in zip(tables, layouts):
        drawn = dict(zip(channels, columns))
        if "c13" in drawn:
            drawn["matched"] = drawn["c13"] + drawn["c24"]
        replicas.append(SimpleNamespace(
            settings=tb.settings, storage_time=tb.storage_time,
            n_pulses=tb.n_pulses, **drawn))
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


def estimate_tables(tables: Sequence[CountsTable], eta_td: float, *,
                    n_replicas: int = 10_000, seed: int = 0
                    ) -> Dict[Tuple[Optional[int], str], EstimateWithError]:
    """The estimates of each table, keyed (table index, name): "E" when it
    has coincidences, and "r_qubit", "r_l" and "r_r" at matched angles;
    plus (None, "S") when the tables are a CHSH set.

    Estimators share a Poisson draw: a CHSH set is drawn once, for S and
    its tables' E together, any other input once per table, each with
    ``seed``.
    """
    try:
        bell_S_signed(tables)
    except ParameterError:
        groups, chsh = [[i] for i in range(len(tables))], False
    else:
        groups, chsh = [range(len(tables))], True

    def on(k, e, *args):  # e on the k-th table of a group
        return lambda tbs: e(tbs[k], *args)
    results = {}
    for group in groups:
        named = {}
        for k, i in enumerate(group):
            if tables[i].matched + tables[i].crossed > 0:
                named[i, "E"] = on(k, correlation_E)
            if matched_angles(tables[i]):
                named[i, "r_qubit"] = on(k, intrinsic_retrieval_qubit, eta_td)
                named[i, "r_l"] = on(k, intrinsic_retrieval_mode, "L", eta_td)
                named[i, "r_r"] = on(k, intrinsic_retrieval_mode, "R", eta_td)
        if chsh:
            named[None, "S"] = lambda tbs: abs(bell_S_signed(tbs))
        results.update(zip(named, poisson_error(
            tuple(named.values()), [tables[i] for i in group],
            n_replicas=n_replicas, seed=seed)))
    return results
