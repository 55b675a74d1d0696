"""Retrieval-efficiency decay model and its least-squares fit.

The decay model is R(t) = R0 * (exp(-t^2/tau0^2) + exp(-t/tau0)) / 2, a
half-Gaussian/half-exponential mix whose 1/e point sits exactly at t = tau0.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .params import DecayParams
from .solve import find_minimum

# Fitter: r0 has a closed form for each tau0, which leaves a 1-D search in
# y = log(tau0 / t_max): a grid seed, a walk past its edge, then Brent.
GRID_POINTS = 100
GRID_LOG_TAU = np.linspace(-math.log(100.0), math.log(100.0), GRID_POINTS)
GRID_TAU = np.exp(GRID_LOG_TAU)[:, None]  # tau0 / t_max in [1/100, 100]
# Grid cells whose objectives agree within this relative margin are tied;
# ties resolve to the smallest tau0 for determinism.
GRID_TIE_REL = 1e-9
# The walk stops at |y| = WALK_LIMIT, where exp(y) is still a normal float.
WALK_LIMIT = 700.0


def retrieval_decay(p: DecayParams, t: float) -> float:
    """Retrieval efficiency after storage time ``t``, s."""
    if not t >= 0.0:  # NaN fails too
        raise ParameterError("storage time must be >= 0")
    x = t / p.tau0  # x * x -> inf: exp(-inf) = 0 exactly
    return p.r0 * (math.exp(-x * x) + math.exp(-x)) / 2.0


def _as_sample_arrays(samples) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Storage times, efficiencies and least-squares weights 1/sigma^2
    (ones without a sigma column) of checked samples."""
    rows = list(samples)
    if len(rows) < 3:
        raise ParameterError("need at least 3 samples to fit the decay model")
    widths = {len(row) for row in rows}
    if widths == {2}:
        sigma = None
    elif widths == {3}:
        sigma = np.array([row[2] for row in rows], dtype=float)
    else:
        raise ParameterError(
            "samples must be uniformly (t, R) or (t, R, sigma)")
    t = np.array([row[0] for row in rows], dtype=float)
    r = np.array([row[1] for row in rows], dtype=float)
    for name, values in (("storage times", t), ("efficiencies", r),
                         ("uncertainties", sigma)):
        if values is not None and not np.isfinite(values).all():
            raise ParameterError(f"sample {name} must be finite")
    if sigma is not None and (sigma <= 0.0).any():
        raise ParameterError("sample uncertainties must be > 0")
    if (t < 0.0).any():
        raise ParameterError("storage times must be >= 0")
    if (r < 0.0).any():
        raise ParameterError("efficiencies must be >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        w = np.ones_like(r) if sigma is None else 1.0 / (sigma * sigma)
        # The model lies in [0, 1], so no residual exceeds max(R, 1): below
        # this bound every objective value is finite.
        bound = float(np.add.reduce(w * np.maximum(r, 1.0) ** 2))
    if not np.isfinite(w).all():
        raise ParameterError(
            "sample uncertainties too small: 1/sigma^2 overflows")
    if not math.isfinite(bound):
        raise ParameterError("weighted squared residuals overflow: sample "
                             "efficiencies too large or uncertainties "
                             "too small")
    if len(set(t.tolist())) < 3:  # np.unique would import numpy.ma
        raise DegenerateDataError(
            "samples need at least 3 distinct storage times")
    return t, r, w


def fit_decay(samples: Sequence[Sequence[float]]) -> Tuple[DecayParams, float]:
    """Least-squares fit of (t, R[, sigma]) samples to the decay model.

    Returns the fitted parameters and the minimized (weighted) sum of
    squared residuals. The model is linear in r0, so each tau0 has a best
    r0 in closed form (clipped to [0, 1], where the objective is a convex
    quadratic in r0), and the fit is a search over log tau0 alone: a grid
    over tau0 in [t_max/100, 100 t_max], a walk past the grid's edge while
    the objective falls, then Brent's method (``solve.FIT_MAX_ITER`` steps).
    Flat or rising data fit best in the limit tau0 -> inf, the model r0 at
    every sample: when that limit is no worse than the best finite tau0,
    tau0 is reported as inf. A walk that reaches the limit's objective
    returns it without Brent.
    """
    t, r, w = _as_sample_arrays(samples)
    t_max = float(t.max())
    if t_max <= 0.0:
        raise DegenerateDataError("samples need a positive storage time")

    # With h = sqrt(w) g and q = sqrt(w) R, the objective of the model r0 g
    # is |r0 h - q|^2, least at r0 = (h . q) / (h . h).
    s = t / t_max
    sw = np.sqrt(w)
    half_sw = sw / 2.0
    q = sw * r

    def shape(u):
        """h at u = t / tau0 (any shape ending in the samples' axis)."""
        return half_sw * (np.exp(-u * u) + np.exp(-u))

    def best_r0(h):
        """Best r0 for the model shape h, clipped to [0, 1], and its
        objective; h . h = 0 (every g underflowed) fits any r0 alike."""
        b = float(h @ h)
        r0 = min(max(float(h @ q) / b, 0.0), 1.0) if b else 0.0
        d = r0 * h - q
        return r0, float(d @ d)

    def objective(y):
        """The objective at the best r0 for tau0 = t_max exp(y)."""
        return best_r0(shape(s / math.exp(y)))[1]

    # u * u -> inf gives exp(-inf) = 0 exactly; a grid row with h . h = 0
    # gives r0 = NaN, taken as 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h = shape(s / GRID_TAU)
        r0 = np.fmin(np.fmax((h @ q) / np.einsum("ij,ij->i", h, h), 0.0),
                     1.0)
        d = r0[:, None] * h - q
        grid = np.einsum("ij,ij->i", d, d)
        i = int(np.argmax(grid <= grid.min() * (1.0 + GRID_TIE_REL)))
        y = GRID_LOG_TAU.tolist()
        x, fx = y[i], float(grid[i])
        r0_inf, f_inf = best_r0(sw)  # tau0 -> inf: g = 1 at every sample
        if 0 < i < GRID_POINTS - 1:
            a, b = y[i - 1], y[i + 1]
        else:  # walk outward, doubling the step, while the objective falls
            step = (y[1] - y[0]) * (1.0 if i else -1.0)
            inner, out = x - step, x
            while abs(out) < WALK_LIMIT:
                step *= 2.0
                out = min(max(x + step, -WALK_LIMIT), WALK_LIMIT)
                f_out = objective(out)
                if not f_out < fx:
                    break
                inner, x, fx = x, out, f_out
            if fx == f_inf:  # the walk reached the limit's objective
                return DecayParams(r0_inf, math.inf), f_inf
            a, b = sorted((inner, out))
        x, _ = find_minimum(objective, a, x, b, fx)
        r0, fx = best_r0(shape(s / math.exp(x)))
    if f_inf <= fx:
        return DecayParams(r0_inf, math.inf), f_inf
    return DecayParams(r0, t_max * math.exp(x)), fx
