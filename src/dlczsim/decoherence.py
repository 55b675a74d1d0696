"""Retrieval-efficiency decay model, motional-lifetime estimate, and fitting.

The decay model is R(t) = R0 * (exp(-t^2/tau0^2) + exp(-t/tau0)) / 2, a
half-Gaussian/half-exponential mix whose 1/e point sits exactly at t = tau0.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import (DegenerateDataError, FitConvergenceError, ParameterError)
from .params import (BOLTZMANN_K, DecayParams, EnsembleGeometry,
                     coupling_angle)

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
FIT_MAX_ITER = 10_000
LOG_TAU_TOL = 1e-10  # Brent's absolute tolerance in log tau0
GOLDEN = 0.3819660112501051  # (3 - sqrt(5)) / 2


def retrieval_decay(p: DecayParams, t):
    """Retrieval efficiency after storage time ``t`` (scalar or array), s."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):  # NaN fails too
        raise ParameterError("storage time must be >= 0")
    with np.errstate(over="ignore"):  # x * x -> inf: exp(-inf) = 0 exactly
        x = t / p.tau0
        out = p.r0 * (np.exp(-x * x) + np.exp(-x)) / 2.0
    return float(out) if out.ndim == 0 else out


def motional_lifetime(geom: EnsembleGeometry) -> float:
    """Memory lifetime limited by thermal atomic motion, seconds.

    tau_a = 1 / (|dk| * v_a) with |dk| = 2 k sin(theta/2) the spin-wave
    wave-vector magnitude and v_a = sqrt(kB T / m) the thermal speed.
    Raises ``OverflowError`` when dk v_a or 1 / (dk v_a) is not a finite
    float: an overflowed k or v_a would otherwise give a lifetime of 0.
    """
    theta = coupling_angle(geom)
    k = 2.0 * math.pi / geom.wavelength
    dk = 2.0 * k * math.sin(theta / 2.0)
    v_a = math.sqrt(BOLTZMANN_K * geom.temperature / geom.atomic_mass)
    rate = dk * v_a
    tau = 1.0 / rate if rate else math.inf
    if not (math.isfinite(rate) and math.isfinite(tau)):
        raise OverflowError(f"motional lifetime 1 / (dk v_a) is not a finite "
                            f"nonzero number: dk v_a = {rate!r}")
    return tau


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


def _brent(f, a, x, b, fx, max_iter):
    """Minimum of ``f`` on [a, b] by Brent's method, from x in [a, b] with
    f(x) = fx: parabolic steps through the three best points, golden
    section when a parabola would not shrink the bracket. A point replaces
    the best only when strictly lower, so ties keep the earlier one."""
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * LOG_TAU_TOL - 0.5 * (b - a):
            return x, fx
        p = q = 0.0
        if abs(e) > LOG_TAU_TOL:  # parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if q and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * LOG_TAU_TOL or b - x - d < 2.0 * LOG_TAU_TOL:
                d = math.copysign(LOG_TAU_TOL, m - x)
        else:
            e = (a if x >= m else b) - x
            d = GOLDEN * e
        u = x + (d if abs(d) >= LOG_TAU_TOL else math.copysign(LOG_TAU_TOL, d))
        fu = f(u)
        if fu < fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise FitConvergenceError(
        f"decay fit did not converge within {max_iter} iterations")


def fit_decay(samples: Sequence[Sequence[float]]) -> Tuple[DecayParams, float]:
    """Least-squares fit of (t, R[, sigma]) samples to the decay model.

    Returns the fitted parameters and the minimized (weighted) sum of
    squared residuals. The model is linear in r0, so each tau0 has a best
    r0 in closed form (clipped to [0, 1], where the objective is a convex
    quadratic in r0), and the fit is a search over log tau0 alone: a grid
    over tau0 in [t_max/100, 100 t_max], a walk past the grid's edge while
    the objective falls, then Brent's method (``FIT_MAX_ITER`` steps).
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
        x, _ = _brent(objective, a, x, b, fx, FIT_MAX_ITER)
        r0, fx = best_r0(shape(s / math.exp(x)))
    if f_inf <= fx:
        return DecayParams(r0_inf, math.inf), f_inf
    return DecayParams(r0, t_max * math.exp(x)), fx
