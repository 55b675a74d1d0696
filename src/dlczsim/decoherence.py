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

# Fitter defaults: coarse grid seed, then derivative-free simplex descent.
GRID_POINTS = 25
FIT_MAX_ITER = 10_000
FIT_REL_TOL = 1e-12
SIMPLEX_STEPS = (0.02, 0.1)  # initial simplex offsets in (r0, log tau0)
# Grid cells whose objectives agree within this relative margin are tied;
# ties resolve to the smallest tau0 for determinism.
GRID_TIE_REL = 1e-9
# After a failed fit, the retry grid's smallest tau0 relative to the
# earliest positive storage time.
RETRY_TAU_FLOOR = 1e-2


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
    """
    theta = coupling_angle(geom)
    k = 2.0 * math.pi / geom.wavelength
    dk = 2.0 * k * math.sin(theta / 2.0)
    v_a = math.sqrt(BOLTZMANN_K * geom.temperature / geom.atomic_mass)
    return 1.0 / (dk * v_a)


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


def _max(pair):
    """Larger of a pair of floats; NaN if either is NaN (as ``np.max``)."""
    a, b = pair
    return b if b > a or b != b else a


def _before(f, g):
    """Whether objective ``f`` sorts before ``g``: ascending, NaN last."""
    return f < g or (f == f and g != g)


def _nelder_mead(fun, start, *, max_iter=FIT_MAX_ITER):
    """Nelder-Mead simplex descent in two parameters.

    The three vertices are float pairs ``(x, y)``, sorted stably by their
    objective with NaN last. Converges when the simplex objective spread
    falls below ``FIT_REL_TOL`` relative to the best value; raises if the
    iteration budget runs out. A simplex collapsed to machine precision
    also counts as converged (an exact fit drives the objective to
    rounding noise, where no relative criterion can ever be met).
    """
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = x0 + SIMPLEX_STEPS[0], y0
    x2, y2 = x0, y0 + SIMPLEX_STEPS[1]
    f0, f1, f2 = fun((x0, y0)), fun((x1, y1)), fun((x2, y2))

    for _ in range(max_iter):
        if _before(f1, f0):
            x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
        if _before(f2, f1):
            x1, y1, f1, x2, y2, f2 = x2, y2, f2, x1, y1, f1
            if _before(f1, f0):
                x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
        if f2 - f0 <= FIT_REL_TOL * (abs(f0) + 1e-300):
            return (x0, y0), f0
        # Spread from the best vertex: a NaN coordinate makes its vertex's
        # spread NaN (as np.max), but the larger of the two vertices' is
        # taken as the builtin max does, which passes over a NaN second.
        s1 = _max((abs(x1 - x0), abs(y1 - y0)))
        s2 = _max((abs(x2 - x0), abs(y2 - y0)))
        spread = s2 if s2 > s1 else s1
        if spread <= 1e-14 * (1.0 + _max((abs(x0), abs(y0)))):
            return (x0, y0), f0

        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        rx, ry = cx + (cx - x2), cy + (cy - y2)
        f_r = fun((rx, ry))
        if f_r < f0:
            ex, ey = cx + 2.0 * (cx - x2), cy + 2.0 * (cy - y2)
            f_e = fun((ex, ey))
            if f_e < f_r:
                x2, y2, f2 = ex, ey, f_e
            else:
                x2, y2, f2 = rx, ry, f_r
        elif f_r < f1:
            x2, y2, f2 = rx, ry, f_r
        else:
            kx, ky = cx + 0.5 * (x2 - cx), cy + 0.5 * (y2 - cy)
            f_c = fun((kx, ky))
            if f_c < f2:
                x2, y2, f2 = kx, ky, f_c
            else:
                x1, y1 = x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0)
                x2, y2 = x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0)
                f1, f2 = fun((x1, y1)), fun((x2, y2))
    raise FitConvergenceError(
        f"decay fit did not converge within {max_iter} iterations")


def fit_decay(samples: Sequence[Sequence[float]], *,
              max_iter: int = FIT_MAX_ITER) -> Tuple[DecayParams, float]:
    """Least-squares fit of (t, R[, sigma]) samples to the decay model.

    Returns the fitted parameters and the minimized (weighted) sum of
    squared residuals. Seeded by a coarse grid over r0 in [max R, 1] and
    tau0 in [t_max/10, 10 t_max]; refined in (r0, log tau0) space. A fit
    that does not converge is retried once, from a grid whose tau0 reaches
    down to ``RETRY_TAU_FLOOR`` times the earliest positive storage time.
    """
    t, r, w = _as_sample_arrays(samples)
    t_max = float(t.max())
    if t_max <= 0.0:
        raise DegenerateDataError("samples need a positive storage time")

    # The objective's arrays live in one buffer laid out as [t | -t]: one
    # division gives [u | -u], their product -u*u, then one exp call. Every
    # float operation and its order are those of
    # r0 * (exp(-u*u) + exp(-u)) / 2, then sum(w * (model - r)**2).
    n = t.size
    signed_t = np.concatenate((t, -t))
    buf = np.empty(2 * n)
    acc, tail = buf[:n], buf[n:]

    def objective(x):
        r0, log_tau = x
        if not 0.0 <= r0 <= 1.0:
            return math.inf
        np.divide(signed_t, math.exp(log_tau), out=buf)
        np.multiply(acc, tail, out=acc)
        np.exp(buf, out=buf)
        np.add(acc, tail, out=acc)
        np.multiply(r0, acc, out=acc)
        np.divide(acc, 2.0, out=acc)
        np.subtract(acc, r, out=acc)
        np.square(acc, out=acc)
        np.multiply(w, acc, out=acc)
        return float(np.add.reduce(acc))

    def grid_start(tau_lo):
        """The best cell of a GRID_POINTS^2 grid over r0 in [max R, 1] and
        tau0 in [tau_lo, 10 t_max], all at once, in place, with the
        objective's float operations: the taus are exp(log(tau)), as the
        simplex evaluates them."""
        r0_grid = np.linspace(min(float(r.max()), 1.0), 1.0, GRID_POINTS)
        log_taus = [math.log(tau) for tau in
                    np.geomspace(tau_lo, 10.0 * t_max, GRID_POINTS)]
        terms = signed_t / np.array([math.exp(x) for x in log_taus])[:, None]
        np.multiply(terms[:, :n], terms[:, n:], out=terms[:, :n])
        np.exp(terms, out=terms)
        np.add(terms[:, :n], terms[:, n:], out=terms[:, :n])
        model = r0_grid[:, None] * terms[:, None, :n]  # (tau, r0, sample)
        np.divide(model, 2.0, out=model)
        np.subtract(model, r, out=model)
        np.square(model, out=model)
        np.multiply(w, model, out=model)
        grid = np.add.reduce(model, axis=-1).tolist()
        r0s = r0_grid.tolist()
        best_x, bar = None, math.inf  # bar: best value less the tie margin
        # tau ascending: ties keep the smallest tau0
        for log_tau, row in zip(log_taus, grid):
            for r0, fval in zip(r0s, row):
                if fval < bar or best_x is None:
                    best_x, bar = (r0, log_tau), fval * (1.0 - GRID_TIE_REL)
        return best_x

    try:
        x_opt, f_opt = _nelder_mead(objective, grid_start(t_max / 10.0),
                                    max_iter=max_iter)
    except FitConvergenceError:
        # A tau0 far below the grid leaves the model near 0 at every
        # sample, a plateau the simplex may not leave.
        tau_lo = float(t[t > 0.0].min()) * RETRY_TAU_FLOOR
        x_opt, f_opt = _nelder_mead(objective, grid_start(tau_lo),
                                    max_iter=max_iter)
    r0_fit = min(max(float(x_opt[0]), 0.0), 1.0)
    return DecayParams(r0_fit, math.exp(float(x_opt[1]))), f_opt
