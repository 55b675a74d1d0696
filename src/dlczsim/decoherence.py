"""Retrieval-efficiency decay model, motional-lifetime estimate, and fitting.

The decay model is R(t) = R0 * (exp(-t^2/tau0^2) + exp(-t/tau0)) / 2, a
half-Gaussian/half-exponential mix whose 1/e point sits exactly at t = tau0.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateDataError, FitConvergenceError, ParameterError)
from .params import (BOLTZMANN_K, DecayParams, EnsembleGeometry,
                     coupling_angle)

# Fitter defaults: coarse grid seed, then derivative-free simplex descent.
GRID_POINTS = 25
FIT_MAX_ITER = 10_000
FIT_REL_TOL = 1e-12
# Grid cells whose objectives agree within this relative margin are tied;
# ties resolve to the smallest tau0 for determinism.
GRID_TIE_REL = 1e-9


def retrieval_decay(p: DecayParams, t):
    """Retrieval efficiency after storage time ``t`` (scalar or array), s."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
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
                                        Optional[np.ndarray]]:
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
        if values is not None and not np.all(np.isfinite(values)):
            raise ParameterError(f"sample {name} must be finite")
    if sigma is not None and np.any(sigma <= 0.0):
        raise ParameterError("sample uncertainties must be > 0")
    if np.any(t < 0.0):
        raise ParameterError("storage times must be >= 0")
    if np.any(r < 0.0):
        raise ParameterError("efficiencies must be >= 0")
    if np.unique(t).size < 3:
        raise DegenerateDataError(
            "samples need at least 3 distinct storage times")
    return t, r, sigma


def _max(values):
    """Largest of the list ``values``; NaN if any is NaN (as ``np.max``)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _nelder_mead(fun, x0, *, rel_tol=FIT_REL_TOL, max_iter=FIT_MAX_ITER,
                 steps=(0.02, 0.1)):
    """Minimal Nelder-Mead simplex descent for a handful of parameters.

    Vertices are tuples of floats. Converges when the simplex objective
    spread falls below ``rel_tol`` relative to the best value; raises if
    the iteration budget runs out. A simplex collapsed to machine
    precision also counts as converged (an exact fit drives the objective
    to rounding noise, where no relative criterion can ever be met).
    """
    n = len(x0)
    simplex = [tuple(float(c) for c in x0)]
    simplex += [tuple(c + steps[i] if j == i else c
                      for j, c in enumerate(simplex[0])) for i in range(n)]
    f = [fun(v) for v in simplex]

    for _ in range(max_iter):
        # stable, NaN last (as np.argsort(kind="stable"))
        order = sorted(range(n + 1), key=lambda i: (f[i] != f[i], f[i]))
        simplex = [simplex[i] for i in order]
        f = [f[i] for i in order]
        if f[-1] - f[0] <= rel_tol * (abs(f[0]) + 1e-300):
            return simplex[0], f[0]
        best = simplex[0]
        spread = max([_max([abs(a - b) for a, b in zip(v, best)])
                      for v in simplex[1:]])
        if spread <= 1e-14 * (1.0 + _max([abs(c) for c in best])):
            return best, f[0]

        centroid = tuple([sum(c[1:], c[0]) / n for c in zip(*simplex[:-1])])
        worst = simplex[-1]
        reflected = tuple([c + (c - w) for c, w in zip(centroid, worst)])
        f_r = fun(reflected)
        if f_r < f[0]:
            expanded = tuple([c + 2.0 * (c - w)
                              for c, w in zip(centroid, worst)])
            f_e = fun(expanded)
            if f_e < f_r:
                simplex[-1], f[-1] = expanded, f_e
            else:
                simplex[-1], f[-1] = reflected, f_r
        elif f_r < f[-2]:
            simplex[-1], f[-1] = reflected, f_r
        else:
            contracted = tuple([c + 0.5 * (w - c)
                                for c, w in zip(centroid, worst)])
            f_c = fun(contracted)
            if f_c < f[-1]:
                simplex[-1], f[-1] = contracted, f_c
            else:
                simplex = [best] + [tuple([b + 0.5 * (x - b)
                                           for b, x in zip(best, v)])
                                    for v in simplex[1:]]
                f = [f[0]] + [fun(v) for v in simplex[1:]]
    raise FitConvergenceError(
        f"decay fit did not converge within {max_iter} iterations")


def fit_decay(samples: Sequence[Sequence[float]], *,
              max_iter: int = FIT_MAX_ITER,
              rel_tol: float = FIT_REL_TOL) -> Tuple[DecayParams, float]:
    """Least-squares fit of (t, R[, sigma]) samples to the decay model.

    Returns the fitted parameters and the minimized (weighted) sum of
    squared residuals. Seeded by a coarse grid over r0 in [max R, 1] and
    tau0 in [t_max/10, 10 t_max]; refined in (r0, log tau0) space.
    """
    t, r, sigma = _as_sample_arrays(samples)
    w = np.ones_like(r) if sigma is None else 1.0 / (sigma * sigma)
    t_max = float(np.max(t))
    if t_max <= 0.0:
        raise DegenerateDataError("samples need a positive storage time")

    # The objective's arrays live in one buffer: [u*u | u], negated and
    # exponentiated in one call; every float operation and its order are
    # those of r0 * (exp(-u*u) + exp(-u)) / 2, then sum(w * (model - r)**2).
    buf = np.empty(2 * t.size)
    acc, ratio = buf[:t.size], buf[t.size:]  # ratio: u = t / tau

    def objective(x):
        r0, log_tau = x
        if not 0.0 <= r0 <= 1.0:
            return math.inf
        np.divide(t, math.exp(log_tau), out=ratio)
        np.multiply(ratio, ratio, out=acc)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        np.add(acc, ratio, out=acc)
        np.multiply(r0, acc, out=acc)
        np.divide(acc, 2.0, out=acc)
        np.subtract(acc, r, out=acc)
        np.square(acc, out=acc)
        np.multiply(w, acc, out=acc)
        return float(np.add.reduce(acc))

    # The whole grid at once, with the objective's float operations: the
    # taus are exp(log(tau)), as the simplex evaluates them.
    r0_grid = np.linspace(min(float(np.max(r)), 1.0), 1.0, GRID_POINTS)
    log_taus = [math.log(tau) for tau in
                np.geomspace(t_max / 10.0, 10.0 * t_max, GRID_POINTS)]
    u = t / np.array([math.exp(x) for x in log_taus])[:, None]
    decay = (np.exp(-u * u) + np.exp(-u))[:, None, :]  # (tau, 1, sample)
    model = r0_grid[:, None] * decay / 2.0  # (tau, r0, sample)
    grid = np.sum(w * (model - r) ** 2, axis=-1).tolist()
    r0s = r0_grid.tolist()
    best_f, best_x = math.inf, None
    # tau ascending: ties keep the smallest tau0
    for log_tau, row in zip(log_taus, grid):
        for r0, fval in zip(r0s, row):
            if fval < best_f * (1.0 - GRID_TIE_REL) or best_x is None:
                best_f, best_x = fval, (r0, log_tau)

    x_opt, f_opt = _nelder_mead(objective, best_x, rel_tol=rel_tol,
                                max_iter=max_iter)
    r0_fit = min(max(float(x_opt[0]), 0.0), 1.0)
    return DecayParams(r0_fit, math.exp(float(x_opt[1]))), f_opt
