import hashlib
import math
import warnings

import numpy as np
import pytest

from dlczsim import (DecayParams, DegenerateDataError, EnsembleGeometry,
                     FitConvergenceError, ParameterError, fit_decay,
                     motional_lifetime, retrieval_decay)
from dlczsim import decoherence
from dlczsim.decoherence import _max, _nelder_mead

MEASURED_DECAY = DecayParams(r0=0.77, tau0=1e-3)
# The three efficiency/storage-time points quoted for the measured decay
REPORTED_POINTS = [(0.0, 0.77), (0.23e-3, 0.667), (0.54e-3, 0.50)]


def test_decay_zero_delay_is_r0():
    assert retrieval_decay(MEASURED_DECAY, 0.0) == 0.77
    assert retrieval_decay(DecayParams(0.31, 7e-3), 0.0) == 0.31


def test_decay_direct_evaluations():
    assert retrieval_decay(MEASURED_DECAY, 0.23e-3) == pytest.approx(
        0.6710582562256414, rel=1e-12)
    assert retrieval_decay(MEASURED_DECAY, 0.54e-3) == pytest.approx(
        0.5119789888718064, rel=1e-12)
    # quoted rounded values sit within 0.02 of the model
    assert abs(retrieval_decay(MEASURED_DECAY, 0.23e-3) - 0.667) < 0.02
    assert abs(retrieval_decay(MEASURED_DECAY, 0.54e-3) - 0.50) < 0.02


def test_decay_one_over_e_point():
    # both exponentials equal 1/e at t = tau0
    assert retrieval_decay(MEASURED_DECAY, 1e-3) == pytest.approx(
        0.77 / math.e, rel=1e-12)


def test_decay_bounded_by_r0():
    t = np.linspace(0.0, 10e-3, 200)
    r = retrieval_decay(MEASURED_DECAY, t)
    assert np.all(r <= 0.77)
    assert np.all(np.diff(r) < 0)  # strictly decreasing


def test_decay_domain_errors():
    with pytest.raises(ParameterError):
        retrieval_decay(MEASURED_DECAY, -1e-6)
    with pytest.raises(ParameterError):
        retrieval_decay(MEASURED_DECAY, math.nan)
    with pytest.raises(ParameterError):
        retrieval_decay(MEASURED_DECAY, np.array([0.0, math.nan]))
    with pytest.raises(ParameterError):
        DecayParams(0.77, 0.0)
    with pytest.raises(ParameterError):
        DecayParams(1.2, 1e-3)


LAB_GEOMETRY = EnsembleGeometry(wavelength=795e-9, temperature=100e-6,
                                  atomic_mass=87 * 1.66053906660e-27,
                                  bd_separation=5.5e-3, f_btd=2.0, f0=1.5)


def test_motional_lifetime_reported_value():
    assert motional_lifetime(LAB_GEOMETRY) == pytest.approx(1.4e-3,
                                                              abs=1e-4)


def test_motional_lifetime_halves_with_doubled_angle():
    doubled = EnsembleGeometry(795e-9, 100e-6, 87 * 1.66053906660e-27,
                               11e-3, 2.0, 1.5)
    tau = motional_lifetime(doubled)
    assert tau == pytest.approx(0.70e-3, abs=1e-5)
    assert tau == pytest.approx(motional_lifetime(LAB_GEOMETRY) / 2,
                                rel=1e-6)


def test_motional_lifetime_temperature_angle_scaling():
    # T -> 4T doubles the thermal speed, theta -> theta/2 halves |dk|
    scaled = EnsembleGeometry(795e-9, 400e-6, 87 * 1.66053906660e-27,
                              5.5e-3 / 2, 2.0, 1.5)
    assert motional_lifetime(scaled) == pytest.approx(
        motional_lifetime(LAB_GEOMETRY), rel=1e-6)


def _model_samples(r0, tau0, times):
    p = DecayParams(r0, tau0)
    return [(t, retrieval_decay(p, t)) for t in times]


def test_fit_recovers_exact_synthetic_data():
    samples = _model_samples(0.5, 2e-3, np.linspace(0.0, 6e-3, 12))
    fitted, residual = fit_decay(samples)
    assert fitted.r0 == pytest.approx(0.5, rel=1e-6)
    assert fitted.tau0 == pytest.approx(2e-3, rel=1e-6)
    assert residual < 1e-12


def test_fit_operating_points():
    fitted, _ = fit_decay(REPORTED_POINTS)
    assert fitted.r0 == pytest.approx(0.77, abs=0.03)
    assert fitted.tau0 == pytest.approx(1.0e-3, abs=0.15e-3)


def test_fit_noisy_synthetic_data():
    rng = np.random.default_rng(1234)
    truth = DecayParams(0.77, 1e-3)
    times = np.linspace(0.0, 3e-3, 20)
    clean = retrieval_decay(truth, times)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(times.size))
    fitted, _ = fit_decay(list(zip(times, noisy)))
    assert fitted.r0 == pytest.approx(truth.r0, rel=0.03)
    assert fitted.tau0 == pytest.approx(truth.tau0, rel=0.03)


def test_fit_weighted_downweights_outlier():
    times = np.linspace(0.0, 4e-3, 10)
    samples = [(t, retrieval_decay(DecayParams(0.6, 1.5e-3), t), 0.005)
               for t in times]
    t_out, r_out, _ = samples[5]
    samples[5] = (t_out, r_out + 0.3, 1e3)  # huge sigma: ignored
    fitted, _ = fit_decay(samples)
    assert fitted.r0 == pytest.approx(0.6, rel=1e-4)
    assert fitted.tau0 == pytest.approx(1.5e-3, rel=1e-4)


def test_fit_idempotent_on_its_own_curve():
    fitted, _ = fit_decay(REPORTED_POINTS)
    resampled = _model_samples(fitted.r0, fitted.tau0,
                               [t for t, _ in REPORTED_POINTS])
    refit, _ = fit_decay(resampled)
    assert refit.r0 == pytest.approx(fitted.r0, rel=1e-9, abs=1e-9)
    assert refit.tau0 == pytest.approx(fitted.tau0, rel=1e-9)


def test_fit_recovers_tau0_below_the_grid(monkeypatch):
    # tau0 3.4x below the first grid's smallest: the first simplex stalls
    # on the model's plateau near 0, and the retry's wider grid recovers it
    runs = []

    def nelder_mead(*args, **kwargs):
        runs.append(args[1])
        return _nelder_mead(*args, **kwargs)
    monkeypatch.setattr(decoherence, "_nelder_mead", nelder_mead)
    samples = _model_samples(0.746, 0.118, [1.20, 2.51, 4.02])
    fitted, residual = fit_decay(samples)
    assert len(runs) == 2 and runs[1][1] < math.log(4.02 / 10.0)
    assert fitted.r0 == pytest.approx(0.746, rel=1e-6)
    assert fitted.tau0 == pytest.approx(0.118, rel=1e-6)
    assert residual < 1e-20


def test_fit_input_validation():
    with pytest.raises(ParameterError):
        fit_decay([(0.0, 0.7), (1e-3, 0.5)])  # too few points
    with pytest.raises(DegenerateDataError):
        fit_decay([(1e-3, 0.7), (1e-3, 0.6), (1e-3, 0.5)])
    with pytest.raises(DegenerateDataError):  # -0.0 and 0.0 are one time
        fit_decay([(-0.0, 0.7), (0.0, 0.6), (1e-3, 0.5)])
    with pytest.raises(ParameterError):
        fit_decay([(0.0, 0.7, 0.0), (1e-3, 0.5, 0.01), (2e-3, 0.3, 0.01)])
    with pytest.raises(ParameterError):
        fit_decay([(0.0, 0.7, 0.01), (1e-3, 0.5), (2e-3, 0.3, 0.01)])


def test_fit_iteration_budget():
    samples = _model_samples(0.5, 2e-3, np.linspace(0.0, 6e-3, 12))
    with pytest.raises(FitConvergenceError):
        fit_decay(samples, max_iter=1)


def _fit_outcome(samples):
    """float.hex of (r0, tau0, residual), or the error a fit raises."""
    try:
        fitted, residual = fit_decay(samples)
    except (FitConvergenceError, DegenerateDataError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(float(v).hex() for v in (fitted.r0, fitted.tau0,
                                              residual))


def _pin_corpus():
    """Seeded (t, R[, sigma]) sets, n = 3-40, half of them weighted."""
    rng = np.random.default_rng(20260518)
    sets = []
    for i in range(200):
        n = int(rng.integers(3, 41))
        t_max = float(10.0 ** rng.uniform(-5.0, -2.0))
        t = np.sort(rng.uniform(0.0, t_max, n))
        truth = DecayParams(float(rng.uniform(0.05, 0.95)),
                            t_max * float(10.0 ** rng.uniform(-1.0, 1.0)))
        sigma = 0.002 + 0.03 * rng.random(n)
        r = np.abs(retrieval_decay(truth, t) + sigma * rng.standard_normal(n))
        columns = (t, r, sigma) if i % 2 else (t, r)
        sets.append(list(zip(*(c.tolist() for c in columns))))
    times = np.linspace(0.0, 6e-3, 12)
    sets.append(_model_samples(0.5, 2e-3, times))  # collapsed-simplex exit
    sets.append(_model_samples(0.77, 1e-3, np.linspace(0.0, 3e-3, 40)))
    sets.append(_model_samples(1.0, 4e-4, times[:3]))
    sets.append([(t, 0.5) for t in times.tolist()])  # flat: tau0 runs away
    sets.append([(t, 0.0) for t in times.tolist()])  # all zero: grid ties
    return sets


# sha256 over the outcomes of _pin_corpus, recorded with the scalar grid
# and numpy-array simplex; any change of the fitter's float operation order
# shows up here.
PINNED_FIT_CORPUS = (
    "e9a2c9b1aa5ca9ee3825354a11b1ffe4a555cfa93e0b1d3b26c3e01fa1c4b8c9")


def test_fit_results_are_bit_pinned():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = [_fit_outcome(s) for s in _pin_corpus()]
    flat, zero = outcomes[-2:]
    assert float.fromhex(flat.split()[1]) > 1e11
    assert float.fromhex(zero.split()[0]) == 0.0
    with pytest.raises(ParameterError, match="1/sigma"):  # overflows
        fit_decay([(t, r, 1e-200) for t, r in REPORTED_POINTS])
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == PINNED_FIT_CORPUS


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fit_rejects_non_finite_samples(column, bad):
    samples = [list(row) + [0.01] for row in REPORTED_POINTS]
    samples[1][column] = bad
    with pytest.raises(ParameterError, match="finite"):
        fit_decay(samples)


def _numpy_nelder_mead(fun, x0, rel_tol=1e-12, max_iter=10_000,
                       steps=(0.02, 0.1), taken=None):
    """The simplex as written on numpy arrays: the reference for NaN order
    (np.argsort puts NaN last) and NaN spread (np.max propagates it).
    ``taken``, a set, collects the moves made ("expand", "shrink")."""
    taken = set() if taken is None else taken
    simplex = [np.array(x0, dtype=float)]
    for i in range(len(x0)):
        v = simplex[0].copy()
        v[i] += steps[i]
        simplex.append(v)
    f = [fun(v) for v in simplex]
    for _ in range(max_iter):
        order = np.argsort(f, kind="stable")
        simplex = [simplex[i] for i in order]
        f = [f[i] for i in order]
        if f[-1] - f[0] <= rel_tol * (abs(f[0]) + 1e-300):
            return simplex[0], f[0]
        spread = max(float(np.max(np.abs(v - simplex[0])))
                     for v in simplex[1:])
        if spread <= 1e-14 * (1.0 + float(np.max(np.abs(simplex[0])))):
            return simplex[0], f[0]
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = fun(reflected)
        if f_r < f[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fun(expanded)
            if f_e < f_r:
                simplex[-1], f[-1] = expanded, f_e
                taken.add("expand")
            else:
                simplex[-1], f[-1] = reflected, f_r
        elif f_r < f[-2]:
            simplex[-1], f[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = fun(contracted)
            if f_c < f[-1]:
                simplex[-1], f[-1] = contracted, f_c
            else:
                taken.add("shrink")
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best)
                                    for v in simplex[1:]]
                f = [f[0]] + [fun(v) for v in simplex[1:]]
    raise FitConvergenceError("budget")


def _bowl(x):
    return float((x[0] - 0.2) ** 2 + 3.0 * (x[1] - 1.0) ** 2)


def _distant_bowl(x):
    """A minimum far from every start: the simplex expands."""
    return float((x[0] - 3.0) ** 2 + 3.0 * (x[1] - 20.0) ** 2)


def _terraced_bowl(x):
    """Flat terraces: a contraction that ties the worst value shrinks."""
    return float(math.floor(100.0 * _bowl(x)))


SIMPLEX_STARTS = [(0.1, 0.0), (0.3, 1.5), (0.25, 0.9)]


@pytest.mark.parametrize("fun", [
    _bowl,
    lambda x: math.nan if x[0] > 0.25 else _bowl(x),
    lambda x: math.nan if x[1] < 0.95 else _bowl(x),
    lambda x: math.inf if x[0] < 0.15 else _bowl(x),
    lambda x: math.nan if abs(x[0] - 0.2) < 0.01 else _bowl(x),
    lambda x: math.nan if x[0] > 0.19 else -math.inf if x[1] > 1.2 else 0.0,
    _distant_bowl,
    _terraced_bowl,
])
@pytest.mark.parametrize("x0", SIMPLEX_STARTS)
def test_simplex_on_floats_matches_numpy_reference(fun, x0):
    def outcome(minimize):
        path = []  # every point evaluated, in order

        def traced(x):
            path.append([float(c).hex() for c in x])
            return fun(x)
        try:
            x, fx = minimize(traced, x0, max_iter=300)
        except FitConvergenceError:
            return "no convergence", path
        return [float(c).hex() for c in (*x, fx)], path
    assert outcome(_nelder_mead) == outcome(_numpy_nelder_mead)


@pytest.mark.parametrize("fun,move", [(_distant_bowl, "expand"),
                                      (_terraced_bowl, "shrink")])
def test_simplex_reference_cases_reach_expansion_and_shrink(fun, move):
    taken = set()
    for x0 in SIMPLEX_STARTS:
        _numpy_nelder_mead(fun, x0, max_iter=300, taken=taken)
    assert move in taken


@pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan, 1.0],
                                    [2.0, 1.0], [0.0, math.inf],
                                    [math.nan, math.inf]])
def test_simplex_spread_propagates_nan_like_numpy(values):
    assert repr(_max(values)) == repr(float(np.max(values)))
