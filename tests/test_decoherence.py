import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dlczsim import (DecayParams, DegenerateDataError, EnsembleGeometry,
                     FitConvergenceError, ParameterError, fit_decay,
                     motional_lifetime, retrieval_decay)
from dlczsim import decoherence, solve
from dlczsim.solve import find_minimum

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
    r = [retrieval_decay(MEASURED_DECAY, t)
         for t in np.linspace(0.0, 10e-3, 200).tolist()]
    assert max(r) <= 0.77
    assert all(b < a for a, b in zip(r, r[1:]))  # strictly decreasing


def test_decay_domain_errors():
    with pytest.raises(ParameterError):
        retrieval_decay(MEASURED_DECAY, -1e-6)
    with pytest.raises(ParameterError):
        retrieval_decay(MEASURED_DECAY, math.nan)
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
    clean = np.array([retrieval_decay(truth, t) for t in times.tolist()])
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


def test_fit_recovers_tau0_below_the_grid():
    # tau0 3.4x below t_max / 10, where a (r0, tau0) simplex seeded on a
    # grid over [t_max / 10, 10 t_max] stalled on the model's plateau near 0
    samples = _model_samples(0.746, 0.118, [1.20, 2.51, 4.02])
    fitted, residual = fit_decay(samples)
    assert fitted.r0 == pytest.approx(0.746, rel=1e-6)
    assert fitted.tau0 == pytest.approx(0.118, rel=1e-6)
    assert residual < 1e-20


@pytest.mark.parametrize("tau0", [0.02, 600.0])
def test_fit_walks_past_the_grid_edge(tau0):
    # the grid spans tau0 in [t_max / 100, 100 t_max] = [0.04, 400]
    samples = _model_samples(0.746, tau0, [1.20, 2.51, 4.02])
    fitted, residual = fit_decay(samples)
    assert fitted.r0 == pytest.approx(0.746, rel=1e-6)
    assert fitted.tau0 == pytest.approx(tau0, rel=1e-6)
    assert residual < 1e-20


@pytest.mark.parametrize("r", [(0.5, 0.5, 0.5), (0.5, 0.6, 0.7),
                               (0.0, 0.0, 0.0)],
                         ids=["flat", "rising", "zero"])
def test_fit_without_decay_reports_tau0_inf(r):
    # the least-squares optimum of flat or rising data lies at tau0 -> inf,
    # where the model is r0 at every sample and r0 the mean of R
    fitted, residual = fit_decay(list(zip([0.0, 1e-3, 2e-3], r)))
    mean = sum(r) / 3
    assert fitted == DecayParams(mean, math.inf)
    assert residual == pytest.approx(sum((x - mean) ** 2 for x in r),
                                     rel=1e-12, abs=1e-300)


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


def test_fit_iteration_budget(monkeypatch):
    samples = _model_samples(0.5, 2e-3, np.linspace(0.0, 6e-3, 12))
    monkeypatch.setattr(solve, "FIT_MAX_ITER", 1)
    with pytest.raises(FitConvergenceError):
        fit_decay(samples)


def _fit_outcome(samples):
    """float.hex of (r0, tau0, residual), or the error a fit raises."""
    try:
        fitted, residual = fit_decay(samples)
    except (FitConvergenceError, DegenerateDataError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(float(v).hex() for v in (fitted.r0, fitted.tau0,
                                              residual))


def _decay_array(p, t):
    """R(t) over an array of times, in the numpy form that drew the pinned
    corpus: ``math.exp`` differs from ``np.exp`` in the last ulp of some
    arguments, so ``retrieval_decay`` would move the corpus's data."""
    x = t / p.tau0
    return p.r0 * (np.exp(-x * x) + np.exp(-x)) / 2.0


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
        r = np.abs(_decay_array(truth, t) + sigma * rng.standard_normal(n))
        columns = (t, r, sigma) if i % 2 else (t, r)
        sets.append(list(zip(*(c.tolist() for c in columns))))
    times = np.linspace(0.0, 6e-3, 12)
    sets.append(_model_samples(0.5, 2e-3, times))  # exact data
    sets.append(_model_samples(0.77, 1e-3, np.linspace(0.0, 3e-3, 40)))
    sets.append(_model_samples(1.0, 4e-4, times[:3]))
    sets.append([(t, 0.5) for t in times.tolist()])  # flat: tau0 = inf
    sets.append([(t, 0.0) for t in times.tolist()])  # all zero: tau0 = inf
    return sets


# sha256 over the outcomes of _pin_corpus, recorded with the closed-form r0
# and Brent search in log tau0; any change of the fitter's float operation
# order shows up here.
PINNED_FIT_CORPUS = (
    "3e0578ceabfc4698290a2565a266be368ee618aabc579f3387d5d1d595618fc5")


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


# The outcome of each _pin_corpus set under the fitter this one replaced: a
# 25 x 25 (r0, tau0) grid seed refined by a Nelder-Mead simplex in
# (r0, log tau0).
SIMPLEX_CORPUS = Path(__file__).parent / "data" / "fit_corpus_parent.txt"
# The sets whose least-squares optimum lies at tau0 -> inf: three noisy
# rising sets, the flat set and the all-zero set.
NO_DECAY_SETS = [13, 54, 85, 203, 204]


def test_fit_no_worse_than_the_simplex_fitter():
    sets = _pin_corpus()
    simplex = SIMPLEX_CORPUS.read_text().splitlines()
    assert len(simplex) == len(sets)
    fits = [fit_decay(samples) for samples in sets]
    no_decay = []
    for k, (samples, line, (fitted, found)) in enumerate(
            zip(sets, simplex, fits)):
        r0, tau0, residual = map(float.fromhex, line.split())
        assert found <= residual * (1.0 + 1e-9) + 1e-18, k
        if fitted.tau0 == math.inf:
            no_decay.append(k)
            # the model is r0 at every sample: r0 is the weighted mean of R
            w = [1.0 / row[2] ** 2 if len(row) == 3 else 1.0
                 for row in samples]
            mean = sum(wi * row[1] for wi, row in zip(w, samples)) / sum(w)
            assert fitted.r0 == pytest.approx(mean, rel=1e-12, abs=1e-300)
            assert found == pytest.approx(
                sum(wi * (row[1] - mean) ** 2 for wi, row in zip(w, samples)),
                rel=1e-12, abs=1e-300)
        else:
            # the simplex stopped within a relative objective spread of
            # 1e-12, which leaves r0 and tau0 loose along a flat valley: on
            # sets 6 and 149 it stopped 4.3e-5 (tau0) and 6.2e-6 (r0) off,
            # at an objective above the one found here
            assert fitted.r0 == pytest.approx(r0, abs=1e-5), k
            assert fitted.tau0 == pytest.approx(tau0, rel=1e-4), k
    assert no_decay == NO_DECAY_SETS
    assert fits[-2:] == [(DecayParams(0.5, math.inf), 0.0),  # flat
                         (DecayParams(0.0, math.inf), 0.0)]  # all zero


def test_fit_at_the_inf_limit_skips_brent(monkeypatch):
    """A walk that reaches the tau0 -> inf limit's objective ends the fit:
    the flat and all-zero sets cost a few walk steps and no Brent step
    (they cost 55 and 43 Brent evaluations when Brent ran on)."""
    evaluations = {"objective": 0, "brent": 0}

    class CountingMath:
        """math whose exp counts calls: the objective calls it once."""
        def __getattr__(self, name):
            return getattr(math, name)

        def exp(self, y):
            evaluations["objective"] += 1
            return math.exp(y)

    def brent(f, *args):
        def counted(y):
            evaluations["brent"] += 1
            return f(y)
        return find_minimum(counted, *args)

    monkeypatch.setattr(decoherence, "math", CountingMath())
    monkeypatch.setattr(decoherence, "find_minimum", brent)
    sets = _pin_corpus()
    for k, expected in ((203, (DecayParams(0.5, math.inf), 0.0)),
                        (204, (DecayParams(0.0, math.inf), 0.0))):
        evaluations.update(objective=0, brent=0)
        assert fit_decay(sets[k]) == expected
        assert evaluations["brent"] == 0, k
        assert 1 <= evaluations["objective"] <= 10, k
    evaluations.update(objective=0, brent=0)
    fit_decay(sets[0])  # a decaying set still runs Brent
    assert evaluations["brent"] > 0


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fit_rejects_non_finite_samples(column, bad):
    samples = [list(row) + [0.01] for row in REPORTED_POINTS]
    samples[1][column] = bad
    with pytest.raises(ParameterError, match="finite"):
        fit_decay(samples)


def _bowl(x):
    return float((x[0] - 0.2) ** 2 + 3.0 * (x[1] - 1.0) ** 2)


def _distant_bowl(x):
    """A minimum beyond every bracket: the search ends on the bracket's
    edge."""
    return float((x[0] - 3.0) ** 2 + 3.0 * (x[1] - 20.0) ** 2)


def _terraced_bowl(x):
    """Flat terraces: ties, where the search keeps the earlier point."""
    return float(math.floor(100.0 * _bowl(x)))


# Starts (y0, c): each objective is searched along its first coordinate
# through the start, y in [y0 - 1, y0 + 1] at x[1] = c.
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
def test_brent_on_floats_matches_dense_numpy_scan(fun, x0):
    """find_minimum, the 1-D search that replaced the (r0, log tau0)
    simplex, on the simplex's objectives and starts, checked against a
    numpy scan of the same cut: it ends in its bracket, never above its
    start, and at a point that no scanned value within two scan steps
    undercuts. A NaN
    start, which the fitter's grid seed never is, is kept: nothing compares
    lower than NaN."""
    y0, c = x0
    a, b = y0 - 1.0, y0 + 1.0

    def cut(y):
        return fun((y, c))
    start = cut(y0)
    y, fy = find_minimum(cut, a, y0, b, start)
    assert a <= y <= b
    assert repr(fy) == repr(cut(y))
    if math.isnan(start):
        assert y == y0 and math.isnan(fy)
        return
    assert fy <= start
    ys = np.linspace(a, b, 20_001)
    scan = np.array([cut(v) for v in ys])
    near = scan[np.abs(ys - y) <= 2.0 * (ys[1] - ys[0])]
    assert not (near < fy - 1e-11 * (1.0 + abs(fy))).any()
