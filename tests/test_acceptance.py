"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` (test names map one-to-one
to criteria) or with ``-s`` to see the explicit PASS lines. The two Monte
Carlo criteria use 1e7 trials per setting and dominate the runtime.
"""

import hashlib
import math
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from dlczsim import (AngleSettings, DecayParams, DetectionChain,
                     EnsembleGeometry, ExperimentParams, bell_S,
                     coupling_angle, fidelity_from_S, fit_decay,
                     forward_count_probs, intrinsic_retrieval_mode,
                     intrinsic_retrieval_qubit, motional_lifetime,
                     pair_correlation, poisson_error, retrieval_decay,
                     run_experiment, swap_chain, threshold_crossing_distance,
                     visibility_from_S, correlation_E)
from dlczsim.cli import main
from dlczsim.config import DEFAULT_VISIBILITY
from dlczsim.entanglement import CHSH_SETTINGS
from dlczsim.estimators import TWO_ROOT_TWO
from dlczsim.repeater import PRESET_HIGH_RETRIEVAL, PRESET_LOW_RETRIEVAL

MATCHED = AngleSettings(0.0, 0.0)
CANONICAL_PLAN = list(CHSH_SETTINGS)


def report(criterion, name):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def operating_point(**overrides):
    fields = dict(chi=0.01, noise_b=1e-5, noise_c=1e-4, eta_s=0.15,
                  eta_as=0.15, v0=DEFAULT_VISIBILITY, phase=0.0,
                  decay=DecayParams(0.77, 1e-3))
    fields.update(overrides)
    return ExperimentParams(**fields)


def analytic_table(params, t, angles, n_pulses):
    """Expected (float) counts implied by the forward counting model."""
    probs = forward_count_probs(params, t, angles)
    return SimpleNamespace(settings=angles, storage_time=t,
                           n_pulses=n_pulses,
                           n_d1=probs.p_s / 2.0 * n_pulses,
                           n_d2=probs.p_s / 2.0 * n_pulses,
                           c13=probs.p13 * n_pulses,
                           c24=probs.p24 * n_pulses,
                           c14=probs.p14 * n_pulses,
                           c23=probs.p23 * n_pulses,
                           matched=(probs.p13 + probs.p24) * n_pulses,
                           crossed=(probs.p14 + probs.p23) * n_pulses)


def test_criterion_1_detection_budget():
    chain = DetectionChain(t_oc=0.20, cavity_loss=0.13, eta_smf=0.71,
                           eta_filter=0.56, eta_mmf=0.92, eta_d=0.68)
    assert chain.eta_esp == pytest.approx(0.606, abs=0.001)
    assert chain.eta_t == pytest.approx(0.366, abs=0.001)
    assert chain.eta_td == pytest.approx(0.150, abs=0.002)
    report(1, "detection budget")


def test_criterion_2_coupling_angle_and_lifetime():
    geometry = EnsembleGeometry(wavelength=795e-9, temperature=100e-6,
                                atomic_mass=87 * 1.66053906660e-27,
                                bd_separation=5.5e-3, f_btd=2.0, f0=1.5)
    theta_deg = math.degrees(coupling_angle(geometry))
    assert theta_deg == pytest.approx(0.0525, abs=0.0005)
    assert motional_lifetime(geometry) == pytest.approx(1.40e-3, abs=0.10e-3)
    report(2, "coupling angle and lifetime")


def test_criterion_3_decay_model_and_fit():
    decay = DecayParams(r0=0.77, tau0=1e-3)
    r_023 = retrieval_decay(decay, 0.23e-3)
    r_054 = retrieval_decay(decay, 0.54e-3)
    assert r_023 == pytest.approx(0.671, abs=0.001)
    assert r_054 == pytest.approx(0.512, abs=0.001)
    assert r_023 == pytest.approx(0.667, abs=0.02)
    assert r_054 == pytest.approx(0.50, abs=0.02)
    fitted, _ = fit_decay([(0.0, 0.77), (0.23e-3, 0.667), (0.54e-3, 0.50)])
    assert fitted.r0 == pytest.approx(0.77, abs=0.03)
    assert fitted.tau0 == pytest.approx(1.0e-3, abs=0.15e-3)
    report(3, "decay model")


def test_criterion_4_fidelity_chain():
    assert 0.550 <= fidelity_from_S(1.15) <= 0.560
    assert visibility_from_S(2.5) == pytest.approx(0.8839, abs=0.0005)
    tables = []
    for theta_s, theta_as in CHSH_SETTINGS:
        k = pair_correlation(AngleSettings(theta_s, theta_as), 1.0)
        matched, crossed = (1.0 + k) / 4.0, (1.0 - k) / 4.0
        tables.append(SimpleNamespace(
            settings=AngleSettings(theta_s, theta_as), storage_time=0.0,
            n_pulses=10**9, n_d1=10**6, n_d2=10**6,
            c13=matched * 10**5, c24=matched * 10**5,
            c14=crossed * 10**5, c23=crossed * 10**5,
            matched=(matched + matched) * 10**5,
            crossed=(crossed + crossed) * 10**5))
    s = bell_S(tables, n_replicas=100, seed=0)
    assert s.value == pytest.approx(TWO_ROOT_TWO, abs=1e-12)
    report(4, "fidelity chain")


def test_criterion_5_monte_carlo_consistency():
    params = operating_point()
    n = 10_000_000
    eta_td = params.eta_as

    # matched-angle run drives the retrieval estimators and E
    mc, = run_experiment(params, 0.0, [MATCHED], n, seed=50)
    expected = analytic_table(params, 0.0, MATCHED, n)
    checks = [
        (lambda c: intrinsic_retrieval_qubit(c, eta_td), "R_qubit"),
        (lambda c: intrinsic_retrieval_mode(c, "L", eta_td), "R_L"),
        (lambda c: intrinsic_retrieval_mode(c, "R", eta_td), "R_R"),
        (correlation_E, "E"),
    ]
    for estimator, label in checks:
        est = poisson_error(estimator, mc, n_replicas=10_000, seed=51)
        target = estimator(expected)
        assert abs(est.value - target) < 3 * est.sigma, (
            f"{label}: {est.value} vs {target} (sigma {est.sigma})")

    # canonical CHSH run against the analytic chain
    mc_tables = run_experiment(params, 0.0, CANONICAL_PLAN, n, seed=52,
                               run_tag=1)
    s_mc = bell_S(list(mc_tables), n_replicas=10_000, seed=53)
    s_expected = bell_S([analytic_table(params, 0.0, a, n)
                         for a in CANONICAL_PLAN], n_replicas=100,
                        seed=0).value
    assert abs(s_mc.value - s_expected) < 3 * s_mc.sigma
    report(5, "Monte Carlo consistency")


def test_criterion_6_bell_end_to_end():
    n = 10_000_000
    # calibrated visibility at the Bell-measurement excitation probability
    params = operating_point(chi=0.02, eta_s=1.0, eta_as=1.0)
    tables = run_experiment(params, 0.0, CANONICAL_PLAN, n, seed=60)
    s = bell_S(list(tables), n_replicas=10_000, seed=61)
    assert s.value == pytest.approx(2.50, abs=0.05)

    # ideal state, no backgrounds: the Tsirelson bound of the model
    ideal = operating_point(chi=0.05, noise_b=0.0, noise_c=0.0, eta_s=1.0,
                        eta_as=1.0, v0=1.0, decay=DecayParams(1.0, 1e-3))
    tables = run_experiment(ideal, 0.0, CANONICAL_PLAN, n, seed=62,
                            run_tag=1)
    s = bell_S(list(tables), n_replicas=10_000, seed=63)
    assert s.value == pytest.approx(2.828, abs=0.01)
    report(6, "Bell end to end")


def test_pooled_draw_matches_six_field_draw_at_bell_point():
    # poisson_error draws only (matched, crossed) of each CHSH table; sums
    # of independent Poisson counts are Poisson, so S spreads as it does
    # when all six fields are drawn
    params = operating_point(chi=0.02, eta_s=1.0, eta_as=1.0)
    tables = run_experiment(params, 0.0, CANONICAL_PLAN, 10_000_000,
                            seed=60)
    replicas = 100_000
    s = bell_S(list(tables), n_replicas=replicas, seed=64)

    fields = ("n_d1", "n_d2", "c13", "c24", "c14", "c23")
    lam = np.array([[getattr(tb, f) for f in fields] for tb in tables],
                   dtype=float)
    draws = np.random.default_rng(65).poisson(lam, size=(replicas, 4, 6))
    _, _, c13, c24, c14, c23 = np.moveaxis(draws, 2, 0)
    e = (c13 + c24 - c14 - c23) / (c13 + c24 + c14 + c23)
    six_field_sigma = float(np.std(np.abs(e[:, 0] - e[:, 1] + e[:, 2]
                                          + e[:, 3])))
    assert s.sigma == pytest.approx(six_field_sigma, rel=0.015)

    delta = math.sqrt(sum((1.0 - correlation_E(tb) ** 2)
                          / (tb.matched + tb.crossed) for tb in tables))
    assert s.sigma == pytest.approx(delta, rel=0.05)
    assert six_field_sigma == pytest.approx(delta, rel=0.05)


def test_criterion_7_repeater_algebra():
    high = swap_chain(PRESET_HIGH_RETRIEVAL._replace(tau0=math.inf)).rate
    low = swap_chain(PRESET_LOW_RETRIEVAL._replace(tau0=math.inf)).rate
    assert high / low == pytest.approx((4.0 / 3.0) ** 10, rel=1e-9)

    crossing_high = threshold_crossing_distance(PRESET_HIGH_RETRIEVAL, 1e-4,
                                                1e5, 3e6)
    crossing_low = threshold_crossing_distance(PRESET_LOW_RETRIEVAL, 1e-4,
                                               1e5, 3e6)
    ratio = crossing_high / crossing_low
    assert abs(ratio - 2.3) <= 0.15 * 2.3
    report(7, "repeater algebra")


def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "det.conf"
    config.write_text(
        "experiment.chi = 0.02\nexperiment.noise_b = 1e-5\n"
        "experiment.noise_c = 1e-4\nexperiment.eta_s = 0.3\n"
        "experiment.eta_as = 0.3\ndecay.r0 = 0.77\ndecay.tau0 = 1e-3\n"
        "timing.prep_duration = 42e-3\ntiming.run_duration = 8e-3\n"
        "timing.trial_period = 2000e-9\n")

    def run(workers):
        out = tmp_path / "out"
        if out.exists():
            shutil.rmtree(out)
        code = main(["simulate", "--config", str(config), "--seed", "9",
                     "--trials", "150000", "--t", "0,0.0005",
                     "--angles", "canonical", "--workers", str(workers),
                     "--out", str(out)])
        assert code == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}

    first = run(1)
    assert run(1) == first   # identical rerun
    assert run(4) == first   # parallelism never leaks into outputs
    report(8, "determinism")
