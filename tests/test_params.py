import math
import re

import pytest
from hypothesis import given, strategies as st

from dlczsim import (CycleTiming, DecayParams, DetectionChain,
                     EnsembleGeometry, ExperimentParams, ParameterError,
                     coupling_angle, repetition_rate, simulated_wall_time)
from dlczsim.errors import check_in
from dlczsim.repeater import PRESET_HIGH_RETRIEVAL

# Measured chain of the read-out channel
MEASURED_CHAIN = DetectionChain(t_oc=0.20, cavity_loss=0.13, eta_smf=0.71,
                             eta_filter=0.56, eta_mmf=0.92, eta_d=0.68)
LAB_GEOMETRY = EnsembleGeometry(wavelength=795e-9, temperature=100e-6,
                                  atomic_mass=87 * 1.66053906660e-27,
                                  bd_separation=5.5e-3, f_btd=2.0, f0=1.5)


def escape(t_oc, cavity_loss):
    """``eta_esp`` of a chain whose other efficiencies are 1."""
    return DetectionChain(t_oc, cavity_loss, 1.0, 1.0, 1.0, 1.0).eta_esp


def test_escape_efficiency_measured_value():
    assert MEASURED_CHAIN.eta_esp == pytest.approx(0.606, abs=1e-3)


def test_escape_efficiency_lossless():
    assert escape(0.20, 0.0) == 1.0


def test_escape_efficiency_direct_evaluation():
    # 0.20 / 0.21
    assert escape(0.20, 0.01) == pytest.approx(0.9523809523809523,
                                               rel=1e-12)


def test_escape_efficiency_domain_errors():
    with pytest.raises(ParameterError):
        escape(0.0, 0.1)
    with pytest.raises(ParameterError):
        escape(0.2, -0.01)
    with pytest.raises(ParameterError, match="t_oc"):
        escape(math.nan, 0.1)


@given(st.floats(0.01, 1.0), st.floats(0.0, 0.9), st.floats(1e-6, 0.09))
def test_escape_efficiency_monotone(t_oc, loss, bump):
    assert escape(t_oc, loss + bump) < escape(t_oc, loss)
    if t_oc + bump <= 1.0:
        assert escape(t_oc + bump, loss) >= escape(t_oc, loss)


def test_total_detection_efficiency_measured_chain():
    assert MEASURED_CHAIN.eta_td == pytest.approx(0.150, abs=5e-3)
    assert MEASURED_CHAIN.eta_t == pytest.approx(0.366, abs=1e-3)


def test_total_detection_efficiency_identity_chain():
    chain = DetectionChain(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert chain.eta_td == 1.0


def test_total_detection_efficiency_improved_chain():
    # 1% cavity loss, ~99% transmissions, 95% superconducting detectors
    chain = DetectionChain(t_oc=0.20, cavity_loss=0.01, eta_smf=0.99,
                           eta_filter=0.99, eta_mmf=0.99, eta_d=0.95)
    eta = chain.eta_td
    assert eta == pytest.approx(0.8778895714285714, rel=1e-12)
    assert abs(eta - 0.875) < 0.02


def test_total_detection_efficiency_bounded_by_factors():
    chain = MEASURED_CHAIN
    factors = (chain.eta_esp, chain.eta_smf, chain.eta_filter,
               chain.eta_mmf, chain.eta_d)
    assert chain.eta_td <= min(factors)


def test_loss_budget_itemization_accepted():
    items = {"bs1": 0.01, "bs2": 0.03, "hr": 0.01, "optics": 0.048,
             "arm_escape": 0.032}
    chain = DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 0.68,
                           loss_items=items)
    assert math.fsum(chain.loss_items.values()) == pytest.approx(0.13)


def test_loss_budget_itemization_must_sum():
    with pytest.raises(ParameterError):
        DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 0.68,
                       loss_items={"bs1": 0.01, "bs2": 0.03})


def test_chain_field_validation():
    with pytest.raises(ParameterError):
        DetectionChain(0.20, 1.0, 0.71, 0.56, 0.92, 0.68)
    with pytest.raises(ParameterError):
        DetectionChain(0.20, 0.13, 0.0, 0.56, 0.92, 0.68)
    with pytest.raises(ParameterError):
        DetectionChain(0.20, 0.13, 0.71, 0.56, 0.92, 1.01)


def test_coupling_angle_lab_geometry():
    theta = coupling_angle(LAB_GEOMETRY)
    assert theta == pytest.approx(9.1667e-4, rel=1e-3)
    assert math.degrees(theta) == pytest.approx(0.0525, abs=5e-4)


def test_coupling_angle_direct_evaluation():
    geom = EnsembleGeometry(795e-9, 100e-6, 1.44e-25, 6e-3, 1.0, 1.0)
    assert coupling_angle(geom) == pytest.approx(3.0e-3, rel=1e-12)


def test_coupling_angle_degenerate_geometry_rejected():
    with pytest.raises(ParameterError):
        EnsembleGeometry(795e-9, 100e-6, 1.44e-25, 0.0, 2.0, 1.5)


def test_coupling_angle_past_pi_rejected():
    at_pi = EnsembleGeometry(795e-9, 100e-6, 1.44e-25, math.pi, 0.5, 1.0)
    assert coupling_angle(at_pi) == math.pi
    with pytest.raises(ParameterError, match=re.escape(
            f"coupling angle bd_separation / (2 f_btd f0) = "
            f"{math.nextafter(math.pi, 4.0)!r}")):
        at_pi._replace(bd_separation=math.nextafter(math.pi, 4.0))


@given(st.floats(1.1, 4.0))
def test_coupling_angle_scaling(factor):
    base = coupling_angle(LAB_GEOMETRY)
    geom_d = EnsembleGeometry(795e-9, 100e-6, 1.44e-25,
                              5.5e-3 * factor, 2.0, 1.5)
    geom_f = EnsembleGeometry(795e-9, 100e-6, 1.44e-25,
                              5.5e-3, 2.0 * factor, 1.5)
    assert coupling_angle(geom_d) == pytest.approx(base * factor, rel=1e-12)
    assert coupling_angle(geom_f) == pytest.approx(base / factor, rel=1e-12)


LAB_TIMING = CycleTiming(prep_duration=42e-3, run_duration=8e-3,
                           trial_period=2000e-9)


def test_repetition_rate_lab_timing():
    assert LAB_TIMING.trials_per_run == 4000
    assert repetition_rate(LAB_TIMING) == pytest.approx(8e4, rel=1e-12)


def test_repetition_rate_trivial():
    timing = CycleTiming(prep_duration=0.0, run_duration=1.0,
                         trial_period=1.0)
    assert repetition_rate(timing) == pytest.approx(1.0)


def test_repetition_rate_halved_trials():
    timing = CycleTiming(prep_duration=42e-3, run_duration=8e-3,
                         trial_period=4000e-9)
    assert repetition_rate(timing) == pytest.approx(4e4, rel=1e-12)


def test_repetition_rate_integer_trials_identity():
    rate = repetition_rate(LAB_TIMING)
    cycle = LAB_TIMING.prep_duration + LAB_TIMING.run_duration
    assert rate * cycle == LAB_TIMING.trials_per_run


def test_simulated_wall_time_follows_duty_cycle():
    # 4000 trials fill one 50 ms cycle; one more trial starts a second
    assert simulated_wall_time(LAB_TIMING, 4000) == pytest.approx(
        50e-3, rel=1e-12)
    assert simulated_wall_time(LAB_TIMING, 4001) == pytest.approx(
        100e-3, rel=1e-12)
    assert simulated_wall_time(LAB_TIMING, 2 * 4000) == pytest.approx(
        100e-3, rel=1e-12)


def test_trials_per_run_survives_quotient_rounding():
    # 9e-3 / 3e-6 evaluates to 2999.9999999999995
    timing = CycleTiming(prep_duration=42e-3, run_duration=9e-3,
                         trial_period=3e-6)
    assert timing.trials_per_run == 3000
    assert CycleTiming(42e-3, 8e-3, 3e-6).trials_per_run == 2666


def test_timing_validation():
    with pytest.raises(ParameterError):
        CycleTiming(prep_duration=42e-3, run_duration=8e-3, trial_period=0.0)
    with pytest.raises(ParameterError):
        # run shorter than one trial
        CycleTiming(prep_duration=42e-3, run_duration=1e-9,
                    trial_period=2000e-9)


def test_check_in_ends_and_non_finite_values():
    for value, interval in ((0.0, "[0, 1)"), (1.0, "(0, 1]"),
                            (math.inf, "(0, inf]"), (-1e308, "(-inf, 0)"),
                            (7, "[1, inf)"), (2, "[2, 10]")):
        check_in("x", value, interval)
    for value, interval in ((0.0, "(0, 1]"), (1.0, "[0, 1)"),
                            (math.inf, "(0, inf)"), (-math.inf, "(-inf, 0]"),
                            (math.nan, "(-inf, inf)"), (math.nan, "(0, inf]"),
                            (0, "[1, inf)"), (11, "[2, 10]")):
        with pytest.raises(ParameterError):
            check_in("x", value, interval)


def test_check_in_message_names_the_field_and_says_finite():
    with pytest.raises(ParameterError) as info:
        check_in("fiber_speed", math.inf, "(0, inf)")
    assert (str(info.value)
            == "fiber_speed = inf must be finite and in (0, inf)")
    with pytest.raises(ParameterError) as info:
        check_in("tau0", math.nan, "(0, inf]")
    assert str(info.value) == "tau0 = nan must be in (0, inf]"


# A valid instance of each parameter class; its float fields are swept.
VALID_PARAMETER_SETS = [
    ExperimentParams(chi=0.01, noise_b=1e-5, noise_c=1e-4, eta_s=0.15,
                     eta_as=0.15, v0=0.88, phase=0.3),
    DecayParams(0.77, 1e-3),
    MEASURED_CHAIN,
    LAB_GEOMETRY,
    CycleTiming(prep_duration=42e-3, run_duration=8e-3, trial_period=2e-6),
    PRESET_HIGH_RETRIEVAL,
]


@pytest.mark.parametrize("base", VALID_PARAMETER_SETS,
                         ids=lambda base: type(base).__name__)
def test_every_float_field_rejects_nan_and_all_but_tau0_reject_inf(base):
    names = [name for name, kind in type(base).__annotations__.items()
             if kind == "float"]
    assert names
    for name in names:
        with pytest.raises(ParameterError, match=re.escape(f"{name} = nan")):
            base._replace(**{name: math.nan})
        if name == "tau0":
            assert getattr(base._replace(tau0=math.inf), name) == math.inf
        else:
            with pytest.raises(ParameterError, match=rf"{name} = inf.*finite"):
                base._replace(**{name: math.inf})
