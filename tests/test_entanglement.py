import math

import pytest
from hypothesis import given, strategies as st

from dlczsim import (AngleSettings, DecayParams, ExperimentParams,
                     ParameterError, forward_count_probs, pair_correlation,
                     retrieval_decay)

DEG = math.radians


def reference_params(**overrides):
    defaults = dict(chi=0.01, noise_b=1e-5, noise_c=1e-4, eta_s=0.15,
                    eta_as=0.15, visibility=0.8839,
                    decay=DecayParams(0.77, 1e-3))
    defaults.update(overrides)
    return ExperimentParams(**defaults)


def test_projection_perfect_correlation_shared_basis():
    k = pair_correlation(AngleSettings(0.0, 0.0), visibility=1.0)
    assert (1.0 + k) / 4.0 == pytest.approx(0.5)  # p13 = p24
    assert (1.0 - k) / 4.0 == 0.0  # p14 = p23


def test_projection_unbiased_bases():
    k = pair_correlation(AngleSettings(DEG(45), 0.0), visibility=1.0)
    for p in ((1.0 + k) / 4.0, (1.0 - k) / 4.0):
        assert p == pytest.approx(0.25, rel=1e-12)


def test_projection_partial_visibility():
    # delta = 22.5 deg, visibility tuned so the CHSH parameter is 2.5
    k = pair_correlation(AngleSettings(DEG(22.5), 0.0), visibility=0.8839)
    assert (1.0 + k) / 4.0 == pytest.approx(0.4062529209726974, rel=1e-12)
    assert (1.0 + k) / 4.0 == pytest.approx(0.4063, abs=1e-4)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 1.0))
def test_projection_correlation_identity(theta_s, theta_as, v):
    angles = AngleSettings(theta_s, theta_as)
    k = pair_correlation(angles, v)
    expected = v * math.cos(2.0 * angles.delta)
    assert k == pytest.approx(expected, abs=1e-12)
    assert abs(k) <= v + 1e-12


def test_projection_joint_basis_rotation_symmetry():
    base = pair_correlation(AngleSettings(DEG(10), DEG(40)), 0.9)
    shifted = pair_correlation(
        AngleSettings(DEG(10) + math.pi / 2, DEG(40) + math.pi / 2), 0.9)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_projection_visibility_validation():
    with pytest.raises(ParameterError):
        pair_correlation(AngleSettings(0.0, 0.0), visibility=1.5)


def test_angle_degrees_read_back_exactly():
    # every tenth of a degree in [0, 360): math.degrees alone misses 429
    for tenths in range(3600):
        settings = AngleSettings.from_degrees(tenths / 10, -tenths / 10)
        assert AngleSettings.from_degrees(*settings.degrees) == settings
    assert AngleSettings.from_degrees(1.5, 22.5).degrees == (1.5, 22.5)


def test_forward_no_excitation_no_noise():
    params = reference_params(chi=0.0, noise_b=0.0)
    n_d1, n_d2, *_ = forward_count_probs(params, 0.0, AngleSettings(0.0, 0.0))
    assert n_d1 + n_d2 == 0.0


def test_forward_operating_point_noiseless():
    params = reference_params(noise_b=0.0, noise_c=0.0)
    n_d1, n_d2, *coincidences = forward_count_probs(
        params, 0.0, AngleSettings(0.0, 0.0))
    p_s = n_d1 + n_d2
    assert p_s == pytest.approx(1.5e-3, rel=1e-12)
    # correlated part chi * R * eta_s * eta_as plus the accidental term
    # P_S * P_aS, with P_aS = chi * R * eta_as when there is no background
    accidental = p_s * (0.01 * 0.77 * 0.15)
    assert sum(coincidences) - accidental == pytest.approx(
        0.00017324999999999998, rel=1e-12)


def test_forward_operating_point_with_backgrounds():
    params = reference_params()
    n_d1, n_d2, *coincidences = forward_count_probs(
        params, 0.0, AngleSettings(0.0, 0.0))
    p_s = n_d1 + n_d2
    # both the retrieved-signal and the background term feed P_aS, read
    # as (coincidence total - correlated part) / P_S
    correlated = params.chi * 0.77 * params.eta_s * params.eta_as
    assert (sum(coincidences) - correlated) / p_s == pytest.approx(
        0.00117, rel=1e-12)
    assert p_s == pytest.approx((0.01 + 1e-5) * 0.15, rel=1e-12)


def test_forward_pairwise_sum_matches_total():
    params = reference_params()
    n_d1, n_d2, *coincidences = forward_count_probs(
        params, 0.2e-3, AngleSettings(DEG(22.5), 0.0))
    r = retrieval_decay(params.decay, 0.2e-3)
    # correlated plus accidental: the pair correlation only apportions
    correlated = params.chi * r * params.eta_s * params.eta_as
    p_as = (params.chi * r + params.noise_c) * params.eta_as
    assert sum(coincidences) == pytest.approx(
        correlated + (n_d1 + n_d2) * p_as, abs=1e-12)


@pytest.mark.parametrize("chi", [1e-3, 1e-4])
def test_forward_accidental_ratio_scales_as_chi(chi):
    # with no backgrounds, accidentals / correlated equals chi exactly
    params = reference_params(chi=chi, noise_b=0.0, noise_c=0.0)
    _, _, *coincidences = forward_count_probs(params, 0.0,
                                              AngleSettings(0.0, 0.0))
    r = 0.77
    correlated = chi * r * 0.15 * 0.15
    accidental = sum(coincidences) - correlated
    assert accidental / correlated == pytest.approx(chi, rel=1e-9)


def test_forward_contract_violation():
    params = reference_params(chi=1.0, noise_b=0.0, noise_c=1.0, eta_s=1.0,
                          eta_as=1.0, decay=DecayParams(1.0, 1e-3))
    with pytest.raises(ParameterError):
        forward_count_probs(params, 0.0, AngleSettings(0.0, 0.0))
