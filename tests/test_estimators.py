import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlczsim import (AngleSettings, BellSettings, DecayParams,
                     DegenerateStatisticsError, ExperimentParams,
                     InsufficientDataError, ParameterError, bell_S,
                     bell_S_signed, correlation_E, fidelity_from_S,
                     forward_count_probs, intrinsic_retrieval_mode,
                     intrinsic_retrieval_qubit, poisson_error,
                     projection_probs, retrieval_background_corrected,
                     visibility_from_S)
from dlczsim.config import DEFAULT_VISIBILITY
from dlczsim.engine import CountsTable

DEG = math.radians
TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


def matched_table(n_pulses=1_000_000, n_d1=5000, n_d2=5000, c13=578,
                  c24=577, c14=0, c23=0, theta=0.0, t=0.0):
    return CountsTable(settings=AngleSettings(theta, theta), storage_time=t,
                       n_pulses=n_pulses, n_d1=n_d1, n_d2=n_d2, c13=c13,
                       c24=c24, c14=c14, c23=c23)


def proj_table(theta_s, theta_as, visibility, n=40_000, n_pulses=10_000_000,
               singles=100_000):
    """Float-count table built from the exact projection probabilities."""
    probs = projection_probs(AngleSettings(theta_s, theta_as), visibility)
    return SimpleNamespace(settings=AngleSettings(theta_s, theta_as),
                           storage_time=0.0, n_pulses=n_pulses,
                           n_d1=singles, n_d2=singles,
                           c13=probs.p13 * n, c24=probs.p24 * n,
                           c14=probs.p14 * n, c23=probs.p23 * n)


def canonical_proj_tables(visibility, n=40_000):
    return [proj_table(ts, tas, visibility, n=n)
            for ts, tas in BellSettings.canonical().combinations]


def test_retrieval_qubit_reported_combination():
    # coincidences = 0.1155 * singles with eta_td = 0.15 gives 77%
    table = matched_table(n_d1=5000, n_d2=5000, c13=578, c24=577)
    assert intrinsic_retrieval_qubit(table, 0.15) == pytest.approx(
        1155 / (0.15 * 10_000), rel=1e-12)
    assert intrinsic_retrieval_qubit(table, 0.15) == pytest.approx(0.77)


def test_retrieval_qubit_zero_coincidences():
    table = matched_table(c13=0, c24=0)
    assert intrinsic_retrieval_qubit(table, 0.15) == 0.0


def test_retrieval_qubit_requires_singles():
    table = matched_table(n_d1=0, n_d2=0, c13=0, c24=0)
    with pytest.raises(InsufficientDataError):
        intrinsic_retrieval_qubit(table, 0.15)


def test_retrieval_qubit_requires_matched_angles():
    table = CountsTable(settings=AngleSettings(DEG(45), 0.0),
                        storage_time=0.0, n_pulses=1000, n_d1=10, n_d2=10,
                        c13=1, c24=1, c14=1, c23=1)
    with pytest.raises(ParameterError):
        intrinsic_retrieval_qubit(table, 0.15)


def test_retrieval_modes_balanced_counts():
    table = matched_table(n_d1=5000, n_d2=5000, c13=600, c24=600)
    r_l = intrinsic_retrieval_mode(table, "L", 0.15)
    r_r = intrinsic_retrieval_mode(table, "R", 0.15)
    assert r_l == r_r == intrinsic_retrieval_qubit(table, 0.15)


def test_retrieval_mode_insufficient_data():
    table = matched_table(n_d1=0, c13=0)
    with pytest.raises(InsufficientDataError):
        intrinsic_retrieval_mode(table, "L", 0.15)
    with pytest.raises(ParameterError):
        intrinsic_retrieval_mode(table, "X", 0.15)


def test_retrieval_qubit_is_mean_of_modes_when_balanced():
    table = matched_table(n_d1=4000, n_d2=4000, c13=500, c24=420)
    r_l = intrinsic_retrieval_mode(table, "L", 0.15)
    r_r = intrinsic_retrieval_mode(table, "R", 0.15)
    assert intrinsic_retrieval_qubit(table, 0.15) == pytest.approx(
        (r_l + r_r) / 2, rel=1e-12)


def test_background_corrected_inverts_forward_model():
    params = ExperimentParams(chi=0.01, noise_b=1e-5, noise_c=1e-4,
                              eta_s=0.15, eta_as=0.15, v0=0.8839, phase=0.0,
                              decay=DecayParams(0.77, 1e-3))
    probs = forward_count_probs(params, 0.0, AngleSettings(0.0, 0.0))
    r_inc, r_net = retrieval_background_corrected(
        probs.p_s_as, probs.p_s, probs.p_as, 1e-5, 0.15, 0.15)
    assert r_inc == pytest.approx(0.77, abs=1e-10)
    assert r_net == pytest.approx(0.77 * 0.15, abs=1e-10)


def test_background_corrected_simplified_form():
    # B = 0 and accidentals ignored reduces to P_SaS / (P_S * eta_aS)
    r_inc, _ = retrieval_background_corrected(2e-4, 1.5e-3, 0.0, 0.0,
                                              0.15, 0.15)
    assert r_inc == pytest.approx(2e-4 / (1.5e-3 * 0.15), rel=1e-12)


def test_background_corrected_all_noise_channel():
    with pytest.raises(ParameterError):
        retrieval_background_corrected(1e-5, 1.5e-6, 1e-3, 1e-5, 0.15, 0.15)


def test_background_corrected_clamps_negative_numerator():
    with pytest.warns(RuntimeWarning):
        r_inc, r_net = retrieval_background_corrected(
            1e-8, 1e-2, 1e-2, 1e-5, 0.15, 0.15)
    assert r_inc == 0.0
    assert r_net == 0.0


def test_correlation_perfect_and_flat():
    assert correlation_E(matched_table(c13=10, c24=10)) == 1.0
    table = matched_table(n_d1=100, n_d2=100, c13=5, c24=5, c14=5, c23=5)
    assert correlation_E(table) == 0.0


def test_correlation_from_projection_model():
    table = proj_table(DEG(22.5), 0.0, 0.8839)
    assert correlation_E(table) == pytest.approx(0.6250116838907893,
                                                 rel=1e-12)


def test_correlation_requires_coincidences():
    with pytest.raises(InsufficientDataError):
        correlation_E(matched_table(c13=0, c24=0))


@given(st.integers(1, 1000))
def test_correlation_scale_invariant(k):
    a = matched_table(n_d1=900, n_d2=900, c13=40, c24=35, c14=10, c23=15)
    b = matched_table(n_pulses=1_000_000 * k, n_d1=900 * k, n_d2=900 * k,
                      c13=40 * k, c24=35 * k, c14=10 * k, c23=15 * k)
    assert correlation_E(a) == pytest.approx(correlation_E(b), rel=1e-12)
    assert intrinsic_retrieval_qubit(a, 0.2) == pytest.approx(
        intrinsic_retrieval_qubit(b, 0.2), rel=1e-12)


def test_bell_s_tsirelson_bound_of_model():
    s = bell_S(canonical_proj_tables(1.0), n_replicas=100, seed=0)
    assert s.value == pytest.approx(TWO_ROOT_TWO, abs=1e-12)


def test_bell_s_from_calibrated_visibility():
    s = bell_S(canonical_proj_tables(DEFAULT_VISIBILITY), n_replicas=100,
               seed=0)
    assert s.value == pytest.approx(2.5, abs=1e-12)
    s = bell_S(canonical_proj_tables(0.8839), n_replicas=100, seed=0)
    assert s.value == pytest.approx(2.5, abs=1e-3)


def test_bell_s_reduced_visibility():
    s = bell_S(canonical_proj_tables(0.7248), n_replicas=100, seed=0)
    assert s.value == pytest.approx(2.05, abs=1e-3)


def test_bell_s_analytic_identity_any_visibility():
    for v in (0.3, 0.6, 0.95):
        tables = canonical_proj_tables(v)
        assert abs(bell_S_signed(tables)) == pytest.approx(
            TWO_ROOT_TWO * v, abs=1e-12)


def test_bell_s_accepts_any_table_order():
    tables = canonical_proj_tables(0.9)
    shuffled = [tables[2], tables[0], tables[3], tables[1]]
    assert bell_S_signed(shuffled) == pytest.approx(bell_S_signed(tables),
                                                    rel=1e-12)


def test_bell_s_rejects_wrong_settings():
    tables = canonical_proj_tables(0.9)
    tables[1] = proj_table(DEG(10), DEG(50), 0.9)
    with pytest.raises(ParameterError):
        bell_S_signed(tables)
    with pytest.raises(ParameterError):
        bell_S_signed(tables[:3])


def test_visibility_and_fidelity_values():
    assert fidelity_from_S(1.15) == pytest.approx(0.5549397993866986,
                                                  rel=1e-12)
    assert 0.550 <= fidelity_from_S(1.15) <= 0.560
    assert visibility_from_S(TWO_ROOT_TWO) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_from_S(TWO_ROOT_TWO) == pytest.approx(1.0, abs=1e-12)
    assert visibility_from_S(2.5) == pytest.approx(0.8839, abs=5e-4)
    assert fidelity_from_S(2.5) == pytest.approx(0.9129126073623882,
                                                 rel=1e-12)


def test_fidelity_is_affine_and_anchored():
    assert fidelity_from_S(0.0) == 0.25
    lo, mid, hi = (fidelity_from_S(s) for s in (1.0, 1.5, 2.0))
    assert hi - mid == pytest.approx(mid - lo, rel=1e-12)
    with pytest.raises(ParameterError):
        visibility_from_S(-0.1)


def test_poisson_error_sigma_scales_with_counts():
    small = matched_table(n_d1=1000, n_d2=1000, c13=15, c24=15, c14=5, c23=5)
    big = matched_table(n_d1=100_000, n_d2=100_000, c13=1500, c24=1500,
                        c14=500, c23=500)
    sig_small = poisson_error(correlation_E, small, n_replicas=10_000,
                              seed=5).sigma
    sig_big = poisson_error(correlation_E, big, n_replicas=10_000,
                            seed=5).sigma
    assert sig_big / sig_small == pytest.approx(0.1, rel=0.25)


def test_poisson_error_degenerate_perfect_correlation():
    # all replicas of (10, 10, 0, 0) still have E = 1: sigma is exactly 0,
    # matching the (degenerate) delta-method propagation
    table = matched_table(c13=10, c24=10)
    est = poisson_error(correlation_E, table, n_replicas=10_000, seed=6)
    assert est.value == 1.0
    assert est.sigma == 0.0


def test_poisson_error_matches_delta_method():
    table = matched_table(n_d1=1000, n_d2=1000, c13=15, c24=15, c14=5, c23=5)
    est = poisson_error(correlation_E, table, n_replicas=20_000, seed=7)
    assert est.sigma == pytest.approx(0.13693063937629152, rel=0.2)


def test_poisson_error_bell_scale():
    # counts sized so the CHSH error bar lands at the few-percent scale
    tables = canonical_proj_tables(DEFAULT_VISIBILITY, n=6000)
    for tb in tables:
        for field in ("c13", "c24", "c14", "c23"):
            setattr(tb, field, round(getattr(tb, field)))
    s = bell_S(tables, n_replicas=10_000, seed=8)
    assert s.value == pytest.approx(2.5, abs=0.1)
    assert 0.01 < s.sigma < 0.04


def test_poisson_error_is_deterministic():
    table = matched_table(n_d1=1000, n_d2=1000, c13=15, c24=15, c14=5, c23=5)
    a = poisson_error(correlation_E, table, n_replicas=1000, seed=9)
    b = poisson_error(correlation_E, table, n_replicas=1000, seed=9)
    assert a == b


def test_poisson_error_validates_replicas():
    with pytest.raises(ParameterError):
        poisson_error(correlation_E, matched_table(), n_replicas=50, seed=0)


def test_poisson_error_degenerate_statistics():
    # about e^-2 of the replicas of (1, 1, 0, 0) lose every coincidence
    table = matched_table(c13=1, c24=1)
    with pytest.raises(DegenerateStatisticsError):
        poisson_error(correlation_E, table, n_replicas=1000, seed=10)
    # an estimator that fails on the original counts propagates directly
    with pytest.raises(InsufficientDataError):
        poisson_error(correlation_E, matched_table(c13=0, c24=0),
                      n_replicas=1000, seed=10)


COUNT_FIELDS = ("n_d1", "n_d2", "c13", "c24", "c14", "c23")
VECTORIZED_ESTIMATORS = (
    correlation_E,
    lambda c: intrinsic_retrieval_qubit(c, 0.15),
    lambda c: intrinsic_retrieval_mode(c, "L", 0.15),
    lambda c: intrinsic_retrieval_mode(c, "R", 0.15),
)


def counts_namespace(values):
    return SimpleNamespace(settings=AngleSettings(0.0, 0.0), storage_time=0.0,
                           n_pulses=1000, **dict(zip(COUNT_FIELDS, values)))


@given(st.lists(st.tuples(*[st.integers(0, 5)] * 6), min_size=1,
                max_size=20))
def test_vectorized_estimators_equal_scalar_calls(rows):
    columns = counts_namespace(np.array(rows, dtype=np.int64).T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator in VECTORIZED_ESTIMATORS:
            got = estimator(columns)
            assert got.shape == (len(rows),)
            for value, row in zip(got.tolist(), rows):
                try:
                    expected = estimator(counts_namespace(row))
                except InsufficientDataError:
                    assert math.isnan(value)
                else:
                    assert value.hex() == float(expected).hex()


def fail_first(k):
    """correlation_E with its first ``k`` replicas marked failed."""
    def estimator(counts):
        value = correlation_E(counts)
        if np.ndim(value):
            value[:k] = np.nan
        return value
    return estimator


def test_poisson_error_drop_rule_edge():
    table = matched_table(n_d1=1000, n_d2=1000, c13=15, c24=15, c14=5, c23=5)
    est = poisson_error(fail_first(1), table, n_replicas=100, seed=11)
    # the single (n_replicas, n_tables, 6) draw, minus the dropped replica
    draws = np.random.default_rng(11).poisson(
        [[getattr(table, f) for f in COUNT_FIELDS]], size=(100, 1, 6))
    kept = correlation_E(counts_namespace(draws[1:, 0].T))
    assert est.value == correlation_E(table)
    assert est.sigma == float(np.std(kept))
    with pytest.raises(DegenerateStatisticsError, match="2/100"):
        poisson_error(fail_first(2), table, n_replicas=100, seed=11)


@pytest.mark.filterwarnings("error")
def test_poisson_error_failed_replicas_emit_no_warning():
    # one coincidence per mode: many replicas lose every coincidence, and
    # over 1% lose every single
    table = matched_table(n_d1=2, n_d2=2, c13=1, c24=1)
    for estimator in VECTORIZED_ESTIMATORS:
        with pytest.raises(DegenerateStatisticsError):
            poisson_error(estimator, table, n_replicas=1000, seed=12)
