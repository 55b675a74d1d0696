import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlczsim import (CHSH_SETTINGS, AngleSettings, DegenerateStatisticsError,
                     InsufficientDataError, ParameterError, bell_S,
                     bell_S_signed, correlation_E, fidelity_from_S,
                     intrinsic_retrieval_mode, intrinsic_retrieval_qubit,
                     pair_correlation, poisson_error, visibility_from_S)
from dlczsim.estimators import (MATCHED_ANGLE_TOL, REPLICAS_MAX,
                                estimate_tables)
from dlczsim.params import DEFAULT_VISIBILITY, CountsTable

DEG = math.radians
TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


def matched_table(n_pulses=1_000_000, n_d1=5000, n_d2=5000, c13=578,
                  c24=577, c14=0, c23=0, theta=0.0, t=0.0):
    return CountsTable(settings=AngleSettings(theta, theta), storage_time=t,
                       n_pulses=n_pulses, n_d1=n_d1, n_d2=n_d2, c13=c13,
                       c24=c24, c14=c14, c23=c23)


def proj_table(theta_s, theta_as, visibility, n=40_000, n_pulses=10_000_000,
               singles=100_000):
    """Float-count table built from the exact projection probabilities,
    (1 + K)/4 on matched and (1 - K)/4 on crossed detector pairs."""
    k = pair_correlation(AngleSettings(theta_s, theta_as), visibility)
    matched, crossed = (1.0 + k) / 4.0, (1.0 - k) / 4.0
    return SimpleNamespace(settings=AngleSettings(theta_s, theta_as),
                           storage_time=0.0, n_pulses=n_pulses,
                           n_d1=singles, n_d2=singles,
                           c13=matched * n, c24=matched * n,
                           c14=crossed * n, c23=crossed * n,
                           matched=(matched + matched) * n,
                           crossed=(crossed + crossed) * n)


def canonical_proj_tables(visibility, n=40_000):
    return [proj_table(ts, tas, visibility, n=n)
            for ts, tas in CHSH_SETTINGS]


def chsh_tables():
    """Integer-count tables of the four canonical CHSH settings."""
    return [CountsTable(settings=AngleSettings(ts, tas), storage_time=0.0,
                        n_pulses=100_000, n_d1=700, n_d2=720, c13=80,
                        c24=70, c14=10, c23=12)
            for ts, tas in CHSH_SETTINGS]


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


def test_chsh_set_must_share_one_storage_time():
    # the four CHSH settings, split over two storage times
    tables = [tb._replace(storage_time=t)
              for tb, t in zip(chsh_tables(), (0.0, 2e-3, 0.0, 2e-3))]
    for estimate in (bell_S_signed, bell_S):
        with pytest.raises(ParameterError,
                           match="share one storage time, got 0.0, 0.002 s"):
            estimate(tables)
    assert list(estimate_tables(tables, 0.5, n_replicas=100)) == [
        (i, "E") for i in range(4)]


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


def test_non_finite_scalar_inputs_are_rejected():
    for eta_td in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="eta_td"):
            intrinsic_retrieval_qubit(matched_table(), eta_td)
    with pytest.raises(ParameterError, match="S = nan"):
        visibility_from_S(math.nan)


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
        tb.matched, tb.crossed = tb.c13 + tb.c24, tb.c14 + tb.c23
    s = bell_S(tables, n_replicas=10_000, seed=8)
    assert s.value == pytest.approx(2.5, abs=0.1)
    assert 0.01 < s.sigma < 0.04


def test_poisson_error_is_deterministic():
    table = matched_table(n_d1=1000, n_d2=1000, c13=15, c24=15, c14=5, c23=5)
    a = poisson_error(correlation_E, table, n_replicas=1000, seed=9)
    b = poisson_error(correlation_E, table, n_replicas=1000, seed=9)
    assert a == b


def test_poisson_error_validates_replicas(monkeypatch):
    with pytest.raises(ParameterError):
        poisson_error(correlation_E, matched_table(), n_replicas=50, seed=0)

    def no_draw(*args, **kwargs):
        raise AssertionError("replicas drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for n in (REPLICAS_MAX + 1, 10**9):  # refused before any draw
        with pytest.raises(ParameterError, match=str(REPLICAS_MAX)):
            poisson_error(correlation_E, matched_table(), n_replicas=n,
                          seed=0)


def test_negative_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed = -1"):
        poisson_error(correlation_E, matched_table(), seed=-1)
    with pytest.raises(ParameterError, match="seed = -1"):
        bell_S(chsh_tables(), seed=-1)


def test_fractional_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed = 1.5 must be an integer"):
        poisson_error(correlation_E, matched_table(), seed=1.5)
    plain = poisson_error(correlation_E, matched_table(), seed=7)
    assert poisson_error(correlation_E, matched_table(),
                         seed=np.int64(7)) == plain


RETRIEVALS = ("r_qubit", "r_l", "r_r")


@pytest.mark.parametrize("tables, keys", [
    (chsh_tables(), [(0, "E"), (1, "E"), (2, "E"), (3, "E"), (None, "S")]),
    ([matched_table(c14=20, c23=25)],
     [(0, "E")] + [(0, name) for name in RETRIEVALS]),
    ([matched_table(c13=0, c24=0)], [(0, name) for name in RETRIEVALS]),
    (chsh_tables()[:3] + [matched_table()],
     [(0, "E"), (1, "E"), (2, "E"), (3, "E")]
     + [(3, name) for name in RETRIEVALS]),
], ids=["chsh_set", "matched", "matched_no_coincidences", "mixed"])
def test_estimate_tables_keys(tables, keys):
    assert list(estimate_tables(tables, 0.5, n_replicas=100)) == keys


def test_poisson_error_degenerate_statistics():
    # about e^-2 of the replicas of (1, 1, 0, 0) lose every coincidence
    table = matched_table(c13=1, c24=1)
    with pytest.raises(DegenerateStatisticsError):
        poisson_error(correlation_E, table, n_replicas=1000, seed=10)
    # an estimator that fails on the original counts propagates directly
    with pytest.raises(InsufficientDataError):
        poisson_error(correlation_E, matched_table(c13=0, c24=0),
                      n_replicas=1000, seed=10)


VECTORIZED_ESTIMATORS = (
    correlation_E,
    lambda c: intrinsic_retrieval_qubit(c, 0.15),
    lambda c: intrinsic_retrieval_mode(c, "L", 0.15),
    lambda c: intrinsic_retrieval_mode(c, "R", 0.15),
)


def counts_namespace(values):
    n_d1, n_d2, c13, c24, c14, c23 = values
    return SimpleNamespace(settings=AngleSettings(0.0, 0.0), storage_time=0.0,
                           n_pulses=1000, n_d1=n_d1, n_d2=n_d2, c13=c13,
                           c24=c24, c14=c14, c23=c23, matched=c13 + c24,
                           crossed=c14 + c23)


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
    # the single (n_replicas, 5) draw of a matched-angle table's channels
    # (n_d1, n_d2, c13, c24, crossed), minus the dropped replica
    draws = np.random.default_rng(11).poisson(
        [table.n_d1, table.n_d2, table.c13, table.c24, table.crossed],
        size=(100, 5))
    _, _, c13, c24, crossed = draws[1:].T
    kept = correlation_E(SimpleNamespace(matched=c13 + c24, crossed=crossed))
    assert est.value == correlation_E(table)
    assert est.sigma == float(np.std(kept))
    with pytest.raises(DegenerateStatisticsError, match="2/100"):
        poisson_error(fail_first(2), table, n_replicas=100, seed=11)


def test_poisson_error_shares_one_draw_among_estimators():
    table = matched_table(n_d1=1000, n_d2=1000, c13=15, c24=15, c14=5, c23=5)
    estimators = (correlation_E, fail_first(1),
                  lambda c: intrinsic_retrieval_qubit(c, 0.5),
                  lambda c: intrinsic_retrieval_mode(c, "R", 0.5))
    assert poisson_error(estimators, table, n_replicas=200, seed=4) == [
        poisson_error(e, table, n_replicas=200, seed=4) for e in estimators]
    # each estimator keeps its own failure rule; the first to fail raises
    with pytest.raises(DegenerateStatisticsError, match="3/200"):
        poisson_error((fail_first(2), fail_first(3), fail_first(4)), table,
                      n_replicas=200, seed=4)
    assert poisson_error((), table, n_replicas=200) == []


def test_raising_point_estimate_costs_no_draw(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew replicas for a failed point estimate")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ParameterError, match="exactly 4 tables"):
        bell_S([matched_table()] * 3)
    with pytest.raises(InsufficientDataError):
        poisson_error((correlation_E, correlation_E),
                      matched_table(c13=0, c24=0))


@pytest.mark.filterwarnings("error")
def test_poisson_error_failed_replicas_emit_no_warning():
    # one coincidence per mode: many replicas lose every coincidence, and
    # over 1% lose every single
    table = matched_table(n_d1=2, n_d2=2, c13=1, c24=1)
    for estimator in VECTORIZED_ESTIMATORS:
        with pytest.raises(DegenerateStatisticsError):
            poisson_error(estimator, table, n_replicas=1000, seed=12)


@pytest.mark.parametrize("offset, names, channels", [
    (5e-7, {"E", "r_qubit", "r_l", "r_r"},
     {"n_d1", "n_d2", "c13", "c24", "crossed"}),
    (2e-6, {"E"}, {"matched", "crossed"}),
], ids=["matched", "unmatched"])
def test_matched_angle_tolerance_sets_estimators_and_draw(
        monkeypatch, offset, names, channels):
    assert MATCHED_ANGLE_TOL == 1e-6
    table = CountsTable(settings=AngleSettings(0.3, 0.3 + offset),
                        storage_time=0.0, n_pulses=1_000_000, n_d1=5000,
                        n_d2=5000, c13=578, c24=577, c14=20, c23=25)
    assert {name for _, name in estimate_tables(
        [table], 0.5, n_replicas=100)} == names

    sizes = []
    real_rng = np.random.default_rng

    class Rng:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def poisson(self, lam, size):
            sizes.append(size)
            return self.rng.poisson(lam, size=size)
    monkeypatch.setattr(np.random, "default_rng", Rng)
    seen = []

    def spy(counts):
        seen.append(counts)
        return correlation_E(counts)
    poisson_error(spy, table, n_replicas=100, seed=0)
    assert sizes == [(100, len(channels))]
    replica = seen[-1]
    assert set(vars(replica)) == {"settings", "storage_time", "n_pulses",
                                  "matched"} | channels
    if "c13" in channels:  # matched = c13 + c24 of the draw
        assert (replica.matched == replica.c13 + replica.c24).all()
    with pytest.raises(AttributeError):
        replica.c14
