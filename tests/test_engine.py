import inspect
import math

import numpy as np
import pytest
from scipy import stats

from dlczsim import (CHSH_SETTINGS, AngleSettings, Config, CountsTable,
                     CycleTiming, DecayParams, DetectionChain,
                     EnsembleGeometry, EstimateWithError, ExperimentParams,
                     ParameterError, TrialRecord, engine,
                     forward_count_probs, pair_correlation, run_experiment)
from dlczsim.cli import parse_angle_plan
from dlczsim.config import DEFAULT_VISIBILITY
from dlczsim.engine import (BLOCK_TRIALS, _N_COLS, _blocks, _cells,
                            _decide_one, _outcome_table, _trial_model,
                            exact_count_probs, iter_trial_records,
                            trial_outcome_blocks)
from dlczsim.repeater import PRESET_HIGH_RETRIEVAL

DEG = math.radians
TIMING = CycleTiming(prep_duration=42e-3, run_duration=8e-3,
                     trial_period=2000e-9)


def make_params(**overrides):
    defaults = dict(chi=0.01, noise_b=1e-5, noise_c=1e-4, eta_s=0.15,
                    eta_as=0.15, v0=0.8839, phase=0.0,
                    decay=DecayParams(0.77, 1e-3))
    defaults.update(overrides)
    return ExperimentParams(**defaults)


MATCHED = AngleSettings(0.0, 0.0)


def test_no_excitation_no_noise_means_no_clicks():
    params = make_params(chi=0.0, noise_b=0.0, noise_c=0.0)
    table, = run_experiment(params, 0.0, [MATCHED], 20_000, seed=1)
    assert table.n_d1 == table.n_d2 == 0
    assert table.c13 == table.c24 == table.c14 == table.c23 == 0


def test_deterministic_limit_every_trial_matched():
    params = make_params(chi=1.0, noise_b=0.0, noise_c=0.0, eta_s=1.0,
                         eta_as=1.0, v0=1.0, decay=DecayParams(1.0, 1e-3))
    n = 50_000
    table, = run_experiment(params, 0.0, [MATCHED], n, seed=2)
    assert table.n_d1 + table.n_d2 == n
    assert table.c13 + table.c24 == n
    assert table.c14 == table.c23 == 0


def test_identical_seeds_identical_tables():
    params = make_params()
    a = run_experiment(params, 0.0, [MATCHED], 100_000, seed=7)
    b = run_experiment(params, 0.0, [MATCHED], 100_000, seed=7)
    assert a == b
    c = run_experiment(params, 0.0, [MATCHED], 100_000, seed=8)
    assert a != c


def test_multi_block_runs_are_deterministic():
    params = make_params(chi=0.05, eta_s=0.5, eta_as=0.5)
    plan = [MATCHED, AngleSettings(DEG(45), DEG(22.5))]
    # > BLOCK_TRIALS, so the run spans several blocks
    n = BLOCK_TRIALS + 12_345
    first = run_experiment(params, 0.0, plan, n, seed=11)
    again = run_experiment(params, 0.0, plan, n, seed=11)
    assert first == again
    assert all(table.n_pulses == n for table in first)


def test_outcome_table_is_exact_for_decide_one():
    params = make_params(chi=0.3, noise_b=0.05, noise_c=0.2, eta_s=0.6,
                         eta_as=0.7, v0=0.9)
    angles = AngleSettings(DEG(22.5), 0.0)
    for double_pair in (False, True):
        model = _trial_model(params, 0.1e-3, angles, double_pair)
        cells = list(_cells(model))
        outcomes, probs = _outcome_table(model)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert all(weight > 0.0 for _, weight, _, _ in cells)

        # every uniform row lies in exactly one cell, whose outcome is the
        # one _decide_one gives for that row
        lo = np.array([cell[2] for cell in cells])
        hi = np.array([cell[3] for cell in cells])
        u = np.random.default_rng(99).random((4096, _N_COLS))
        inside = ((u[:, None, :] >= lo) & (u[:, None, :] < hi)).all(axis=2)
        assert (inside.sum(axis=1) == 1).all()
        for row, cell in zip(u, inside.argmax(axis=1)):
            assert cells[cell][0] == tuple(bool(v) for v in
                                           _decide_one(model, row))

        # sampled counts follow the table
        n = 1_000_000
        table, = run_experiment(params, 0.1e-3, [angles], n, seed=5,
                                double_pair=double_pair)
        observed = np.array([table.n_d1, table.n_d2, table.c13, table.c24,
                             table.c14, table.c23])
        p = exact_count_probs(params, 0.1e-3, angles,
                              double_pair=double_pair)
        z = (observed - n * p) / np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(z) <= 4), (double_pair, z)


class _ReferenceDraw:
    """``u[role]`` of a :class:`_ReferenceProbe`: comparing it asks the
    probe."""

    def __init__(self, probe, role):
        self.probe, self.role = probe, role

    def __lt__(self, cut):
        return self.probe.below(self.role, cut)


class _ReferenceProbe:
    """The interval-valued uniforms as first written: one probe and a new
    draw object per comparison, for each cell."""

    def __init__(self, path):
        self.lo, self.hi = [0.0] * _N_COLS, [1.0] * _N_COLS
        self.path, self.splits, self.weight = list(path), 0, 1.0

    def __getitem__(self, role):
        return _ReferenceDraw(self, role)

    def below(self, role, cut):
        lo, hi = self.lo[role], self.hi[role]
        if not lo < cut < hi:
            return cut >= hi
        if self.splits == len(self.path):
            self.path.append(True)
        taken = self.path[self.splits]
        self.splits += 1
        self.weight *= ((cut - lo) if taken else (hi - cut)) / (hi - lo)
        (self.hi if taken else self.lo)[role] = cut
        return taken


def _reference_cells(model):
    pending = [()]
    while pending:
        path = pending.pop()
        probe = _ReferenceProbe(path)
        outcome = tuple(bool(v) for v in _decide_one(model, probe))
        for depth in range(len(path), probe.splits):
            pending.append(tuple(probe.path[:depth]) + (False,))
        yield outcome, probe.weight, probe.lo, probe.hi


REFERENCE_MODELS = {
    "default": make_params(v0=DEFAULT_VISIBILITY),
    "noise_free": make_params(noise_b=0.0, noise_c=0.0),
    "chi_one": make_params(chi=1.0, noise_b=0.0),
}


@pytest.mark.parametrize("double_pair", [False, True])
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_outcome_table_equals_the_replaying_probe(name, double_pair):
    params = REFERENCE_MODELS[name]
    for t in (0.0, 0.15e-3, 0.5e-3, 1.05e-3, 5e-3):
        for theta_s, theta_as in ((0.0, 0.0), (0.0, 22.5), (45.0, 67.5)):
            model = _trial_model(params, t, AngleSettings(DEG(theta_s),
                                                          DEG(theta_as)),
                                 double_pair)
            reference = list(_reference_cells(model))
            assert list(_cells(model)) == reference
            probs = {}
            for outcome, weight, _, _ in reference:
                probs[outcome] = probs.get(outcome, 0.0) + weight
            outcomes, table = _outcome_table(model)
            assert outcomes == tuple(sorted(probs))
            assert table.tobytes() == np.array(
                [probs[o] for o in outcomes]).tobytes()


@pytest.mark.parametrize("double_pair, angles, gaps", [
    # relative gap forward_count_probs / exact - 1 per count column
    # (n_d1, n_d2, c13, c24, c14, c23)
    (False, AngleSettings(0.0, 0.3), [0.0, 0.0, .0058, .0058, .0370, .0370]),
    (False, MATCHED, [0.0, 0.0, .0053, .0053, .0862, .0862]),
    (True, AngleSettings(0.0, 0.3), [-.0042, -.0042, -.0030, -.0030,
                                     .0012, .0012]),
    (True, MATCHED, [-.0042, -.0042, -.0030, -.0030, .0072, .0072]),
])
def test_analytic_model_gap_to_exact_table_is_pinned(double_pair, angles,
                                                     gaps):
    # The analytic model counts accidentals as P_S * P_aS without the
    # herald conditioning of the feed-forward read; it also ignores
    # double pairs. The gap at the sample.conf operating point:
    params = make_params(v0=DEFAULT_VISIBILITY)
    exact = exact_count_probs(params, 0.0, angles, double_pair=double_pair)
    f = forward_count_probs(params, 0.0, angles)
    analytic = np.array([f.p_s / 2.0, f.p_s / 2.0, f.p13, f.p24, f.p14,
                         f.p23])
    assert analytic / exact - 1 == pytest.approx(gaps, abs=5e-4)


@pytest.mark.parametrize("double_pair", [False, True])
def test_counts_at_1e9_trials_follow_the_exact_table(double_pair):
    # one multinomial per RNG block, so 1e9 trials cost ~1e3 draws
    params = make_params(chi=0.05, eta_s=0.5, eta_as=0.5)
    plan = [MATCHED, AngleSettings(DEG(45), DEG(22.5))]
    n = 10**9
    tables = run_experiment(params, 0.2e-3, plan, n, seed=37,
                            double_pair=double_pair)
    for angles, table in zip(plan, tables):
        observed = np.array([table.n_d1, table.n_d2, table.c13, table.c24,
                             table.c14, table.c23])
        p = exact_count_probs(params, 0.2e-3, angles,
                              double_pair=double_pair)
        z = (observed - n * p) / np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(z) <= 4), (double_pair, angles, z)


def test_records_tally_equals_counts_across_blocks():
    params = make_params(chi=0.05, eta_s=0.5, eta_as=0.5)
    plan = [MATCHED, AngleSettings(DEG(45), DEG(22.5))]
    n = BLOCK_TRIALS + 12_345
    tables = run_experiment(params, 0.3e-3, plan, n, seed=41,
                            double_pair=True, run_tag=2)
    for s_idx, (angles, table) in enumerate(zip(plan, tables)):
        outcomes, blocks = trial_outcome_blocks(
            params, 0.3e-3, angles, n, 41, setting_index=s_idx,
            double_pair=True, run_tag=2)
        firsts, hist = [], np.zeros(len(outcomes), dtype=np.int64)
        for first, trials in blocks:
            firsts.append(first)
            hist += np.bincount(trials, minlength=len(outcomes))
        assert firsts == [0, BLOCK_TRIALS]
        tally = {name: 0 for name in ("n_d1", "n_d2", "c13", "c24", "c14",
                                      "c23")}
        for (s, d1, a, d3, _), count in zip(outcomes, hist.tolist()):
            if s:
                tally["n_d1" if d1 else "n_d2"] += count
            if s and a:
                tally[("c13" if d3 else "c14") if d1
                      else ("c23" if d3 else "c24")] += count
        assert tally == {name: getattr(table, name) for name in tally}


def test_records_order_is_uniform_given_the_histogram():
    # the mean position of each outcome's trials is that of a uniformly
    # random subset of the block (sampling without replacement)
    params = make_params(chi=0.3, noise_b=0.05, noise_c=0.2, eta_s=0.6,
                         eta_as=0.7)
    size = 200_000
    outcomes, blocks = trial_outcome_blocks(params, 0.0, MATCHED, size, 43,
                                            double_pair=True)
    (_, trials), = blocks
    positions = np.arange(size)
    for k in range(len(outcomes)):
        c = int(np.count_nonzero(trials == k))
        if c < 100:
            continue
        var = (size ** 2 - 1) / 12 / c * (size - c) / (size - 1)
        z = (positions[trials == k].mean() - (size - 1) / 2) / math.sqrt(var)
        assert abs(z) <= 4, (outcomes[k], c, z)


def test_blocks_are_lazy_and_cover_the_remainder():
    assert next(iter(_blocks(10**13))) == (0, BLOCK_TRIALS)
    assert list(_blocks(2 * BLOCK_TRIALS + 7)) == [
        (0, BLOCK_TRIALS), (1, BLOCK_TRIALS), (2, 7)]
    assert list(_blocks(BLOCK_TRIALS)) == [(0, BLOCK_TRIALS)]
    assert list(_blocks(5)) == [(0, 5)]


def test_trial_outcome_blocks_draw_each_block_when_reached(monkeypatch):
    drawn = []
    arrange = engine._block_arrangement
    monkeypatch.setattr(engine, "_block_arrangement",
                        lambda *key: drawn.append(key[-2]) or arrange(*key))
    _, blocks = trial_outcome_blocks(make_params(), 0.0, MATCHED,
                                     BLOCK_TRIALS + 7, 3)
    assert drawn == []
    first, trials = next(blocks)
    assert (first, len(trials), drawn) == (0, BLOCK_TRIALS, [0])
    first, trials = next(blocks)
    assert (first, len(trials), drawn) == (BLOCK_TRIALS, 7, [0, 1])


def test_trial_record_fields_without_excitation_or_noise():
    params = make_params(chi=0.0, noise_b=0.0, noise_c=0.0)
    records = list(iter_trial_records(params, 1e-6, MATCHED, 6, seed=0))
    assert [rec.trial_index for rec in records] == list(range(6))
    for rec in records:
        assert rec.stokes_click is None
        assert rec.antistokes_click is None
        assert not rec.pair_created
        assert rec.storage_time == 1e-6


def test_empirical_stokes_rate_matches_forward_model():
    params = make_params()
    n = 1_000_000
    table, = run_experiment(params, 0.0, [MATCHED], n, seed=13)
    expected = forward_count_probs(params, 0.0, MATCHED).p_s
    p_emp = (table.n_d1 + table.n_d2) / n
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p_emp - expected) < 3 * sigma


def test_retrieval_inversion_at_unit_visibility():
    # with V = 1 and no backgrounds the qubit estimator inverts R(t) exactly
    params = make_params(noise_b=0.0, noise_c=0.0, v0=1.0)
    n = 1_000_000
    t = 0.54e-3
    table, = run_experiment(params, t, [MATCHED], n, seed=17)
    r_emp = (table.c13 + table.c24) / (0.15 * (table.n_d1 + table.n_d2))
    r_true = 0.5119789888718064
    n_coinc = table.c13 + table.c24
    assert abs(r_emp - r_true) < 3 * r_true / math.sqrt(n_coinc)


def test_coincidence_ratios_match_projection_probs():
    params = make_params(chi=0.02, noise_b=0.0, noise_c=0.0, eta_s=0.3,
                         eta_as=0.3)
    angles = AngleSettings(DEG(22.5), 0.0)
    table, = run_experiment(params, 0.0, [angles], 1_000_000, seed=19)
    observed = np.array([table.c13, table.c24, table.c14, table.c23])
    k = pair_correlation(angles, params.v0, params.phase)
    expected = observed.sum() * np.array([1.0 + k, 1.0 + k, 1.0 - k,
                                          1.0 - k]) / 4.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p_value = stats.chi2.sf(chi2, df=3)
    assert p_value > 0.001


def test_feed_forward_gates_all_antistokes_clicks():
    # large noise_c so unheralded read-out noise would be obvious
    params = make_params(chi=0.05, noise_c=0.5, eta_s=0.3, eta_as=0.8)
    records = list(iter_trial_records(params, 0.0, MATCHED, 100_000, seed=23))
    assert len(records) == 100_000
    saw_coincidence = False
    for rec in records:
        if rec.antistokes_click is not None:
            assert rec.stokes_click is not None
            saw_coincidence = True
    assert saw_coincidence


def test_records_match_experiment_counts():
    params = make_params(chi=0.1, eta_s=0.5, eta_as=0.5)
    n = 30_000
    table, = run_experiment(params, 0.0, [MATCHED], n, seed=29)
    records = list(iter_trial_records(params, 0.0, MATCHED, n, seed=29))
    n_d1 = sum(1 for r in records if r.stokes_click == "D1")
    c13 = sum(1 for r in records
              if r.stokes_click == "D1" and r.antistokes_click == "D3")
    assert n_d1 == table.n_d1
    assert c13 == table.c13


def test_configuration_errors():
    params = make_params()
    with pytest.raises(ParameterError):
        run_experiment(params, 0.0, [], 1000, seed=1)
    with pytest.raises(ParameterError):
        run_experiment(params, 0.0, [MATCHED], 0, seed=1)
    with pytest.raises(ParameterError):
        run_experiment(params, 0.0, [MATCHED], 1000, seed=-1)


def test_double_pair_sampling_is_off_by_default():
    # crossed coincidences are impossible for single pairs at V=1, delta=0
    params = make_params(chi=0.2, noise_b=0.0, noise_c=0.0, eta_s=0.5,
                         eta_as=0.5, v0=1.0, decay=DecayParams(1.0, 1e-3))
    off, = run_experiment(params, 0.0, [MATCHED], 200_000, seed=31)
    assert off.c14 == 0
    assert off.c23 == 0
    on, = run_experiment(params, 0.0, [MATCHED], 200_000, seed=31,
                         double_pair=True)
    crossed = on.c14 + on.c23
    total = crossed + on.c13 + on.c24
    assert crossed > 0
    assert crossed / total < 0.05


def test_seeds_must_be_non_negative_integers():
    params = make_params()
    with pytest.raises(ParameterError, match="seed = 1.5 must be an integer"):
        run_experiment(params, 0.0, [MATCHED], 1000, seed=1.5)
    for seed in (1.5, -1):
        with pytest.raises(ParameterError, match=f"seed = {seed}"):
            trial_outcome_blocks(params, 0.0, MATCHED, 1000, seed)
    plain = run_experiment(params, 0.0, [MATCHED], 1000, seed=7)
    assert run_experiment(params, 0.0, [MATCHED], 1000,
                          seed=np.int64(7)) == plain
    outcomes, blocks = trial_outcome_blocks(params, 0.0, MATCHED, 1000, 7)
    (_, trials), = blocks
    numpy_outcomes, numpy_blocks = trial_outcome_blocks(
        params, 0.0, MATCHED, 1000, np.int64(7))
    (_, numpy_trials), = numpy_blocks
    assert numpy_outcomes == outcomes
    assert numpy_trials.tobytes() == trials.tobytes()


# One instance of each record whose construction checks nothing, a field
# of it and another value for that field.
UNCHECKED_RECORDS = {
    "TrialRecord": (TrialRecord(3, 5e-4, "D1", None, True),
                    "antistokes_click", "D4"),
    "_TrialModel": (_trial_model(make_params(), 0.0, MATCHED, False),
                    "double_pair", True),
    "AngleSettings": (MATCHED, "theta_as", DEG(22.5)),
    "ForwardProbs": (forward_count_probs(make_params(), 0.0, MATCHED),
                     "p_s", 0.5),
    "Config": (Config("sha256:0", None, None, None, None, None, False),
               "config_hash", "sha256:1"),
}
# One instance of each record whose construction checks its fields, its
# pinned signature, and a field with a value outside that field's domain.
VALIDATED_RECORDS = {
    "DetectionChain": (
        DetectionChain(0.2, 0.13, 0.71, 0.56, 0.92, 0.68,
                       loss_items={"hr": 0.13}),
        "(t_oc: 'float', cavity_loss: 'float', eta_smf: 'float', "
        "eta_filter: 'float', eta_mmf: 'float', eta_d: 'float', "
        "loss_items: 'Optional[Mapping[str, float]]' = None) -> None",
        "cavity_loss", 1.0),
    "EnsembleGeometry": (
        EnsembleGeometry(795e-9, 100e-6, 1.44e-25, 5.5e-3, 2.0, 1.5),
        "(wavelength: 'float', temperature: 'float', atomic_mass: 'float', "
        "bd_separation: 'float', f_btd: 'float', f0: 'float') -> None",
        "temperature", -1.0),
    "DecayParams": (
        DecayParams(0.77, 1e-3), "(r0: 'float', tau0: 'float') -> None",
        "r0", 1.5),
    "ExperimentParams": (
        make_params(),
        "(chi: 'float', noise_b: 'float', noise_c: 'float', eta_s: 'float', "
        "eta_as: 'float', v0: 'float', phase: 'float', decay: 'DecayParams' "
        "= DecayParams(r0=0.77, tau0=0.001)) -> None",
        "noise_b", 0.995),  # chi + noise_b > 1
    "CycleTiming": (
        TIMING,
        "(prep_duration: 'float', run_duration: 'float', "
        "trial_period: 'float') -> None",
        "trial_period", 1.0),  # longer than the run
    "RepeaterParams": (
        PRESET_HIGH_RETRIEVAL,
        "(nest_level: 'int', modes: 'int', distance: 'float', "
        "attenuation_length: 'float', fiber_speed: 'float', chi: 'float', "
        "eta_fc: 'float', eta_td: 'float', r0: 'float', tau0: 'float', "
        "link_divisor: 'str' = '2^n') -> None",
        "link_divisor", "2n"),
    "CountsTable": (
        CountsTable(MATCHED, 0.0, 1000, 30, 40, 10, 12, 2, 3),
        "(settings: 'AngleSettings', storage_time: 'float', "
        "n_pulses: 'int', n_d1: 'int', n_d2: 'int', c13: 'int', c24: 'int', "
        "c14: 'int', c23: 'int') -> None",
        "c13", 29),  # more D1 coincidences than D1 singles
    "EstimateWithError": (
        EstimateWithError(0.5, 0.01), "(value: 'float', sigma: 'float') "
        "-> None", "sigma", -0.01),
}


@pytest.mark.parametrize("name", sorted(UNCHECKED_RECORDS))
def test_unchecked_records_are_immutable_values(name):
    record, field, value = UNCHECKED_RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    changed = record._replace(**{field: value})
    assert type(changed) is type(record)
    assert getattr(changed, field) == value != getattr(record, field)
    assert changed != record
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)


def test_rebuilding_a_setting_hits_the_outcome_table_cache():
    model = _trial_model(make_params(), 2e-4, AngleSettings(0.1, 0.2), True)
    first = _outcome_table(model)
    hits = _outcome_table.cache_info().hits
    rebuilt = _trial_model(make_params(), 2e-4, AngleSettings(0.1, 0.2), True)
    assert rebuilt is not model
    assert _outcome_table(rebuilt) is first
    assert _outcome_table.cache_info().hits == hits + 1


def test_chsh_settings_are_the_canonical_angles_in_e_sum_order():
    # (theta_s, theta_as) of E1 .. E4 in S = |E1 - E2 + E3 + E4|, radians
    pinned = [(0.0, 0.39269908169872414), (0.0, 1.1780972450961724),
              (0.7853981633974483, 0.39269908169872414),
              (0.7853981633974483, 1.1780972450961724)]
    assert [tuple(s) for s in CHSH_SETTINGS] == pinned
    assert all(type(s) is AngleSettings for s in CHSH_SETTINGS)
    assert parse_angle_plan("canonical") == list(CHSH_SETTINGS)
    assert parse_angle_plan(" Canonical ") == list(CHSH_SETTINGS)


@pytest.mark.parametrize("name", sorted(VALIDATED_RECORDS))
def test_validated_records_are_checked_immutable_values(name):
    record, signature, field, bad = VALIDATED_RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    assert str(inspect.signature(cls)) == signature
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
    with pytest.raises(AttributeError):
        delattr(record, field)
    values = {key: getattr(record, key)
              for key in inspect.signature(cls).parameters}
    twin = cls(**values)
    assert twin is not record and twin == record
    assert cls(*values.values()) == record
    if name == "DetectionChain":  # loss_items is a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    assert record._replace() == record
    with pytest.raises(ParameterError):
        record._replace(**{field: bad})
