"""Seeded trial-level Monte Carlo of the write/feed-forward/read cycle.

The trial logic is written once, in :func:`_decide_one`. Running it on
interval-valued draws (:func:`_cells`) splits the unit cube of its uniforms
into cells of constant outcome, which gives the exact outcome distribution
of one trial. A setting's trials are i.i.d. draws from that table, so its
outcome histogram is one multinomial draw, whatever the trial count.

Reproducibility contract: each setting draws its histogram from a
counter-based Philox stream keyed by (seed, run_tag, setting index).
Per-trial records arrange that same histogram in a uniformly random order
drawn from a second stream (the setting's key plus one element), so the
records always tally to the counts, and counts never depend on whether
records are written.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .entanglement import AngleSettings, pair_correlation
from .decoherence import retrieval_decay
from .errors import ParameterError, check_integer, check_seed
from .params import CountsTable, ExperimentParams

# Version of the random streams, in simulate provenance. v4: one
# multinomial histogram per setting; records are a seeded arrangement of it.
STREAM_VERSION = "v4"
# Most trials of one setting: its multinomial counts them in int64.
TRIALS_MAX = 2**63 - 1
# Most trials of one setting with per-trial records: all of them are held
# at once.
RECORDS_LIMIT = 1_000_000

# Draw roles of _decide_one's uniforms. Roles 9-12 are compared only when
# double-pair sampling is enabled.
_N_COLS = 13
(_U_PAIR, _U_S_DETECT, _U_S_WHICH, _U_S_BG, _U_S_BG_WHICH,
 _U_RETRIEVE, _U_AS_WHICH, _U_AS_BG, _U_AS_BG_WHICH,
 _U_P2_S_DETECT, _U_P2_S_WHICH, _U_P2_RETRIEVE, _U_P2_AS_WHICH) = range(13)

# A trial outcome: (s_click, s_d1, as_click, as_d3, pair_created).
_Outcome = Tuple[bool, bool, bool, bool, bool]


class TrialRecord(NamedTuple):
    """Outcome of one write/read trial. ``pair_created`` is ground truth."""

    stokes_click: Optional[str]      # None, "D1" or "D2"
    antistokes_click: Optional[str]  # None, "D3" or "D4"
    pair_created: bool

    @classmethod
    def from_outcome(cls, outcome: _Outcome) -> TrialRecord:
        """The record of a trial with this ``_decide_one`` outcome."""
        s_click, s_d1, as_click, as_d3, pair = outcome
        return cls(("D1" if s_d1 else "D2") if s_click else None,
                   ("D3" if as_d3 else "D4") if as_click else None,
                   bool(pair))


class _TrialModel(NamedTuple):
    """Per-trial probabilities derived from the experiment parameters."""

    chi: float
    chi2_half: float       # double-pair probability chi^2/2
    p_s_detect: float      # eta_s
    p_s_bg: float          # noise_b * eta_s
    p_retrieve: float      # R(t) * eta_as
    p_as_bg: float         # noise_c * eta_as
    match_prob: float      # P(matched detector pair | correlated click)
    double_pair: bool


def _trial_model(params: ExperimentParams, t: float, angles: AngleSettings,
                 double_pair: bool) -> _TrialModel:
    k = pair_correlation(angles, params.visibility)
    return _TrialModel(
        chi=params.chi,
        chi2_half=params.chi ** 2 / 2.0,
        p_s_detect=params.eta_s,
        p_s_bg=params.noise_b * params.eta_s,
        p_retrieve=retrieval_decay(params.decay, t) * params.eta_as,
        p_as_bg=params.noise_c * params.eta_as,
        match_prob=(1.0 + k) / 2.0,
        double_pair=double_pair,
    )


def _decide_one(model: _TrialModel, u: Sequence[float]):
    """The decisions of one trial, given one uniform per draw role.

    Click priority on collisions: first pair's photon, then second pair's,
    then channel background. Every draw is used only as ``u[role] < cut``,
    which is what lets :func:`_cells` run it on intervals.
    """
    pair1 = u[_U_PAIR] < model.chi
    pair2 = model.double_pair and u[_U_PAIR] < model.chi2_half
    s_sig1 = pair1 and u[_U_S_DETECT] < model.p_s_detect
    s_sig2 = pair2 and u[_U_P2_S_DETECT] < model.p_s_detect
    s_bg = u[_U_S_BG] < model.p_s_bg

    if s_sig1:
        s_click, s_d1 = True, u[_U_S_WHICH] < 0.5
    elif s_sig2:
        s_click, s_d1 = True, u[_U_P2_S_WHICH] < 0.5
    elif s_bg:
        s_click, s_d1 = True, u[_U_S_BG_WHICH] < 0.5
    else:
        s_click, s_d1 = False, False

    # Feed-forward: the read fires only after a heralding Stokes click. A
    # retrieved photon is correlated with its own Stokes photon; if that
    # photon was not the recorded herald, its detector choice is 50/50.
    as_click, as_d3 = False, False
    if s_click:
        if pair1 and u[_U_RETRIEVE] < model.p_retrieve:
            as_click = True
            if s_sig1:
                as_d3 = s_d1 == (u[_U_AS_WHICH] < model.match_prob)
            else:
                as_d3 = u[_U_AS_WHICH] < 0.5
        elif pair2 and u[_U_P2_RETRIEVE] < model.p_retrieve:
            as_click = True
            if s_sig2 and not s_sig1:
                as_d3 = s_d1 == (u[_U_P2_AS_WHICH] < model.match_prob)
            else:
                as_d3 = u[_U_P2_AS_WHICH] < 0.5
        elif u[_U_AS_BG] < model.p_as_bg:
            as_click = True
            as_d3 = u[_U_AS_BG_WHICH] < 0.5
    return s_click, s_d1, as_click, as_d3, pair1


class _Cell:
    """The box of uniforms that :func:`_cells` is currently splitting.

    Each role starts on [0, 1). A cut inside a role's interval splits it:
    the branch comes from ``path`` ("below" past its end), and the box's
    weight shrinks by that branch's share of the interval.
    """

    __slots__ = ("lo", "hi", "path", "splits", "weight")


class _Draw:
    """``u[role]`` of the :class:`_Cell` being split: comparing it with a
    cut returns the branch and narrows the cell."""

    __slots__ = ("cell", "role")

    def __init__(self, cell: _Cell, role: int):
        self.cell, self.role = cell, role

    def __lt__(self, cut: float) -> bool:
        cell, role = self.cell, self.role
        lo, hi = cell.lo[role], cell.hi[role]
        if not lo < cut < hi:
            return cut >= hi
        splits = cell.splits
        cell.splits = splits + 1
        if splits < len(cell.path) and not cell.path[splits]:
            cell.weight *= (hi - cut) / (hi - lo)
            cell.lo[role] = cut
            return False
        cell.weight *= (cut - lo) / (hi - lo)
        cell.hi[role] = cut
        return True


def _cells(model: _TrialModel) -> Iterator[tuple]:
    """Partition [0, 1)^13 into boxes on which ``_decide_one`` is constant.

    Yields ``(outcome, probability, lo, hi)`` per box, depth first, so the
    order is deterministic. Every box has positive probability.
    """
    cell = _Cell()
    draws = [_Draw(cell, role) for role in range(_N_COLS)]
    pending: List[Tuple[bool, ...]] = [()]
    while pending:
        path = pending.pop()
        cell.lo, cell.hi = [0.0] * _N_COLS, [1.0] * _N_COLS
        cell.path, cell.splits, cell.weight = path, 0, 1.0
        outcome = _decide_one(model, draws)  # a tuple of bools
        # every split past the path went "below"; queue each one's other side
        for extra in range(cell.splits - len(path)):
            pending.append(path + (True,) * extra + (False,))
        yield outcome, cell.weight, cell.lo, cell.hi


@lru_cache(maxsize=64)
def _outcome_table(model: _TrialModel
                   ) -> Tuple[Tuple[_Outcome, ...], np.ndarray]:
    """Sorted outcomes of one trial and their (read-only) probabilities.
    Memoized: ``simulate --records`` asks for each setting's table twice."""
    probs = {}
    for outcome, weight, _, _ in _cells(model):
        probs[outcome] = probs.get(outcome, 0.0) + weight
    outcomes = tuple(sorted(probs))
    table = np.array([probs[o] for o in outcomes])
    table.flags.writeable = False
    return outcomes, table


def _count_matrix(outcomes: Sequence[_Outcome]) -> np.ndarray:
    """Per outcome, its contribution to each of CountsTable's six counts."""
    return np.array([(s and d1, s and not d1,
                      s and a and d1 and d3, s and a and not (d1 or d3),
                      s and a and d1 and not d3, s and a and d3 and not d1)
                     for s, d1, a, d3, _ in outcomes], dtype=np.int64)


def exact_count_probs(params: ExperimentParams, t: float,
                      angles: AngleSettings, *,
                      double_pair: bool = False) -> np.ndarray:
    """Exact per-trial probabilities of CountsTable's six counts."""
    outcomes, probs = _outcome_table(
        _trial_model(params, t, angles, double_pair))
    return probs @ _count_matrix(outcomes)


def _rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _histogram(probs: np.ndarray, n_trials: int, seed: int, run_tag: int,
               setting_index: int) -> np.ndarray:
    """Outcome histogram of one setting's trials: one multinomial."""
    return _rng(seed, run_tag, setting_index).multinomial(n_trials, probs)


def trial_outcomes(params: ExperimentParams, t: float, angles: AngleSettings,
                   n_trials: int, seed: int, *, setting_index: int = 0,
                   double_pair: bool = False, run_tag: int = 0
                   ) -> Tuple[Tuple[_Outcome, ...], np.ndarray]:
    """Outcome table of one setting and each trial's outcome index.

    The trials are the histogram :func:`run_experiment` counts for the same
    key, in a uniformly random order drawn from the key plus one element.
    At most ``RECORDS_LIMIT`` trials.
    """
    check_integer("n_trials", n_trials, f"[1, {RECORDS_LIMIT}]")
    check_seed(seed)
    outcomes, probs = _outcome_table(
        _trial_model(params, t, angles, double_pair))
    hist = _histogram(probs, n_trials, seed, run_tag, setting_index)
    trials = np.repeat(np.arange(len(hist), dtype=np.uint8), hist)
    _rng(seed, run_tag, setting_index, 1).shuffle(trials)
    return outcomes, trials


def run_experiment(params: ExperimentParams, t: float,
                   angle_list: Sequence[AngleSettings],
                   n_trials_per_setting: int, seed: int, *,
                   double_pair: bool = False,
                   run_tag: int = 0) -> Tuple[CountsTable, ...]:
    """Counts of ``n_trials_per_setting`` trials at each analyzer setting.

    Each setting's counts come from one multinomial histogram. Identical
    (seed, run_tag, settings) always produce identical tables.
    """
    if not angle_list:
        raise ParameterError("angle_list must contain at least one setting")
    check_integer("n_trials_per_setting", n_trials_per_setting,
                  f"[1, {TRIALS_MAX}]")
    check_seed(seed)

    tables = []
    for s_idx, angles in enumerate(angle_list):
        outcomes, probs = _outcome_table(
            _trial_model(params, t, angles, double_pair))
        hist = _histogram(probs, n_trials_per_setting, seed, run_tag, s_idx)
        counts = (int(v) for v in hist @ _count_matrix(outcomes))
        tables.append(CountsTable(angles, t, n_trials_per_setting, *counts))
    return tuple(tables)


def iter_trial_records(params: ExperimentParams, t: float,
                       angles: AngleSettings, n_trials: int, seed: int, *,
                       setting_index: int = 0, double_pair: bool = False,
                       run_tag: int = 0) -> Iterator[TrialRecord]:
    """Yield per-trial records; they tally to :func:`run_experiment`'s
    counts for the same seed, run tag and setting."""
    outcomes, trials = trial_outcomes(
        params, t, angles, n_trials, seed, setting_index=setting_index,
        double_pair=double_pair, run_tag=run_tag)
    records = [TrialRecord.from_outcome(o) for o in outcomes]
    for k in trials.tolist():
        yield records[k]
