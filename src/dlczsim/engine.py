"""Seeded trial-level Monte Carlo of the write/feed-forward/read cycle.

The trial logic is written once, in :func:`_decide_one`. Running it on
interval-valued draws (:func:`_cells`) splits the unit cube of its uniforms
into cells of constant outcome, which gives the exact outcome distribution
of one trial; the engine samples each trial's outcome from that table.

Reproducibility contract: every trial's outcome comes from one uniform of a
counter-based Philox stream keyed by (seed, run_tag, setting index, block
index) with a fixed block length. Counts are therefore bit-identical for a
fixed seed; merging blocks is plain integer addition. ``workers`` is
accepted and validated but has no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .entanglement import AngleSettings, projection_probs
from .decoherence import retrieval_decay
from .errors import ParameterError
from .params import CycleTiming, ExperimentParams

# Trials per RNG block. Fixed: changing it changes sampled streams.
BLOCK_TRIALS = 1 << 20

# Draw roles of _decide_one's uniforms. Roles 9-12 exist only when
# double-pair sampling is enabled.
_N_COLS_SINGLE = 9
_N_COLS_DOUBLE = 13
(_U_PAIR, _U_S_DETECT, _U_S_WHICH, _U_S_BG, _U_S_BG_WHICH,
 _U_RETRIEVE, _U_AS_WHICH, _U_AS_BG, _U_AS_BG_WHICH,
 _U_P2_S_DETECT, _U_P2_S_WHICH, _U_P2_RETRIEVE, _U_P2_AS_WHICH) = range(13)

# A trial outcome: (s_click, s_d1, as_click, as_d3, pair_created).
_Outcome = Tuple[bool, bool, bool, bool, bool]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one write/read trial. ``pair_created`` is ground truth."""

    trial_index: int
    storage_time: float
    stokes_click: Optional[str]      # None, "D1" or "D2"
    antistokes_click: Optional[str]  # None, "D3" or "D4"
    pair_created: bool

    @classmethod
    def from_outcome(cls, trial_index: int, storage_time: float,
                     outcome: _Outcome) -> "TrialRecord":
        """The record of a trial with this ``_decide_one`` outcome."""
        s_click, s_d1, as_click, as_d3, pair = outcome
        return cls(trial_index, storage_time,
                   ("D1" if s_d1 else "D2") if s_click else None,
                   ("D3" if as_d3 else "D4") if as_click else None,
                   bool(pair))


@dataclass(frozen=True)
class CountsTable:
    """Aggregated singles and coincidence counts at one analyzer setting."""

    settings: AngleSettings
    storage_time: float
    n_pulses: int
    n_d1: int
    n_d2: int
    c13: int
    c24: int
    c14: int
    c23: int

    def __post_init__(self):
        for name in ("n_pulses", "n_d1", "n_d2", "c13", "c24", "c14", "c23"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.n_d1 + self.n_d2 > self.n_pulses:
            raise ParameterError("more Stokes singles than pulses")
        if self.c13 + self.c14 > self.n_d1:
            raise ParameterError("more D1 coincidences than D1 singles")
        if self.c23 + self.c24 > self.n_d2:
            raise ParameterError("more D2 coincidences than D2 singles")


@dataclass(frozen=True)
class ExperimentResult:
    """Counts per analyzer setting plus the simulated wall-clock time."""

    tables: Tuple[CountsTable, ...]
    wall_time: float  # seconds of simulated laboratory time


@dataclass(frozen=True)
class _TrialModel:
    """Per-trial probabilities derived from the experiment parameters."""

    chi: float
    chi2_half: float       # double-pair probability chi^2/2
    p_s_detect: float      # eta_s
    p_s_bg: float          # noise_b * eta_s
    p_retrieve: float      # R(t) * eta_as
    p_as_bg: float         # noise_c * eta_as
    match_prob: float      # P(matched detector pair | correlated click)
    double_pair: bool

    @property
    def n_cols(self) -> int:
        return _N_COLS_DOUBLE if self.double_pair else _N_COLS_SINGLE


def _trial_model(params: ExperimentParams, t: float, angles: AngleSettings,
                 double_pair: bool) -> _TrialModel:
    proj = projection_probs(angles, params.v0, params.phase)
    return _TrialModel(
        chi=params.chi,
        chi2_half=params.chi ** 2 / 2.0,
        p_s_detect=params.eta_s,
        p_s_bg=params.noise_b * params.eta_s,
        p_retrieve=retrieval_decay(params.decay, t) * params.eta_as,
        p_as_bg=params.noise_c * params.eta_as,
        match_prob=2.0 * proj.p13,
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


class _Draw:
    """``u[role]`` of a :class:`_Probe`: comparing it asks the probe."""

    def __init__(self, probe: "_Probe", role: int):
        self.probe, self.role = probe, role

    def __lt__(self, cut: float) -> bool:
        return self.probe.below(self.role, cut)


class _Probe:
    """Interval-valued stand-in for the uniforms fed to :func:`_decide_one`.

    Each role starts on [0, 1). A cut inside a role's interval splits it:
    the branch comes from ``path`` ("below" past its end), and the cell's
    weight shrinks by that branch's share of the interval.
    """

    def __init__(self, n_cols: int, path: Sequence[bool]):
        self.lo, self.hi = [0.0] * n_cols, [1.0] * n_cols
        self.path, self.splits, self.weight = list(path), 0, 1.0

    def __getitem__(self, role: int) -> _Draw:
        return _Draw(self, role)

    def below(self, role: int, cut: float) -> bool:
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


def _cells(model: _TrialModel) -> Iterator[tuple]:
    """Partition [0, 1)^n_cols into boxes on which ``_decide_one`` is constant.

    Yields ``(outcome, probability, lo, hi)`` per box, depth first, so the
    order is deterministic. Every box has positive probability.
    """
    pending: List[Tuple[bool, ...]] = [()]
    while pending:
        path = pending.pop()
        probe = _Probe(model.n_cols, path)
        outcome = tuple(bool(v) for v in _decide_one(model, probe))
        for depth in range(len(path), probe.splits):
            pending.append(tuple(probe.path[:depth]) + (False,))
        yield outcome, probe.weight, probe.lo, probe.hi


def _outcome_table(model: _TrialModel) -> Tuple[List[_Outcome], np.ndarray]:
    """Sorted outcomes of one trial and their cumulative probabilities."""
    probs = {}
    for outcome, weight, _, _ in _cells(model):
        probs[outcome] = probs.get(outcome, 0.0) + weight
    outcomes = sorted(probs)
    return outcomes, np.cumsum([probs[o] for o in outcomes])


def _count_matrix(outcomes: Sequence[_Outcome]) -> np.ndarray:
    """Per outcome, its contribution to (n_d1, n_d2, c13, c24, c14, c23)."""
    return np.array([(s and d1, s and not d1,
                      s and a and d1 and d3, s and a and not (d1 or d3),
                      s and a and d1 and not d3, s and a and d3 and not d1)
                     for s, d1, a, d3, _ in outcomes], dtype=np.int64)


def _block_outcomes(cdf: np.ndarray, seed: int, run_tag: int,
                    setting_index: int, block: int, n: int) -> np.ndarray:
    """Outcome index of each trial in one block, one Philox uniform each."""
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(run_tag, setting_index, block))
    u = np.random.Generator(np.random.Philox(ss)).random(n)
    return np.searchsorted(cdf[:-1], u, side="right")


def run_trial(params: ExperimentParams, t: float, angles: AngleSettings,
              rng_stream: np.random.Generator, *,
              trial_index: int = 0, double_pair: bool = False) -> TrialRecord:
    """Simulate a single write/feed-forward/read trial.

    Draws a fixed number of uniforms from ``rng_stream`` (9, or 13 with
    double-pair sampling) in the documented role order.
    """
    model = _trial_model(params, t, angles, double_pair)
    u = rng_stream.random(model.n_cols)
    return TrialRecord.from_outcome(trial_index, t, _decide_one(model, u))


def _blocks(n_trials: int) -> Iterator[Tuple[int, int]]:
    """(block index, size) of each RNG block, produced lazily."""
    full, rem = divmod(n_trials, BLOCK_TRIALS)
    for block in range(full):
        yield block, BLOCK_TRIALS
    if rem:
        yield full, rem


def trial_outcome_blocks(params: ExperimentParams, t: float,
                         angles: AngleSettings, n_trials: int, seed: int, *,
                         setting_index: int = 0, double_pair: bool = False,
                         run_tag: int = 0) -> Tuple[List[_Outcome], Iterator]:
    """Outcome table of one setting and its trials' outcomes, block by block.

    Returns the sorted outcomes and, per RNG block of the engine's one
    stream, (first trial index, draw): ``draw()`` gives each trial's outcome
    index, on call, so that a caller holds one block at a time.
    """
    if n_trials <= 0:
        raise ParameterError("n_trials must be > 0")
    outcomes, cdf = _outcome_table(
        _trial_model(params, t, angles, double_pair))
    blocks = ((block * BLOCK_TRIALS, partial(_block_outcomes, cdf, seed,
                                             run_tag, setting_index, block,
                                             size))
              for block, size in _blocks(n_trials))
    return outcomes, blocks


def run_experiment(params: ExperimentParams, timing: CycleTiming, t: float,
                   angle_list: Sequence[AngleSettings],
                   n_trials_per_setting: int, seed: int, *,
                   workers: int = 1, double_pair: bool = False,
                   run_tag: int = 0) -> ExperimentResult:
    """Run ``n_trials_per_setting`` trials at each analyzer setting.

    Counts are exact sums over trials; the simulated wall time follows the
    preparation/run duty cycle of ``timing``. Identical (seed, run_tag,
    settings) always produce identical tables. ``workers`` must be >= 1 and
    has no effect.
    """
    if not angle_list:
        raise ParameterError("angle_list must contain at least one setting")
    if n_trials_per_setting <= 0:
        raise ParameterError("n_trials_per_setting must be > 0")
    if seed < 0:
        raise ParameterError("seed must be a non-negative integer")
    if workers < 1:
        raise ParameterError("workers must be >= 1")

    tables = []
    for s_idx, angles in enumerate(angle_list):
        outcomes, blocks = trial_outcome_blocks(
            params, t, angles, n_trials_per_setting, seed,
            setting_index=s_idx, double_pair=double_pair, run_tag=run_tag)
        hist = sum(np.bincount(draw(), minlength=len(outcomes))
                   for _, draw in blocks)
        counts = (int(v) for v in hist @ _count_matrix(outcomes))
        tables.append(CountsTable(angles, t, n_trials_per_setting, *counts))

    total_trials = n_trials_per_setting * len(angle_list)
    runs_needed = math.ceil(total_trials / timing.trials_per_run)
    wall_time = runs_needed * (timing.prep_duration + timing.run_duration)
    return ExperimentResult(tables=tuple(tables), wall_time=wall_time)


def iter_trial_records(params: ExperimentParams, t: float,
                       angles: AngleSettings, n_trials: int, seed: int, *,
                       setting_index: int = 0, double_pair: bool = False,
                       run_tag: int = 0) -> Iterator[TrialRecord]:
    """Yield per-trial records using the same streams as the engine."""
    outcomes, blocks = trial_outcome_blocks(
        params, t, angles, n_trials, seed, setting_index=setting_index,
        double_pair=double_pair, run_tag=run_tag)
    for first, draw in blocks:
        for i, k in enumerate(draw().tolist(), start=first):
            yield TrialRecord.from_outcome(i, t, outcomes[k])
