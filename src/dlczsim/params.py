"""Validated input and counts records, and the deterministic efficiency,
geometry, motional-lifetime and timing calculators, in pure ``math``.

All efficiencies are dimensionless in [0, 1], lengths in meters, times in
seconds, angles in radians unless a function name says otherwise.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from .errors import ParameterError, Record, check_in

# CODATA 2018
BOLTZMANN_K = 1.380649e-23      # J/K (exact)

# Tolerance for an itemized loss budget to be accepted as consistent
LOSS_ITEM_TOL = 1e-6
# Relative allowance for float rounding in trials_per_run's quotient
TRIALS_PER_RUN_REL_TOL = 1e-12
# Zero-delay visibility calibration: the value implied by a CHSH parameter
# of 2.5 through V = S / (2 sqrt 2).
DEFAULT_VISIBILITY = 2.5 / (2.0 * math.sqrt(2.0))


class DetectionChain(Record):
    """Efficiency budget of one detection channel, cavity to detector.

    ``loss_items`` optionally itemizes ``cavity_loss`` (e.g. beam splitters,
    mirror reflections, per-arm escape); when given, the items must sum to
    ``cavity_loss`` within 1e-6.
    """

    t_oc: float          # output-coupler transmittance, (0, 1]
    cavity_loss: float   # intracavity round-trip loss, [0, 1)
    eta_smf: float       # single-mode fiber coupling
    eta_filter: float    # spectral filter set transmission
    eta_mmf: float       # multimode fiber transmission
    eta_d: float         # detector quantum efficiency
    loss_items: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        for name in ("t_oc", "eta_smf", "eta_filter", "eta_mmf", "eta_d"):
            check_in(name, getattr(self, name), "(0, 1]")
        check_in("cavity_loss", self.cavity_loss, "[0, 1)")
        if self.loss_items is not None:
            items = dict(self.loss_items)
            for key, val in items.items():
                check_in(f"loss.{key}", val, "[0, 1)")
            total = math.fsum(items.values())
            if abs(total - self.cavity_loss) > LOSS_ITEM_TOL:
                raise ParameterError(
                    f"itemized losses sum to {total!r}, expected "
                    f"cavity_loss = {self.cavity_loss!r}")
            object.__setattr__(self, "loss_items", items)

    @property
    def eta_esp(self) -> float:
        """Probability of escaping through the output coupler."""
        return self.t_oc / (self.t_oc + self.cavity_loss)

    @property
    def eta_t(self) -> float:
        """Cavity-to-detector transmission (fiber, filter, fiber)."""
        return self.eta_smf * self.eta_filter * self.eta_mmf

    @property
    def eta_td(self) -> float:
        """Total detection efficiency of the channel."""
        return (self.eta_esp * self.eta_smf * self.eta_filter * self.eta_mmf
                * self.eta_d)


class EnsembleGeometry(Record):
    """Beam geometry and atomic parameters of the cold ensemble."""

    wavelength: float      # write/Stokes wavelength, m
    temperature: float     # ensemble temperature, K
    atomic_mass: float     # atom mass, kg
    bd_separation: float   # beam-displacer arm separation D, m
    f_btd: float           # beam-transformation shrink factor
    f0: float              # interferometer lens focal length, m

    def __post_init__(self):
        for name in ("wavelength", "temperature", "atomic_mass",
                     "bd_separation", "f_btd", "f0"):
            check_in(name, getattr(self, name), "(0, inf)")
        try:
            theta = coupling_angle(self)
        except ZeroDivisionError:  # 2 f_btd f0 underflows to 0
            theta = math.inf
        check_in("coupling angle bd_separation / (2 f_btd f0)", theta,
                 f"(0, {math.pi!r}]")


class DecayParams(Record):
    """Zero-delay retrieval efficiency and 1/e memory lifetime."""

    r0: float     # intrinsic retrieval efficiency at t = 0
    tau0: float   # 1/e lifetime, s

    def __post_init__(self):
        check_in("r0", self.r0, "[0, 1]")
        check_in("tau0", self.tau0, "(0, inf]")


class ExperimentParams(Record):
    """Full configuration of one write/read experiment; config defaults."""

    chi: float               # pair-creation probability per write pulse
    noise_b: float           # Stokes-channel background probability/pulse
    noise_c: float           # anti-Stokes background probability/read pulse
    eta_as: float            # total anti-Stokes detection efficiency
    eta_s: float = None      # Stokes detection efficiency, eta_as if None
    visibility: float = DEFAULT_VISIBILITY  # pair visibility at zero delay
    decay: DecayParams = DecayParams(0.77, 1e-3)  # immutable, so shared

    def __post_init__(self):
        if self.eta_s is None:
            object.__setattr__(self, "eta_s", self.eta_as)
        for name in ("chi", "noise_b", "noise_c", "visibility"):
            check_in(name, getattr(self, name), "[0, 1]")
        check_in("eta_s", self.eta_s, "(0, 1]")
        check_in("eta_as", self.eta_as, "(0, 1]")
        if self.chi + self.noise_b > 1.0:
            raise ParameterError(
                f"chi + noise_b = {self.chi + self.noise_b!r} exceeds 1")


class CycleTiming(Record):
    """Timing of one experimental cycle (preparation stage + trial run)."""

    prep_duration: float            # cold-atom preparation stage, s
    run_duration: float             # trial-run stage, s
    trial_period: float             # write-to-write delay, s

    def __post_init__(self):
        check_in("run_duration", self.run_duration, "(0, inf)")
        check_in("trial_period", self.trial_period, "(0, inf)")
        check_in("prep_duration", self.prep_duration, "[0, inf)")
        check_in("prep_duration + run_duration",
                 self.prep_duration + self.run_duration, "(0, inf)")
        check_in("run_duration / trial_period (1 + 1e-12)", self.run_duration
                 / self.trial_period * (1.0 + TRIALS_PER_RUN_REL_TOL),
                 "[1, inf)")

    @property
    def trials_per_run(self) -> int:
        return math.floor(self.run_duration / self.trial_period
                          * (1.0 + TRIALS_PER_RUN_REL_TOL))


class CountsTable(Record):
    """Aggregated singles and coincidence counts at one analyzer setting;
    the fields after ``n_pulses`` are the six counts, in their one order."""

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
        check_in("storage_time", self.storage_time, "[0, inf)")
        for name in self._fields[2:]:  # n_pulses and the six counts
            check_in(name, getattr(self, name), "[0, inf)")
        if self.n_d1 + self.n_d2 > self.n_pulses:
            raise ParameterError("more Stokes singles than pulses")
        if self.c13 + self.c14 > self.n_d1:
            raise ParameterError("more D1 coincidences than D1 singles")
        if self.c23 + self.c24 > self.n_d2:
            raise ParameterError("more D2 coincidences than D2 singles")

    @property
    def matched(self) -> int:
        """Coincidences on matched detector pairs, D1-D3 and D2-D4."""
        return self.c13 + self.c24

    @property
    def crossed(self) -> int:
        """Coincidences on crossed detector pairs, D1-D4 and D2-D3."""
        return self.c14 + self.c23


def coupling_angle(geom: EnsembleGeometry) -> float:
    """Angle between one interferometer arm and the write beam, radians.

    theta = D / (2 * F_BTD * F0): the arm separation D is halved about the
    lens axis and shrunk by the beam-transformation factor before the lens
    maps transverse offset to angle.
    """
    return geom.bd_separation / (2.0 * geom.f_btd * geom.f0)


def motional_lifetime(geom: EnsembleGeometry) -> float:
    """Memory lifetime limited by thermal atomic motion, seconds.

    tau_a = 1 / (|dk| * v_a) with |dk| = 2 k sin(theta/2) the spin-wave
    wave-vector magnitude and v_a = sqrt(kB T / m) the thermal speed.
    Raises ``OverflowError`` when dk v_a or 1 / (dk v_a) is not a finite
    float: an overflowed k or v_a would otherwise give a lifetime of 0.
    """
    theta = coupling_angle(geom)
    k = 2.0 * math.pi / geom.wavelength
    dk = 2.0 * k * math.sin(theta / 2.0)
    v_a = math.sqrt(BOLTZMANN_K * geom.temperature / geom.atomic_mass)
    rate = dk * v_a
    tau = 1.0 / rate if rate else math.inf
    if not (math.isfinite(rate) and math.isfinite(tau)):
        raise OverflowError(f"motional lifetime 1 / (dk v_a) is not a finite "
                            f"nonzero number: dk v_a = {rate!r}")
    return tau


def repetition_rate(timing: CycleTiming) -> float:
    """Trial rate in trials per second over the full duty cycle."""
    return (1.0 / (timing.prep_duration + timing.run_duration)
            * timing.trials_per_run)


def simulated_wall_time(timing: CycleTiming, n_trials: int) -> float:
    """Laboratory time of ``n_trials`` trials, s: whole preparation/run
    cycles of ``timing``."""
    return (math.ceil(n_trials / timing.trials_per_run)
            * (timing.prep_duration + timing.run_duration))
