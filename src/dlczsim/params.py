"""Configuration types and deterministic efficiency/geometry calculators.

All efficiencies are dimensionless in [0, 1], lengths in meters, times in
seconds, angles in radians unless a function name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

from .errors import ParameterError

# CODATA 2018
BOLTZMANN_K = 1.380649e-23      # J/K (exact)
ATOMIC_MASS_U = 1.66053906660e-27  # kg

# Tolerance for an itemized loss budget to be accepted as consistent
LOSS_ITEM_TOL = 1e-6


def _check_unit_interval(name: str, value: float, *, allow_zero: bool,
                         allow_one: bool = True) -> None:
    lo_ok = value > 0.0 or (allow_zero and value == 0.0)
    hi_ok = value < 1.0 or (allow_one and value == 1.0)
    if not (lo_ok and hi_ok):
        raise ParameterError(f"{name} = {value!r} outside valid range")


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ParameterError(f"{name} = {value!r} must be > 0")


@dataclass(frozen=True)
class DetectionChain:
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
        _check_unit_interval("t_oc", self.t_oc, allow_zero=False)
        if not 0.0 <= self.cavity_loss < 1.0:
            raise ParameterError(
                f"cavity_loss = {self.cavity_loss!r} outside [0, 1)")
        for name in ("eta_smf", "eta_filter", "eta_mmf", "eta_d"):
            _check_unit_interval(name, getattr(self, name), allow_zero=False)
        if self.loss_items is not None:
            items = dict(self.loss_items)
            for key, val in items.items():
                if val < 0.0:
                    raise ParameterError(f"loss item {key!r} is negative")
            total = math.fsum(items.values())
            if abs(total - self.cavity_loss) > LOSS_ITEM_TOL:
                raise ParameterError(
                    f"itemized losses sum to {total!r}, expected "
                    f"cavity_loss = {self.cavity_loss!r}")
            object.__setattr__(self, "loss_items", items)

    @property
    def eta_esp(self) -> float:
        """Probability of escaping through the output coupler."""
        return cavity_escape_efficiency(self.t_oc, self.cavity_loss)

    @property
    def eta_t(self) -> float:
        """Cavity-to-detector transmission (fiber, filter, fiber)."""
        return self.eta_smf * self.eta_filter * self.eta_mmf

    @property
    def eta_td(self) -> float:
        """Total detection efficiency of the channel."""
        return total_detection_efficiency(self)


@dataclass(frozen=True)
class EnsembleGeometry:
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
            value = getattr(self, name)
            _check_positive(name, value)
            if not math.isfinite(value):
                raise ParameterError(f"{name} = {value!r} must be finite")


@dataclass(frozen=True)
class DecayParams:
    """Zero-delay retrieval efficiency and 1/e memory lifetime."""

    r0: float     # intrinsic retrieval efficiency at t = 0
    tau0: float   # 1/e lifetime, s

    def __post_init__(self):
        if not 0.0 <= self.r0 <= 1.0:
            raise ParameterError(f"r0 = {self.r0!r} outside [0, 1]")
        _check_positive("tau0", self.tau0)


@dataclass(frozen=True)
class ExperimentParams:
    """Full configuration of one simulated write/read experiment."""

    chi: float               # pair-creation probability per write pulse
    noise_b: float           # Stokes-channel background probability/pulse
    noise_c: float           # anti-Stokes background probability/read pulse
    eta_s: float             # total Stokes detection efficiency
    eta_as: float            # total anti-Stokes detection efficiency
    v0: float                # intrinsic pair visibility at zero delay
    phase: float             # net interferometer phase (phi_S + phi_AS), rad
    decay: DecayParams = field(default_factory=lambda: DecayParams(0.77, 1e-3))

    def __post_init__(self):
        _check_unit_interval("chi", self.chi, allow_zero=True)
        _check_unit_interval("noise_b", self.noise_b, allow_zero=True)
        _check_unit_interval("noise_c", self.noise_c, allow_zero=True)
        _check_unit_interval("eta_s", self.eta_s, allow_zero=False)
        _check_unit_interval("eta_as", self.eta_as, allow_zero=False)
        _check_unit_interval("v0", self.v0, allow_zero=True)
        if self.chi + self.noise_b > 1.0:
            raise ParameterError(
                f"chi + noise_b = {self.chi + self.noise_b!r} exceeds 1")


@dataclass(frozen=True)
class CycleTiming:
    """Timing of one experimental cycle (preparation stage + trial run).

    Pulse durations default to the standard trial anatomy: 300 ns write,
    300 ns read, 200 ns clean pulse with a 1300 ns interval before it.
    """

    prep_duration: float            # cold-atom preparation stage, s
    run_duration: float             # trial-run stage, s
    trial_period: float             # write-to-write delay, s
    write_duration: float = 300e-9
    read_duration: float = 300e-9
    clean_duration: float = 200e-9
    interval: float = 1300e-9

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} = {value!r} must be finite")
        if self.prep_duration < 0.0:
            raise ParameterError("prep_duration must be >= 0")
        _check_positive("run_duration", self.run_duration)
        _check_positive("trial_period", self.trial_period)
        for name in ("write_duration", "read_duration", "clean_duration",
                     "interval"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be >= 0")
        if self.trials_per_run < 1:
            raise ParameterError(
                "run_duration shorter than one trial_period")

    @property
    def trials_per_run(self) -> int:
        return int(math.floor(self.run_duration / self.trial_period))

    @property
    def cycles_per_second(self) -> float:
        return 1.0 / (self.prep_duration + self.run_duration)


def cavity_escape_efficiency(t_oc: float, cavity_loss: float) -> float:
    """Probability that a cavity photon exits through the output coupler.

    eta_esp = t_oc / (t_oc + cavity_loss).
    """
    if t_oc <= 0.0:
        raise ParameterError(f"t_oc = {t_oc!r} must be > 0")
    if cavity_loss < 0.0:
        raise ParameterError(f"cavity_loss = {cavity_loss!r} must be >= 0")
    return t_oc / (t_oc + cavity_loss)


def total_detection_efficiency(chain: DetectionChain) -> float:
    """Product of the chain's escape, transmission and detector efficiencies."""
    return (cavity_escape_efficiency(chain.t_oc, chain.cavity_loss)
            * chain.eta_smf * chain.eta_filter * chain.eta_mmf * chain.eta_d)


def coupling_angle(geom: EnsembleGeometry) -> float:
    """Angle between one interferometer arm and the write beam, radians.

    theta = D / (2 * F_BTD * F0): the arm separation D is halved about the
    lens axis and shrunk by the beam-transformation factor before the lens
    maps transverse offset to angle.
    """
    return geom.bd_separation / (2.0 * geom.f_btd * geom.f0)


def repetition_rate(timing: CycleTiming) -> float:
    """Trial rate in trials per second over the full duty cycle."""
    return timing.cycles_per_second * timing.trials_per_run
