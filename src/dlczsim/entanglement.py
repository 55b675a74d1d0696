"""Analytic forward model of the polarization-entangled photon pair.

The two-photon state is (|HH> + e^{i phi} |VV>)/sqrt(2), degraded by mixing
with white noise at weight (1 - V). Detectors D1/D2 sit behind the Stokes
analyzer, D3/D4 behind the anti-Stokes analyzer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decoherence import retrieval_decay
from .errors import ParameterError, Record, check_in
from .params import ExperimentParams

PROB_SUM_TOL = 1e-12


class AngleSettings(NamedTuple):
    """Half-wave-plate analysis angles for the two channels, radians.

    Polarization analyzers are periodic in pi; angles are compared modulo pi.
    """

    theta_s: float
    theta_as: float

    @classmethod
    def from_degrees(cls, theta_s_deg: float, theta_as_deg: float):
        return cls(math.radians(theta_s_deg), math.radians(theta_as_deg))

    @property
    def delta(self) -> float:
        """Analyzer angle difference theta_s - theta_as."""
        return self.theta_s - self.theta_as


# The four (theta_s, theta_as) settings of the CHSH measurement, in the
# order of S = |E1 - E2 + E3 + E4|.
CHSH_SETTINGS = tuple(AngleSettings.from_degrees(s, a)
                      for s, a in ((0, 22.5), (0, 67.5), (45, 22.5),
                                   (45, 67.5)))


class JointOutcomeProbs(Record):
    """Detector-pair outcome probabilities conditioned on a detected pair."""

    p13: float
    p24: float
    p14: float
    p23: float

    def __post_init__(self):
        for name in ("p13", "p24", "p14", "p23"):
            check_in(name, getattr(self, name), "[0, 1]")
        total = self.p13 + self.p24 + self.p14 + self.p23
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ParameterError(f"outcome probabilities sum to {total!r}")

    @property
    def correlation(self) -> float:
        """E = p13 + p24 - p14 - p23."""
        return self.p13 + self.p24 - self.p14 - self.p23


def projection_probs(angles: AngleSettings, visibility: float,
                     phase: float = 0.0) -> JointOutcomeProbs:
    """Coincidence outcome probabilities for analyzer settings ``angles``.

    For the white-noise-degraded state the matched pairs (D1,D3)/(D2,D4)
    carry probability (1 + K)/4 each and the crossed pairs (1 - K)/4, with
    K = V cos(phase) cos(2 delta).
    """
    check_in("visibility", visibility, "[0, 1]")
    check_in("phase", phase, "(-inf, inf)")
    k = visibility * math.cos(phase) * math.cos(2.0 * angles.delta)
    matched = (1.0 + k) / 4.0
    crossed = (1.0 - k) / 4.0
    return JointOutcomeProbs(p13=matched, p24=matched, p14=crossed,
                             p23=crossed)


class ForwardProbs(NamedTuple):
    """Per-pulse detection probabilities predicted by the counting model."""

    p_s: float     # any Stokes click per write pulse
    p_as: float    # any anti-Stokes click per read pulse
    p13: float     # coincidence per pulse, detector pair D1-D3
    p24: float
    p14: float
    p23: float

    @property
    def p_s_as(self) -> float:
        """Total Stokes/anti-Stokes coincidence probability per pulse."""
        return self.p13 + self.p24 + self.p14 + self.p23

    @property
    def p_d1(self) -> float:
        return self.p_s / 2.0

    @property
    def p_d2(self) -> float:
        return self.p_s / 2.0


def forward_count_probs(params: ExperimentParams, t: float,
                        angles: AngleSettings) -> ForwardProbs:
    """Singles and coincidence probabilities at storage time ``t``.

    P_S = (chi + B) eta_S, P_aS = (chi R + C) eta_aS, and the coincidence
    probability chi R eta_S eta_aS + P_S P_aS is apportioned over detector
    pairs by the projection probabilities (correlated part) and evenly
    (accidental part). Singles split 50/50 between the two detectors of a
    channel because either photon's reduced state is maximally mixed.
    """
    r_inc = retrieval_decay(params.decay, t)
    p_s = (params.chi + params.noise_b) * params.eta_s
    p_as = (params.chi * r_inc + params.noise_c) * params.eta_as
    correlated = params.chi * r_inc * params.eta_s * params.eta_as
    accidental = p_s * p_as
    proj = projection_probs(angles, params.v0, params.phase)
    pairwise = {
        "p13": correlated * proj.p13 + accidental / 4.0,
        "p24": correlated * proj.p24 + accidental / 4.0,
        "p14": correlated * proj.p14 + accidental / 4.0,
        "p23": correlated * proj.p23 + accidental / 4.0,
    }
    for name, value in [("p_s", p_s), ("p_as", p_as), *pairwise.items()]:
        check_in(f"computed probability {name}", value, "[0, 1]")
    return ForwardProbs(p_s=p_s, p_as=p_as, **pairwise)
