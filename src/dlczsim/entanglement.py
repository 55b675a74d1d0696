"""Analytic forward model of the polarization-entangled photon pair.

The two-photon state is (|HH> + |VV>)/sqrt(2), degraded by mixing with
white noise at weight (1 - V). An interferometer phase phi would only scale
the correlation by cos(phi), which a lower V (and, for cos(phi) < 0, an
anti-Stokes angle moved by 90 degrees) reproduces. Detectors D1/D2 sit
behind the Stokes analyzer, D3/D4 behind the anti-Stokes analyzer.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .decoherence import retrieval_decay
from .errors import check_in
from .params import ExperimentParams


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

    @property
    def degrees(self) -> Tuple[float, float]:
        """(theta_s, theta_as) in degrees, each read back as exactly its
        angle by :meth:`from_degrees`."""
        return _degrees(self.theta_s), _degrees(self.theta_as)


def _degrees(theta: float) -> float:
    """``theta`` in degrees, read back as exactly ``theta``: of
    math.degrees(theta) and its two neighbours, the first whose
    math.radians is ``theta`` (one exists for every angle made by
    ``AngleSettings.from_degrees``)."""
    deg = math.degrees(theta)
    for candidate in (deg, math.nextafter(deg, math.inf),
                      math.nextafter(deg, -math.inf)):
        if math.radians(candidate) == theta:
            return candidate
    return deg


# The four (theta_s, theta_as) settings of the CHSH measurement, in the
# order of S = |E1 - E2 + E3 + E4|.
CHSH_SETTINGS = tuple(AngleSettings.from_degrees(s, a)
                      for s, a in ((0, 22.5), (0, 67.5), (45, 22.5),
                                   (45, 67.5)))


def pair_correlation(angles: AngleSettings, visibility: float) -> float:
    """Correlation K = V cos(2 delta) of a detected pair at analyzer
    settings ``angles``.

    For the white-noise-degraded state the matched detector pairs
    (D1,D3)/(D2,D4) carry probability (1 + K)/4 each and the crossed pairs
    (1 - K)/4.
    """
    check_in("visibility", visibility, "[0, 1]")
    return visibility * math.cos(2.0 * angles.delta)


def forward_count_probs(params: ExperimentParams, t: float,
                        angles: AngleSettings) -> Tuple[float, ...]:
    """Per-pulse probabilities of the six counts at storage time ``t``, in
    the order of :class:`~dlczsim.params.CountsTable`'s count fields.

    P_S = (chi + B) eta_S, P_aS = (chi R + C) eta_aS, and the coincidence
    probability chi R eta_S eta_aS + P_S P_aS is apportioned over detector
    pairs by the pair correlation K, (1 +- K)/4 (correlated part), and
    evenly (accidental part). Singles split 50/50 between the two
    detectors of a channel because either photon's reduced state is
    maximally mixed.
    """
    r_inc = retrieval_decay(params.decay, t)
    p_s = (params.chi + params.noise_b) * params.eta_s
    p_as = (params.chi * r_inc + params.noise_c) * params.eta_as
    correlated = params.chi * r_inc * params.eta_s * params.eta_as
    accidental = p_s * p_as
    k = pair_correlation(angles, params.visibility)
    matched = correlated * ((1.0 + k) / 4.0) + accidental / 4.0
    crossed = correlated * ((1.0 - k) / 4.0) + accidental / 4.0
    for name, value in (("p_s", p_s), ("p_as", p_as), ("p13", matched),
                        ("p14", crossed)):
        check_in(f"computed probability {name}", value, "[0, 1]")
    return p_s / 2.0, p_s / 2.0, matched, matched, crossed, crossed
