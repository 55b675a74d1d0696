"""Mean-rate model of a multiplexed, nested entanglement-swapping repeater.

The end-to-end rate is (1/T_cc) * P0^(N) * prod_j P_j * P_pr: elementary
links succeed with the multiplexed probability P0^(N), each swap level j
succeeds with P_j evaluated at the accumulated mean waiting time, and P_pr
is the final photon-pair readout. Memory decay enters through the
zero-delay retrieval efficiency r0 and lifetime tau0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .errors import ParameterError

# exp(-t/tau0) underflows well before this; treat deeper levels as dead.
UNDERFLOW_RATIO = 700.0

LINK_DIVISOR_CHOICES = ("2^n", "n")


@dataclass(frozen=True)
class RepeaterParams:
    """Inputs of the nested-repeater rate recursion.

    ``link_divisor`` selects how the end-to-end distance splits into
    elementary links: "2^n" (one link per leaf of the swap tree, default)
    or "n" (distance divided by the nest level).
    """

    nest_level: int          # swap tree depth n >= 0
    modes: int               # multiplexed memory modes per node, N >= 1
    distance: float          # end-to-end distance L, m
    attenuation_length: float  # fiber attenuation length L_att, m
    fiber_speed: float       # signal speed in fiber, m/s
    chi: float               # excitation probability per write pulse
    eta_fc: float            # frequency-conversion efficiency
    eta_td: float            # total detection efficiency
    r0: float                # zero-delay retrieval efficiency
    tau0: float              # memory 1/e lifetime, s (may be math.inf)
    link_divisor: str = "2^n"

    def __post_init__(self):
        if self.nest_level < 0:
            raise ParameterError("nest_level must be >= 0")
        if self.modes < 1:
            raise ParameterError("modes must be >= 1")
        for name in ("distance", "attenuation_length", "fiber_speed"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0")
        if not self.tau0 > 0.0:
            raise ParameterError("tau0 must be > 0")
        for name in ("chi", "eta_fc", "eta_td", "r0"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ParameterError(f"{name} = {value!r} outside (0, 1]")
        if self.link_divisor not in LINK_DIVISOR_CHOICES:
            raise ParameterError(
                f"link_divisor must be one of {LINK_DIVISOR_CHOICES}")
        if self.link_divisor == "n" and self.nest_level == 0:
            raise ParameterError(
                "link_divisor 'n' is undefined for nest_level 0")

    @property
    def n_links(self) -> int:
        return (2 ** self.nest_level if self.link_divisor == "2^n"
                else self.nest_level)

    @property
    def link_length(self) -> float:
        return self.distance / self.n_links


@dataclass(frozen=True)
class RateBreakdown:
    """Every intermediate quantity of one rate evaluation."""

    t_cc: float                    # classical link communication time, s
    p0: float                      # single-mode elementary success
    p0_multiplexed: float          # 1 - (1 - p0)^N (or N p0 if approximated)
    swap_probs: Tuple[float, ...]  # P_1 .. P_n
    stage_times: Tuple[float, ...]  # t_0 .. t_n, s
    p_pr: float                    # final readout probability
    rate: float                    # distributed pairs per second
    underflow: bool                # True when memory decay zeroed the rate
    n_links: int


def elementary_probs(p: RepeaterParams, *,
                     distance: Optional[float] = None,
                     approx_multiplex: bool = False
                     ) -> Tuple[float, float, float]:
    """(T_cc, P0, P0^(N)) for one elementary link, at ``distance``
    (default ``p.distance``).

    P0 = chi^2 exp(-L0/L_att) eta_FC^2 eta_TD^2 / 2; the 1/2 accounts for
    double-excitation events. The multiplexed probability is the exact
    1 - (1 - P0)^N unless ``approx_multiplex`` asks for the N*P0 form.
    """
    l0 = (p.distance if distance is None else distance) / p.n_links
    t_cc = l0 / p.fiber_speed
    p0 = (p.chi ** 2 * math.exp(-l0 / p.attenuation_length)
          * p.eta_fc ** 2 * p.eta_td ** 2) / 2.0
    if p0 > 1.0:
        raise ParameterError(f"elementary success probability {p0!r} > 1")
    if approx_multiplex:
        p0_n = min(p.modes * p0, 1.0)
    else:
        p0_n = -math.expm1(p.modes * math.log1p(-p0))
    return t_cc, p0, p0_n


def swap_chain(p: RepeaterParams, *, distance: Optional[float] = None,
               approx_multiplex: bool = False) -> RateBreakdown:
    """Evaluate the full nested-swap recursion for one parameter set, at
    ``distance`` (default ``p.distance``; the caller checks it is finite
    and > 0).

    When memory decay zeroes the rate, the breakdown is flagged
    ``underflow`` and keeps the stages reached so far.
    """
    t_cc, p0, p0_n = elementary_probs(p, distance=distance,
                                      approx_multiplex=approx_multiplex)
    swap_probs: List[float] = []
    stage_times: List[float] = []
    p_pr = rate = 0.0
    underflow = True
    if p0_n > 0.0:
        t = t_cc / p0_n
        stage_times.append(t)
        swap_factor = p.r0 ** 2 * p.eta_td ** 2 / 2.0
        for _ in range(p.nest_level):
            if t / p.tau0 > UNDERFLOW_RATIO:
                break
            p_j = swap_factor * math.exp(-2.0 * t / p.tau0)
            if p_j <= 0.0:
                break
            swap_probs.append(p_j)
            t = t / p_j
            stage_times.append(t)
        else:
            if not t / p.tau0 > UNDERFLOW_RATIO:
                p_pr = p.r0 ** 2 * math.exp(-2.0 * t / p.tau0) / 2.0
                rate = (1.0 / t_cc) * p0_n * math.prod(swap_probs) * p_pr
                underflow = False
    return RateBreakdown(t_cc=t_cc, p0=p0, p0_multiplexed=p0_n,
                         swap_probs=tuple(swap_probs),
                         stage_times=tuple(stage_times), p_pr=p_pr,
                         rate=rate, underflow=underflow, n_links=p.n_links)


def _check_span(l_min: float, l_max: float) -> None:
    if not 0.0 < l_min < l_max < math.inf:
        raise ParameterError("need 0 < l_min < l_max, both finite")


def sweep_distance(p: RepeaterParams, l_min: float, l_max: float,
                   steps: int, *, grid: str = "log",
                   approx_multiplex: bool = False
                   ) -> Tuple[List[Tuple[float, RateBreakdown]], bool]:
    """Rate over a distance grid. Returns (points, monotone_non_increasing)."""
    _check_span(l_min, l_max)
    if steps < 2:
        raise ParameterError("steps must be >= 2")
    if grid == "log":
        ratio = (l_max / l_min) ** (1.0 / (steps - 1))
        distances = [l_min * ratio ** i for i in range(steps)]
    elif grid == "linear":
        span = (l_max - l_min) / (steps - 1)
        distances = [l_min + span * i for i in range(steps)]
    else:
        raise ParameterError(f"grid must be 'log' or 'linear', got {grid!r}")
    distances[-1] = l_max
    if not all(0.0 < dist < math.inf for dist in distances):
        raise ParameterError(
            f"distance grid on [{l_min!r}, {l_max!r}] leaves (0, inf)")

    points = [(dist, swap_chain(p, distance=dist,
                                approx_multiplex=approx_multiplex))
              for dist in distances]
    rates = [bd.rate for _, bd in points]
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    return points, monotone


def threshold_crossing_distance(p: RepeaterParams, threshold: float,
                                l_min: float, l_max: float, *,
                                rel_tol: float = 1e-12,
                                max_iter: int = 200) -> float:
    """Distance at which the (decreasing) rate crosses ``threshold``."""
    if not 0.0 < threshold < math.inf:
        raise ParameterError("threshold must be finite and > 0")
    _check_span(l_min, l_max)
    lo, hi = l_min, l_max
    rate_lo = swap_chain(p, distance=lo).rate
    rate_hi = swap_chain(p, distance=hi).rate
    if not (rate_lo > threshold > rate_hi):
        raise ParameterError(
            f"threshold {threshold!r} not bracketed on [{l_min!r}, {l_max!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if swap_chain(p, distance=mid).rate > threshold:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def calibrate_chi(p: RepeaterParams, target_rate: float, *,
                  max_iter: int = 200) -> float:
    """Excitation probability that puts the rate at ``target_rate`` for
    the parameter set's distance (rate is increasing in chi)."""
    if target_rate <= 0.0:
        raise ParameterError("target_rate must be > 0")
    lo, hi = 1e-6, 1.0
    if swap_chain(replace(p, chi=hi)).rate < target_rate:
        raise ParameterError("target rate unreachable at chi = 1")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if swap_chain(replace(p, chi=mid)).rate < target_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# CLI preset "fig8": an integrated high-performance-node study. Nest level
# 4, 1000 multiplexed modes, 16 s memory, 88% detection, 33% frequency
# conversion; high (0.8) vs low (0.6) zero-delay retrieval. The excitation
# probability is NOT a published number: it is calibrated once so the
# r0 = 0.8 curve crosses 1e-4 pairs/s at 1000 km (see tests), and is
# recorded as derived in every output.
PRESET_CHI_CALIBRATED = 0.045226195313453996
PRESET_CHI_SOURCE = ("calibrated to 1e-4 pairs/s at 1000 km for r0=0.8; "
                   "derived, not a published value")

PRESET_HIGH_RETRIEVAL = RepeaterParams(
    nest_level=4, modes=1000, distance=1.0e6, attenuation_length=22e3,
    fiber_speed=2.0e8, chi=PRESET_CHI_CALIBRATED, eta_fc=0.33, eta_td=0.88,
    r0=0.8, tau0=16.0, link_divisor="2^n")
PRESET_LOW_RETRIEVAL = replace(PRESET_HIGH_RETRIEVAL, r0=0.6)

PRESETS = {
    "fig8": (("cpe", PRESET_HIGH_RETRIEVAL), ("cie", PRESET_LOW_RETRIEVAL)),
}
