"""Mean-rate model of a multiplexed, nested entanglement-swapping repeater.

The end-to-end rate is (1/T_cc) * P0^(N) * prod_j P_j * P_pr: elementary
links succeed with the multiplexed probability P0^(N), each swap level j
succeeds with P_j evaluated at the accumulated mean waiting time, and P_pr
is the final photon-pair readout. Memory decay enters through the
zero-delay retrieval efficiency r0 and lifetime tau0.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Tuple

from .errors import FitConvergenceError, ParameterError, Record, check_in

# exp(-t/tau0) underflows well before this; treat deeper levels as dead.
UNDERFLOW_RATIO = 700.0

LINK_DIVISOR_CHOICES = ("2^n", "n")

SWEEP_MAX_STEPS = 10_000  # sweep_distance keeps one RateBreakdown a point
ROOT_MAX_ITER = 200  # in ln x, bisection alone needs < 52 steps
CROSSING_REL_TOL = 1e-12  # relative bracket width ending a root search


class RepeaterParams(Record):
    """Inputs of the nested-repeater rate recursion.

    ``link_divisor`` selects how the end-to-end distance splits into
    elementary links: "2^n" (one link per leaf of the swap tree, default)
    or "n" (distance divided by the nest level).
    """

    nest_level: int          # swap tree depth n in [0, 1023]
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
        # 2^1023 is the largest power of two that is a finite float
        check_in("nest_level", self.nest_level, "[0, 1023]")
        check_in("modes", self.modes, "[1, inf)")
        for name in ("distance", "attenuation_length", "fiber_speed"):
            check_in(name, getattr(self, name), "(0, inf)")
        check_in("tau0", self.tau0, "(0, inf]")
        for name in ("chi", "eta_fc", "eta_td", "r0"):
            check_in(name, getattr(self, name), "(0, 1]")
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


class RateBreakdown(NamedTuple):
    """Every intermediate quantity of one rate evaluation, as an immutable
    record; ``bd._replace(field=...)`` gives a changed copy."""

    t_cc: float                    # classical link communication time, s
    p0: float                      # single-mode elementary success
    p0_multiplexed: float          # 1 - (1 - p0)^N (or N p0 if approximated)
    swap_probs: Tuple[float, ...]  # P_1 .. P_n
    stage_times: Tuple[float, ...]  # t_0 .. t_n, s
    p_pr: float                    # final readout probability
    rate: float                    # distributed pairs per second
    underflow: bool                # the rate fell below the float range


def elementary_probs(p: RepeaterParams, *, approx_multiplex: bool = False
                     ) -> Tuple[float, float, float]:
    """(T_cc, P0, P0^(N)) for one elementary link: the first three fields
    of :func:`swap_chain`.

    P0 = chi^2 exp(-L0/L_att) eta_FC^2 eta_TD^2 / 2; the 1/2 accounts for
    double-excitation events. The multiplexed probability is the exact
    1 - (1 - P0)^N unless ``approx_multiplex`` asks for the N*P0 form.
    """
    return tuple(swap_chain(p, approx_multiplex=approx_multiplex)[:3])


def _rate_curve(p: RepeaterParams, approx_multiplex: bool = False
                ) -> Callable[[float], RateBreakdown]:
    """:func:`swap_chain` of one parameter set as a function of distance,
    with ``p``'s constants read once."""
    n_links, speed, att, modes = (p.n_links, p.fiber_speed,
                                  p.attenuation_length, p.modes)
    chi2, fc2, td2 = p.chi ** 2, p.eta_fc ** 2, p.eta_td ** 2
    nest_level, tau0, r0_2 = p.nest_level, p.tau0, p.r0 ** 2
    swap_factor = r0_2 * td2 / 2.0

    def at(distance):
        l0 = distance / n_links
        t_cc = l0 / speed
        if not t_cc > 0.0:  # plain comparison: this runs at every distance
            raise ParameterError(f"link length {l0!r} m at fiber_speed "
                                 f"{speed!r} m/s gives a link time of 0")
        p0 = (chi2 * math.exp(-l0 / att) * fc2 * td2) / 2.0
        if p0 > 1.0:
            raise ParameterError(f"elementary success probability {p0!r} > 1")
        if approx_multiplex:
            p0_n = min(modes * p0, 1.0)
        else:
            p0_n = -math.expm1(modes * math.log1p(-p0))
        swap_probs: List[float] = []
        stage_times: List[float] = []
        p_pr = rate = 0.0
        underflow = True
        if p0_n > 0.0:
            t = t_cc / p0_n
            stage_times.append(t)
            for _ in range(nest_level):
                # negated comparisons: a NaN (t = tau0 = inf) stops too
                if not t / tau0 <= UNDERFLOW_RATIO:
                    break
                p_j = swap_factor * math.exp(-2.0 * t / tau0)
                if not p_j > 0.0:
                    break
                swap_probs.append(p_j)
                t = t / p_j
                stage_times.append(t)
            else:
                if t / tau0 <= UNDERFLOW_RATIO:
                    p_pr = r0_2 * math.exp(-2.0 * t / tau0) / 2.0
                    rate = (1.0 / t_cc) * p0_n * math.prod(swap_probs) * p_pr
                    underflow = False
        return RateBreakdown(t_cc, p0, p0_n, tuple(swap_probs),
                             tuple(stage_times), p_pr, rate, underflow)
    return at


def swap_chain(p: RepeaterParams, *,
               approx_multiplex: bool = False) -> RateBreakdown:
    """Evaluate the full nested-swap recursion for one parameter set.

    When the rate falls below the float range, the breakdown is flagged
    ``underflow`` and keeps the stages reached so far.
    """
    return _rate_curve(p, approx_multiplex)(p.distance)


def _check_span(l_min: float, l_max: float) -> None:
    if not 0.0 < l_min < l_max < math.inf:
        raise ParameterError("need 0 < l_min < l_max, both finite")


def sweep_distance(p: RepeaterParams, l_min: float, l_max: float,
                   steps: int, *, grid: str = "log",
                   approx_multiplex: bool = False
                   ) -> Tuple[List[Tuple[float, RateBreakdown]], bool]:
    """Rate over a distance grid. Returns (points, monotone_non_increasing)."""
    _check_span(l_min, l_max)
    check_in("steps", steps, f"[2, {SWEEP_MAX_STEPS}]")
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

    at = _rate_curve(p, approx_multiplex)
    points = [(dist, at(dist)) for dist in distances]
    rates = [bd.rate for _, bd in points]
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    return points, monotone


def _find_root(f, a, b, fa, fb):
    """Zero of f between a, b > 0 (fa = f(a) and fb = f(b) differ in sign)
    by Brent's method (Brent 1973, ch. 4) in ln x to CROSSING_REL_TOL."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ParameterError(f"no sign change on [{a!r}, {b!r}]")
    a, b, tol = math.log(a), math.log(b), 0.5 * CROSSING_REL_TOL
    for _ in range(ROOT_MAX_ITER):
        if (fa < 0.0) != (fb < 0.0):  # the root is between a and b
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):  # b is the best point so far
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        if fb == 0.0 or abs(m := 0.5 * (c - b)) <= tol:
            return math.exp(b)
        fast = False  # take the interpolated step p / q, else bisect by m
        if abs(e) > tol and abs(fb) < abs(fa):
            s = fb / fa
            if a == c:  # secant through a and b
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            fast = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
        e, d = (d, p / q) if fast else (m, m)
        a, fa, b = b, fb, b + (d if abs(d) > tol else math.copysign(tol, m))
        fb = f(math.exp(b))
    raise FitConvergenceError("root search did not converge")


def threshold_crossing_distance(p: RepeaterParams, threshold: float,
                                l_min: float, l_max: float, *,
                                approx_multiplex: bool = False) -> float:
    """Distance in [l_min, l_max] where rate - threshold changes sign, on
    the curve :func:`sweep_distance` gives for ``approx_multiplex``."""
    check_in("threshold", threshold, "(0, inf)")
    _check_span(l_min, l_max)

    at = _rate_curve(p, approx_multiplex)

    def excess(distance):
        return at(distance).rate - threshold
    return _find_root(excess, l_min, l_max, excess(l_min), excess(l_max))


def calibrate_chi(p: RepeaterParams, target_rate: float) -> float:
    """Excitation probability in [1e-6, 1] where rate - target_rate changes
    sign, at the parameter set's distance."""
    check_in("target_rate", target_rate, "(0, inf)")

    def excess(chi):
        return swap_chain(p._replace(chi=chi)).rate - target_rate
    return _find_root(excess, 1e-6, 1.0, excess(1e-6), excess(1.0))


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
PRESET_LOW_RETRIEVAL = PRESET_HIGH_RETRIEVAL._replace(r0=0.6)

PRESETS = {
    "fig8": (("cpe", PRESET_HIGH_RETRIEVAL), ("cie", PRESET_LOW_RETRIEVAL)),
}
