import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dlczsim import repeater
from dlczsim import (ParameterError, RepeaterParams, calibrate_chi,
                     elementary_probs, swap_chain, sweep_distance,
                     threshold_crossing_distance)
from dlczsim.repeater import (PRESET_CHI_CALIBRATED, PRESET_HIGH_RETRIEVAL,
                              PRESET_LOW_RETRIEVAL, PRESETS, RateBreakdown,
                              UNDERFLOW_RATIO, _rate_curve)
from dlczsim.solve import CROSSING_REL_TOL, find_root


def make_params(**overrides):
    defaults = dict(nest_level=4, modes=1000, distance=1.0e6,
                    attenuation_length=22e3, fiber_speed=2.0e8, chi=0.01,
                    eta_fc=0.33, eta_td=0.88, r0=0.8, tau0=16.0)
    defaults.update(overrides)
    return RepeaterParams(**defaults)


def test_communication_time_single_link():
    p = make_params(nest_level=0, distance=100e3)
    t_cc, _, _ = elementary_probs(p)
    assert t_cc == pytest.approx(500e-6, rel=1e-12)


def test_multiplexed_probability_reduces_for_single_mode():
    p = make_params(modes=1)
    _, p0, p0_n = elementary_probs(p)
    assert p0_n == pytest.approx(p0, rel=1e-12)


def test_elementary_probs_direct_evaluation():
    # chi = 1%, 62.5 km links, N = 1000 modes
    p = make_params()
    assert p.n_links == 16
    _, p0, p0_n = elementary_probs(p)
    assert p0 == pytest.approx(2.4613427034445217e-07, rel=1e-9)
    assert p0_n == pytest.approx(0.00024610401207359096, rel=1e-9)
    assert p0 == pytest.approx(2.47e-7, rel=0.02)


def test_multiplexing_bounds():
    for modes in (1, 10, 1000):
        p = make_params(modes=modes)
        _, p0, p0_n = elementary_probs(p)
        assert p0_n >= p0
        assert p0_n <= modes * p0 + 1e-18
        if modes > 1:
            assert p0_n > p0


def test_no_decay_limit_closed_form():
    # with tau0 -> inf the swap product collapses to (r0^2 eta^2 / 2)^n
    p = make_params(tau0=math.inf)
    bd = swap_chain(p)
    factor = p.r0 ** 2 * p.eta_td ** 2 / 2.0
    assert math.prod(bd.swap_probs) == pytest.approx(factor ** 4, rel=1e-12)
    assert bd.p_pr == pytest.approx(p.r0 ** 2 / 2.0, rel=1e-12)


def test_no_decay_rate_ratio_is_retrieval_power_ten():
    high = swap_chain(make_params(tau0=math.inf, r0=0.8)).rate
    low = swap_chain(make_params(tau0=math.inf, r0=0.6)).rate
    assert high / low == pytest.approx((4.0 / 3.0) ** 10, rel=1e-9)


def test_zero_nest_level_has_empty_swap_product():
    p = make_params(nest_level=0, distance=100e3)
    bd = swap_chain(p)
    assert bd.swap_probs == ()
    assert bd.rate == pytest.approx(
        (1.0 / bd.t_cc) * bd.p0_multiplexed * bd.p_pr, rel=1e-12)


def test_underflow_flag_zeroes_rate():
    # low excitation: waiting times blow past the memory lifetime
    bd = swap_chain(PRESET_HIGH_RETRIEVAL._replace(chi=0.02))
    assert bd.underflow
    assert bd.rate == 0.0


def test_rate_monotone_in_each_parameter():
    base = make_params(chi=0.05)
    rate0 = swap_chain(base).rate
    assert rate0 > 0.0
    for field, better in [("chi", 0.06), ("modes", 2000), ("eta_fc", 0.4),
                          ("eta_td", 0.95), ("r0", 0.9), ("tau0", 32.0)]:
        rate1 = swap_chain(base._replace(**{field: better})).rate
        assert rate1 > rate0, field


def test_fewer_links_decreases_elementary_probability():
    sixteen = elementary_probs(make_params())[1]
    four = elementary_probs(make_params(nest_level=2))[1]
    assert make_params(nest_level=2).n_links == 4
    assert four < sixteen


def test_stage_times_strictly_increasing():
    bd = swap_chain(make_params(chi=0.05))
    assert all(a < b for a, b in zip(bd.stage_times, bd.stage_times[1:]))
    assert all(0.0 < pj < 1.0 for pj in bd.swap_probs)
    assert 0.0 <= bd.p0_multiplexed <= 1.0


def test_sweep_two_points_equal_direct_calls():
    p = make_params(chi=0.05)
    points, monotone = sweep_distance(p, 5e5, 1e6, 2)
    assert len(points) == 2
    assert points[0][1] == swap_chain(p._replace(distance=5e5))
    assert points[1][1] == swap_chain(p._replace(distance=1e6))
    assert monotone


def test_rate_breakdown_is_an_immutable_value_record():
    p = make_params(chi=0.05)
    points, _ = sweep_distance(p, 5e5, 1e6, 7)
    distance, bd = points[3]
    assert bd == swap_chain(p._replace(distance=distance))
    with pytest.raises(AttributeError):
        bd.rate = 0.0
    dead = bd._replace(rate=0.0, underflow=True)
    assert (dead.rate, dead.underflow) == (0.0, True)
    assert dead[:6] == bd[:6]
    assert bd.rate > 0.0 and not bd.underflow


def test_sweep_high_retrieval_curve_dominates():
    pts_high, _ = sweep_distance(PRESET_HIGH_RETRIEVAL, 1e5, 1.2e6, 40)
    pts_low, _ = sweep_distance(PRESET_LOW_RETRIEVAL, 1e5, 1.2e6, 40)
    for (_, hi), (_, lo) in zip(pts_high, pts_low):
        assert hi.rate > lo.rate


def test_sweep_validation():
    p = make_params()
    with pytest.raises(ParameterError):
        sweep_distance(p, 1e6, 1e5, 10)
    with pytest.raises(ParameterError):
        sweep_distance(p, 1e5, 1e6, 1)
    with pytest.raises(ParameterError, match="10000"):
        sweep_distance(p, 1e5, 1e6, 10_001)


def test_calibrated_chi_hits_the_anchor():
    # the preset excitation probability is defined by this anchor, not by
    # any published number: 1e-4 pairs/s at 1000 km for the r0=0.8 curve
    assert swap_chain(PRESET_HIGH_RETRIEVAL).rate == pytest.approx(1e-4,
                                                                 rel=1e-6)
    chi = calibrate_chi(PRESET_HIGH_RETRIEVAL, 1e-4)
    assert chi == pytest.approx(PRESET_CHI_CALIBRATED, rel=1e-9)


@pytest.mark.parametrize("target", [0.0, -1e-4, math.nan, math.inf])
def test_calibrate_chi_rejects_degenerate_targets(target):
    with pytest.raises(ParameterError, match="target_rate"):
        calibrate_chi(PRESET_HIGH_RETRIEVAL, target)


def test_calibrate_chi_needs_the_target_between_its_ends():
    at_one = swap_chain(PRESET_HIGH_RETRIEVAL._replace(chi=1.0)).rate
    with pytest.raises(ParameterError, match="sign change"):
        calibrate_chi(PRESET_HIGH_RETRIEVAL, 2.0 * at_one)
    # at 1 m a single link at chi = 1e-6 already beats 1e-12 pairs/s
    short = PRESET_HIGH_RETRIEVAL._replace(nest_level=0, distance=1.0)
    assert swap_chain(short._replace(chi=1e-6)).rate > 1e-12
    with pytest.raises(ParameterError, match="sign change"):
        calibrate_chi(short, 1e-12)


def test_threshold_crossing_distances_and_ratio():
    high = threshold_crossing_distance(PRESET_HIGH_RETRIEVAL, 1e-4, 1e5, 3e6)
    low = threshold_crossing_distance(PRESET_LOW_RETRIEVAL, 1e-4, 1e5, 3e6)
    assert high == pytest.approx(1.0e6, rel=1e-3)
    assert low == pytest.approx(506.5e3, rel=1e-3)
    ratio = high / low
    assert abs(ratio - 2.3) <= 0.15 * 2.3


def test_threshold_crossing_requires_bracket():
    with pytest.raises(ParameterError):
        threshold_crossing_distance(PRESET_HIGH_RETRIEVAL, 1e-4, 2e6, 3e6)


def test_params_validation():
    with pytest.raises(ParameterError):
        make_params(nest_level=-1)
    with pytest.raises(ParameterError, match=r"nest_level = 1024 .*1023\]"):
        make_params(nest_level=1024)
    assert make_params(nest_level=1023).n_links == 2 ** 1023
    with pytest.raises(ParameterError):
        make_params(modes=0)
    with pytest.raises(ParameterError):
        make_params(chi=0.0)


@pytest.mark.parametrize("name", ["distance", "attenuation_length",
                                  "fiber_speed"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0])
def test_params_reject_non_finite_geometry(name, bad):
    with pytest.raises(ParameterError, match=name):
        make_params(**{name: bad})


def test_params_accept_infinite_lifetime_only():
    assert make_params(tau0=math.inf).tau0 == math.inf
    for bad in (math.nan, 0.0, -math.inf):
        with pytest.raises(ParameterError, match="tau0"):
            make_params(tau0=bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sweep_inputs_must_be_finite(bad):
    p = make_params(chi=0.05)
    for l_min, l_max in ((bad, 1e6), (1e5, bad)):
        with pytest.raises(ParameterError):
            sweep_distance(p, l_min, l_max, 10)
        with pytest.raises(ParameterError):
            threshold_crossing_distance(p, 1e-4, l_min, l_max)
    with pytest.raises(ParameterError, match="threshold"):
        threshold_crossing_distance(p, bad, 1e5, 1e6)


def test_log_grid_that_overflows_is_rejected():
    # finite ends whose ratio overflows would put inf on the grid
    with pytest.raises(ParameterError, match="grid"):
        sweep_distance(make_params(), 1e-320, 1e6, 10)


def _reference_swap_chain(p):
    """The swap recursion as first written: a dead template, copied with
    the stages reached so far at each underflow exit."""
    t_cc, p0, p0_n = elementary_probs(p)
    dead = RateBreakdown(t_cc=t_cc, p0=p0, p0_multiplexed=p0_n,
                         swap_probs=(), stage_times=(), p_pr=0.0, rate=0.0,
                         underflow=True)
    if p0_n <= 0.0:
        return dead
    t = t_cc / p0_n
    stage_times, swap_probs = [t], []
    swap_factor = p.r0 ** 2 * p.eta_td ** 2 / 2.0
    for _ in range(p.nest_level):
        if t / p.tau0 > UNDERFLOW_RATIO:
            return dead._replace(swap_probs=tuple(swap_probs),
                                 stage_times=tuple(stage_times))
        p_j = swap_factor * math.exp(-2.0 * t / p.tau0)
        if p_j <= 0.0:
            return dead._replace(swap_probs=tuple(swap_probs),
                                 stage_times=tuple(stage_times))
        swap_probs.append(p_j)
        t = t / p_j
        stage_times.append(t)
    if t / p.tau0 > UNDERFLOW_RATIO:
        return dead._replace(swap_probs=tuple(swap_probs),
                             stage_times=tuple(stage_times))
    p_pr = p.r0 ** 2 * math.exp(-2.0 * t / p.tau0) / 2.0
    rate = (1.0 / t_cc) * p0_n * math.prod(swap_probs) * p_pr
    return RateBreakdown(t_cc=t_cc, p0=p0, p0_multiplexed=p0_n,
                         swap_probs=tuple(swap_probs),
                         stage_times=tuple(stage_times), p_pr=p_pr,
                         rate=rate, underflow=False)


def _reference_crossing(p, threshold, l_min, l_max, rel_tol=1e-12,
                        max_iter=200):
    """Bisection on parameter sets rebuilt at every distance; None when
    the threshold is not bracketed."""
    def rate(distance):
        return swap_chain(p._replace(distance=distance)).rate
    lo, hi = l_min, l_max
    if not rate(lo) > threshold > rate(hi):
        return None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if rate(mid) > threshold:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


# The curves of the benchmark's analytic workload (nest level 1-6 x modes
# x tau0 at the calibrated chi) and both fig8 presets.
BENCH_CURVES = [
    make_params(nest_level=nest, modes=modes, tau0=tau0,
                chi=PRESET_CHI_CALIBRATED)
    for nest in range(1, 7) for modes in (1, 100, 1000)
    for tau0 in (0.01, 1.0, 16.0, math.inf)
] + [params for _, params in PRESETS["fig8"]]


def test_bench_curves_reach_every_exit_of_the_recursion():
    points = [bd for p in BENCH_CURVES
              for _, bd in sweep_distance(p, 1e5, 2e6, 80)[0]]
    assert len(points) == 74 * 80
    partial = [bd for bd in points if bd.underflow and bd.stage_times]
    assert partial and any(bd.swap_probs for bd in partial)
    assert any(not bd.underflow for bd in points)


@pytest.mark.parametrize("p", BENCH_CURVES, ids=lambda p: (
    f"n{p.nest_level}-N{p.modes}-tau{p.tau0}-r{p.r0}"))
def test_sweep_at_a_distance_equals_rebuilt_parameter_sets(p):
    points, _ = sweep_distance(p, 1e5, 2e6, 80)
    assert [d for d, _ in points][::79] == [1e5, 2e6]
    for distance, bd in points:
        rebuilt = p._replace(distance=distance)
        assert bd == swap_chain(rebuilt)
        assert bd == _reference_swap_chain(rebuilt)
    try:
        crossing = threshold_crossing_distance(p, 1e-4, 1e5, 2e6)
    except ParameterError:
        crossing = None
    reference = _reference_crossing(p, 1e-4, 1e5, 2e6)
    assert (crossing is None) == (reference is None)
    if reference is not None:
        def excess(distance):
            return swap_chain(p._replace(distance=distance)).rate - 1e-4
        assert crossing == find_root(excess, 1e5, 2e6)
        assert crossing == pytest.approx(reference, rel=1e-11)


def _brentq(f, a, b):
    return brentq(f, a, b, xtol=1e-300, rtol=CROSSING_REL_TOL)


@pytest.mark.parametrize("f, a, b", [
    (math.cos, 1.0, 2.0),
    # exp(x) - 1e150 spans 1e300 (and -1e150) over the bracket
    (lambda x: math.exp(x) - 1e150, 1.0, 690.0),
    (lambda x: 1e-150 - math.exp(-x), 1.0, 690.0),
    # a "rate" exactly 0 below x = 300, as an underflowed rate is
    (lambda x: (0.0 if x < 300.0 else math.exp(x - 600.0)) - 1e-100,
     1.0, 690.0),
])
def test_find_root_agrees_with_brentq(f, a, b):
    expected = _brentq(f, a, b)
    for lo, hi in ((a, b), (b, a)):
        root = find_root(f, lo, hi)
        assert root == pytest.approx(expected, rel=2 * CROSSING_REL_TOL)


def test_find_root_stops_at_an_exact_zero():
    def f(x):  # exactly 0 on [2, 3]
        return min(x - 2.0, 0.0) + max(x - 3.0, 0.0)
    root = find_root(f, 0.5, 5.0)
    assert 2.0 <= root <= 3.0 and f(root) == 0.0
    assert 2.0 <= _brentq(f, 0.5, 5.0) <= 3.0


def test_find_root_returns_a_zero_end_point():
    def f(x):
        return x - 1.0
    assert find_root(f, 1.0, 3.0) == 1.0
    assert find_root(f, 0.5, 1.0) == 1.0
    assert _brentq(f, 1.0, 3.0) == _brentq(f, 0.5, 1.0) == 1.0


@pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -2.0),
                                    (math.nan, 1.0), (-1.0, math.nan)])
def test_find_root_rejects_ends_without_a_sign_change(fa, fb):
    with pytest.raises(ParameterError, match="sign change"):
        find_root({1.0: fa, 2.0: fb}.__getitem__, 1.0, 2.0)


@pytest.fixture
def swap_chain_calls(monkeypatch):
    """Evaluations of the swap recursion: every ``swap_chain`` call and
    every point a sweep or a crossing evaluates on its per-curve kernel."""
    calls = []
    original = repeater._rate_curve

    def counting_curve(*args, **kwargs):
        at = original(*args, **kwargs)

        def counting(distance):
            calls.append(None)
            return at(distance)
        return counting
    monkeypatch.setattr(repeater, "_rate_curve", counting_curve)
    return calls


def test_root_searches_bound_their_swap_chain_calls(swap_chain_calls):
    crossings = {}
    for l_max in (2e6, 3e6):
        for label, p in PRESETS["fig8"]:
            swap_chain_calls.clear()
            crossings[label, l_max] = threshold_crossing_distance(
                p, 1e-4, 1e5, l_max)
            assert len(swap_chain_calls) <= 20, (label, l_max)
    for l_max in (2e6, 3e6):  # criterion 7's ratio, as the bisection gave
        ratio = crossings["cpe", l_max] / crossings["cie", l_max]
        assert ratio == pytest.approx(1.9743125803832529, rel=1e-9)

    swap_chain_calls.clear()
    calibrate_chi(PRESET_HIGH_RETRIEVAL, 1e-4)
    assert len(swap_chain_calls) <= 25

    swap_chain_calls.clear()
    for p in BENCH_CURVES:
        try:
            threshold_crossing_distance(p, 1e-4, 1e5, 2e6)
        except ParameterError:
            pass
    assert len(swap_chain_calls) <= 650


def test_crossing_on_a_bracket_of_many_decades(swap_chain_calls):
    # the search runs in ln(distance), so [1e5, 1e308] costs a few dozen
    # evaluations, not the ~1,000 halvings of a linear bisection
    for _, p in PRESETS["fig8"]:
        narrow = threshold_crossing_distance(p, 1e-4, 1e5, 3e6)
        swap_chain_calls.clear()
        wide = threshold_crossing_distance(p, 1e-4, 1e5, 1e308)
        assert len(swap_chain_calls) <= 40
        assert wide == pytest.approx(narrow, rel=1e-11)


# Mean stage time of the event-level swap tree below over the recursion's
# t_j at the fig8 high-retrieval curve, tau0 = inf, 1000 km, levels 0-3.
# These are the tree's exact expectations: level 1 is 2 - 1/(2 - P0^(N))
# in closed form, and levels 2 and 3 come from the stage times'
# generating functions (a compound geometric of the max of two), summed
# on a 2^20-point FFT grid whose truncated mass is below 1e-11.
SWAP_TREE_RATIOS = (1.0, 1.4987413865, 2.2066556252, 3.2425282818)


def _swap_tree_stage_times(bd, levels, n, rng):
    """Seeded samples of the stage times t_0 .. t_levels of an event-level
    swap tree with ``bd``'s t_cc, P0^(N) and P_j: a link takes t_cc times a
    Geometric(P0^(N)) number of attempts, and level j takes the sum, over
    Geometric(P_j) swap attempts, of the later of two fresh level j-1
    times. ``n`` samples of the top level; the lower levels' samples are
    the ones drawn to build them."""
    attempts, count = [], n
    for p_j in reversed(bd.swap_probs[:levels]):  # draws from the top down
        attempts.append(rng.geometric(p_j, count))
        count = 2 * int(attempts[-1].sum())
    times = [bd.t_cc * rng.geometric(bd.p0_multiplexed, count)]
    for k in reversed(attempts):
        later = times[-1].reshape(-1, 2).max(axis=1)
        times.append(np.add.reduceat(later, np.cumsum(k) - k))
    return times


def test_rate_recursion_against_an_event_level_swap_tree():
    """The recursion t_j = t_(j-1) / P_j waits for one segment, not for
    the later of two, so each level's mean time falls short of the event
    tree's by a factor that grows about as (3/2)^j; the recursion stays
    the package's rate model, and this pins the gap."""
    bd = _rate_curve(PRESET_HIGH_RETRIEVAL._replace(tau0=math.inf))(1e6)
    times = _swap_tree_stage_times(bd, 3, 6000, np.random.default_rng(8))
    for sample, t_j, pin in zip(times, bd.stage_times, SWAP_TREE_RATIOS):
        ratio = sample.mean() / t_j
        # standard error: 0.06% of the ratio at level 0 (3.2e6 links),
        # 0.15%, 0.4% and 1.2% at levels 1, 2 and 3 (6,000 samples at 3);
        # the draw is seeded, so the test is deterministic
        se = sample.std(ddof=1) / math.sqrt(len(sample)) / t_j
        assert se < 0.013 * pin
        assert abs(ratio - pin) < 3 * se, (ratio, pin, se)
