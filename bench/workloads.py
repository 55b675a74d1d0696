"""Benchmark workloads: inputs generated from the seed, CLI commands, checks.

Every input file (configs, ``(t, R, sigma)`` sets) is written here from the
benchmark's ``--seed``; the program only reads them. A workload is a list
of steps, each one CLI command with an optional output check. Checks are
statistical, not byte-golden, so a change of the engine's random streams
still passes them. All paths are relative to the pass's working directory,
so artifacts (which record their paths) hash the same on every pass.

Every workload ends with the same small cover block (a records simulate,
an estimate, a fit and the ``fig8`` sweep), so each traced layer does some
measured work on every workload; the block takes well under 0.1 s.

The ``chsh`` and ``decay_scan`` simulations run as one command per angle
setting or storage time rather than one command for all of them. The
engine does the same work either way, but the child times its reference
kernel only between commands (``child.py``), so shorter commands let it
follow the host's speed more closely.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

# The sample.conf operating point (single-pair form) and the Bell point.
EXPERIMENT_TIMING = """\
experiment.noise_b = 1e-5
experiment.noise_c = 1e-4
decay.r0 = 0.77
decay.tau0 = 1e-3
timing.prep_duration = 42e-3
timing.run_duration = 8e-3
timing.trial_period = 2000e-9
"""
BELL_CONF = ("experiment.chi = 0.02\nexperiment.eta_s = 1.0\n"
             "experiment.eta_as = 1.0\n" + EXPERIMENT_TIMING)
DECAY_CONF = ("experiment.chi = 0.01\nexperiment.eta_s = 0.15\n"
              "experiment.eta_as = 0.15\n" + EXPERIMENT_TIMING
              + "engine.double_pair = true\n")
DECAY_R0, DECAY_TAU0, DECAY_ETA_TD = 0.77, 1e-3, 0.15
# Matched-angle retrieval counts only same-detector coincidences, a share
# (1 + V) / 2 of them at the default visibility V = 2.5 / (2 sqrt 2).
MATCHED_SHARE = (1.0 + 2.5 / (2.0 * math.sqrt(2.0))) / 2.0
DECAY_TIMES = [i * 0.15e-3 for i in range(8)]
# The four settings of the canonical CHSH plan, (thetaS, thetaAS) degrees.
CANONICAL_ANGLES = ("0:22.5", "0:67.5", "45:22.5", "45:67.5")

REPEATER_BASE = {
    "distance": 1e6, "attenuation_length": 22e3, "fiber_speed": 2e8,
    "chi": 0.045226195313453996, "eta_fc": 0.33, "eta_td": 0.88, "r0": 0.8,
}
NEST_LEVELS = range(1, 7)
MODES = (1, 100, 1000)
TAU0S = ("0.01", "1", "16", "inf")
THRESHOLD = "1e-4"

S_TARGET, S_TOL = 2.50, 0.05          # acceptance criterion 6
FIG8_CROSSING_M, CROSSING_REL = 1e6, 0.15  # criterion 7 tolerance
FIG8_RATIO = 2.3
FIT_SIGMAS = 5.0
MAX_REDUCED_RESIDUAL = 20.0

SIZES = {
    "full": dict(chsh_trials=4_000_000, chsh_replicas=10_000,
                 decay_trials=500_000, decay_records=250_000,
                 decay_replicas=5_000, fits=100, sweep_stride=1),
    "tiny": dict(chsh_trials=1_000_000, chsh_replicas=1_000,
                 decay_trials=300_000, decay_records=10_000,
                 decay_replicas=1_000, fits=10, sweep_stride=6),
}

Check = Callable[[Path], Optional[str]]


@dataclass
class Step:
    kind: str                     # CLI command name
    argv: List[str]
    check: Optional[Check] = None  # returns an error message or None


@dataclass
class Workload:
    setup_config: str
    steps: List[Step]
    trials: int   # simulated write trials, counts plus records
    evals: int    # decay fits plus repeater rate points


# -- artifact readers -------------------------------------------------------

def _data_lines(path: Path) -> Iterator[str]:
    with path.open(encoding="utf-8") as lines:
        for line in lines:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line


def _report(path: Path) -> Dict[str, str]:
    """Entries of a ``key = value`` report."""
    return dict((part.strip() for part in line.split("=", 1))
                for line in _data_lines(path))


def _rows(path: Path) -> Iterator[Dict[str, str]]:
    """Rows of a CSV artifact, streamed so a records file is never held."""
    lines = _data_lines(path)
    names = next(lines).split(",")
    for line in lines:
        yield dict(zip(names, line.split(",")))


COUNT_KEYS = ("n_d1", "n_d2", "c13", "c24", "c14", "c23")
TALLY = {("D1", "D3"): "c13", ("D2", "D4"): "c24",
         ("D1", "D4"): "c14", ("D2", "D3"): "c23"}


def _records_match_counts(out: str) -> Check:
    def check(work: Path) -> Optional[str]:
        counts = next(_rows(work / out / "counts_t00_a00.csv"))
        tally = dict.fromkeys(COUNT_KEYS, 0)
        for row in _rows(work / out / "trials_t00_a00.csv"):
            stokes, anti = row["stokes_click"], row["antistokes_click"]
            if stokes != "none":
                tally["n_d1" if stokes == "D1" else "n_d2"] += 1
                if anti != "none":
                    tally[TALLY[stokes, anti]] += 1
        expected = {key: int(counts[key]) for key in COUNT_KEYS}
        if tally != expected:
            return f"{out}: records tally {tally} != counts {expected}"
        return None
    return check


def _fit_converged(out: str, n_samples: int) -> Check:
    def check(work: Path) -> Optional[str]:
        fit = _report(work / out / "decay_fit.kv")
        reduced = float(fit["residual"]) / (n_samples - 2)
        if not reduced <= MAX_REDUCED_RESIDUAL:
            return f"{out}: reduced residual {reduced!r}"
        return None
    return check


def _fit_parameter_sigmas(samples, r0, tau0):
    """1-sigma errors of fitted (r0, tau0) when (r0, tau0) are the true
    values: weighted least-squares Jacobian, weights from the samples' own
    sigma_R."""
    a = b = c = 0.0
    for t, _r, sigma in samples:
        u = t / tau0
        d_r0 = (math.exp(-u * u) + math.exp(-u)) / 2.0
        d_tau = r0 * (2 * u * u * math.exp(-u * u) + u * math.exp(-u)) \
            / (2.0 * tau0)
        w = 1.0 / (sigma * sigma)
        a, b, c = (a + w * d_r0 * d_r0, b + w * d_r0 * d_tau,
                   c + w * d_tau * d_tau)
    det = a * c - b * b
    return math.sqrt(c / det), math.sqrt(a / det)


def _decay_fit_matches(est: str, fit: str) -> Check:
    def check(work: Path) -> Optional[str]:
        samples = [(float(row["t_seconds"]), float(row["R"]),
                    float(row["sigma_R"]))
                   for row in _rows(work / est / "retrieval.csv")]
        converged = _fit_converged(fit, len(samples))(work)
        if converged:
            return converged
        report = _report(work / fit / "decay_fit.kv")
        r0, tau0 = float(report["r0"]), float(report["tau0_s"])
        r0_expected = DECAY_R0 * MATCHED_SHARE
        s_r0, s_tau = _fit_parameter_sigmas(samples, r0_expected, DECAY_TAU0)
        if abs(r0 - r0_expected) > FIT_SIGMAS * s_r0:
            return f"{fit}: r0 {r0!r} vs {r0_expected!r} +- {s_r0!r}"
        if abs(tau0 - DECAY_TAU0) > FIT_SIGMAS * s_tau:
            return f"{fit}: tau0 {tau0!r} vs {DECAY_TAU0!r} +- {s_tau!r}"
        return None
    return check


def _bell_S_near_target(out: str) -> Check:
    def check(work: Path) -> Optional[str]:
        report = _report(work / out / "estimates.kv")
        s = float(report["s.value"])
        if not abs(s - S_TARGET) <= S_TOL:
            return f"{out}: S = {s!r}, expected {S_TARGET} +- {S_TOL}"
        return None
    return check


def _retrieval_estimated(out: str) -> Check:
    def check(work: Path) -> Optional[str]:
        report = _report(work / out / "estimates.kv")
        r = float(report["table00.r_qubit"])
        if not 0.0 < r <= 1.5:
            return f"{out}: r_qubit = {r!r}"
        return None
    return check


def _sweep_monotone(out: str) -> Check:
    def check(work: Path) -> Optional[str]:
        report = _report(work / out / "repeater_summary.kv")
        flags = {key: value for key, value in report.items()
                 if key.endswith(".monotone_non_increasing")}
        if not flags or any(value != "true" for value in flags.values()):
            return f"{out}: monotone flags {flags}"
        return None
    return check


def _fig8_crossing(out: str) -> Check:
    monotone = _sweep_monotone(out)

    def check(work: Path) -> Optional[str]:
        report = _report(work / out / "repeater_summary.kv")
        high = float(report["cpe.threshold_crossing_m"])
        low = float(report["cie.threshold_crossing_m"])
        if not abs(high - FIG8_CROSSING_M) <= CROSSING_REL * FIG8_CROSSING_M:
            return f"{out}: cpe crosses {THRESHOLD} /s at {high!r} m"
        if not abs(high / low - FIG8_RATIO) <= CROSSING_REL * FIG8_RATIO:
            return f"{out}: crossing ratio {high / low!r}"
        return monotone(work)
    return check


# -- input generation -------------------------------------------------------

def _write(work: Path, name: str, text: str) -> str:
    """Write input ``in/<name>``; return its path relative to ``work``."""
    (work / "in").mkdir(exist_ok=True)
    (work / "in" / name).write_text(text, encoding="utf-8")
    return f"in/{name}"


def _decay_samples(rng: random.Random, n: int):
    """``n`` noisy samples of the decay model at random (r0, tau0)."""
    r0 = rng.uniform(0.5, 0.95)
    tau0 = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
    samples = []
    for i in range(n):
        t = 2.5 * tau0 * (i + rng.random()) / n
        u = t / tau0
        r_true = r0 * (math.exp(-u * u) + math.exp(-u)) / 2.0
        sigma = 0.005 + 0.03 * r_true
        samples.append((t, max(0.0, rng.gauss(r_true, sigma)), sigma))
    return samples


def _decay_csv(samples) -> str:
    lines = ["t_seconds,R,sigma_R"]
    lines += [f"{t!r},{r!r},{s!r}" for t, r, s in samples]
    return "\n".join(lines) + "\n"


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


def _cover(work: Path, rng: random.Random, bell_conf: str) -> List[Step]:
    n_fit = 6
    fit_in = _write(work, "cover_fit.csv",
                    _decay_csv(_decay_samples(rng, n_fit)))
    return [
        Step("simulate", ["simulate", "--config", bell_conf,
                          "--seed", _seed(rng), "--trials", "5000",
                          "--angles", "0:0", "--records",
                          "--out", "out/cover_sim"],
             _records_match_counts("out/cover_sim")),
        Step("estimate", ["estimate", "out/cover_sim/counts_t00_a00.csv",
                          "--eta-td", "1.0", "--replicas", "200",
                          "--seed", _seed(rng), "--out", "out/cover_est"],
             _retrieval_estimated("out/cover_est")),
        Step("fit-decay", ["fit-decay", fit_in, "--out", "out/cover_fit"],
             _fit_converged("out/cover_fit", n_fit)),
        Step("repeater-sweep", ["repeater-sweep", "--preset", "fig8",
                                "--threshold", THRESHOLD,
                                "--out", "out/cover_fig8"],
             _fig8_crossing("out/cover_fig8")),
    ]


COVER_TRIALS = 2 * 5000     # counts plus records of the cover simulate
COVER_EVALS = 1 + 2 * 80    # one fit, two 80-point fig8 curves


def chsh(work: Path, seed: int, size: dict, workers: int) -> Workload:
    rng = random.Random(seed)
    conf = _write(work, "bell.conf", BELL_CONF)
    trials = size["chsh_trials"]
    steps = [
        Step("simulate", ["simulate", "--config", conf, "--seed", _seed(rng),
                          "--trials", str(trials), "--angles", angles,
                          "--workers", str(workers), "--out", f"out/sim{i}"])
        for i, angles in enumerate(CANONICAL_ANGLES)]
    counts = [f"out/sim{i}/counts_t00_a00.csv"
              for i in range(len(CANONICAL_ANGLES))]
    steps.append(
        Step("estimate", ["estimate", *counts, "--eta-td", "1.0",
                          "--replicas", str(size["chsh_replicas"]),
                          "--seed", _seed(rng), "--out", "out/est"],
             _bell_S_near_target("out/est")))
    steps += _cover(work, rng, conf)
    return Workload(conf, steps,
                    len(CANONICAL_ANGLES) * trials + COVER_TRIALS,
                    COVER_EVALS)


def decay_scan(work: Path, seed: int, size: dict, workers: int) -> Workload:
    rng = random.Random(seed)
    conf = _write(work, "decay.conf", DECAY_CONF)
    bell = _write(work, "bell.conf", BELL_CONF)
    trials, records = size["decay_trials"], size["decay_records"]
    steps = [
        Step("simulate", ["simulate", "--config", conf, "--seed", _seed(rng),
                          "--trials", str(trials), "--t", repr(t),
                          "--angles", "0:0", "--out", f"out/sim{i}"])
        for i, t in enumerate(DECAY_TIMES)]
    counts = [f"out/sim{i}/counts_t00_a00.csv"
              for i in range(len(DECAY_TIMES))]
    steps += [
        Step("simulate", ["simulate", "--config", conf, "--seed", _seed(rng),
                          "--trials", str(records), "--t", "0.0005",
                          "--angles", "0:0", "--records", "--out", "out/rec"],
             _records_match_counts("out/rec")),
        Step("estimate", ["estimate", *counts,
                          "--eta-td", repr(DECAY_ETA_TD),
                          "--replicas", str(size["decay_replicas"]),
                          "--seed", _seed(rng), "--out", "out/est"]),
        Step("fit-decay", ["fit-decay", "out/est/retrieval.csv",
                           "--out", "out/fit"],
             _decay_fit_matches("out/est", "out/fit")),
    ]
    steps += _cover(work, rng, bell)
    return Workload(conf, steps,
                    len(DECAY_TIMES) * trials + 2 * records + COVER_TRIALS,
                    1 + COVER_EVALS)


def _repeater_conf(nest: int, modes: int, tau0: str) -> str:
    fields = dict(REPEATER_BASE, nest_level=nest, modes=modes)
    lines = [f"repeater.{key} = {value!r}" for key, value in fields.items()]
    lines.append(f"repeater.tau0 = {tau0}")
    return "\n".join(lines) + "\n"


def analytic(work: Path, seed: int, size: dict, workers: int) -> Workload:
    rng = random.Random(seed)
    bell = _write(work, "bell.conf", BELL_CONF)
    steps = []
    for i in range(size["fits"]):
        n = rng.randint(4, 15)
        data = _write(work, f"fit_{i:03d}.csv",
                      _decay_csv(_decay_samples(rng, n)))
        out = f"out/fit_{i:03d}"
        steps.append(Step("fit-decay", ["fit-decay", data, "--out", out],
                          _fit_converged(out, n)))
    grid = [(nest, modes, tau0) for nest in NEST_LEVELS for modes in MODES
            for tau0 in TAU0S][::size["sweep_stride"]]
    confs = []
    for i, (nest, modes, tau0) in enumerate(grid):
        conf = _write(work, f"rep_{i:02d}.conf",
                      _repeater_conf(nest, modes, tau0))
        confs.append(conf)
        out = f"out/rep_{i:02d}"
        steps.append(Step("repeater-sweep",
                          ["repeater-sweep", "--config", conf,
                           "--threshold", THRESHOLD, "--out", out],
                          _sweep_monotone(out)))
    steps += _cover(work, rng, bell)
    return Workload(confs[0], steps, COVER_TRIALS,
                    size["fits"] + 80 * len(grid) + COVER_EVALS)


WORKLOADS = {"chsh": chsh, "decay_scan": decay_scan, "analytic": analytic}
