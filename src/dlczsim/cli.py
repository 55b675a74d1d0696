"""Command-line interface: simulate, estimate, fit-decay, lifetime, budget,
repeater-sweep.

Exit codes: 0 success, 2 validation error (parameters, config, schema),
3 numeric failure (fit, degenerate statistics, overflow), 4 I/O error.
Outputs are deterministic for a fixed (config, seed): no timestamps, no
worker-count dependence.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import Config, load_config
from .datafiles import (DECAY_COLUMNS, DECAY_SIGMA_COLUMN, fmt_value,
                        read_counts_csv, read_decay_csv, write_counts_csv,
                        write_csv, write_kv)
from .decoherence import fit_decay, motional_lifetime
from .engine import (CountsTable, TrialRecord, run_experiment,
                     trial_outcome_blocks)
from .entanglement import AngleSettings
from .errors import (DegenerateDataError, DegenerateStatisticsError,
                     FitConvergenceError, InsufficientDataError,
                     ParameterError, SchemaError, check_in)
from .estimators import (BellSettings, EstimateWithError, bell_S_signed,
                         correlation_E, fidelity_from_S,
                         intrinsic_retrieval_mode, intrinsic_retrieval_qubit,
                         poisson_error, visibility_from_S, REPLICAS_MAX,
                         TWO_ROOT_TWO, matched_angles)
from .params import coupling_angle, repetition_rate
from .repeater import (PRESETS, PRESET_CHI_SOURCE, SWEEP_MAX_STEPS,
                       sweep_distance, threshold_crossing_distance)

OUTPUT_DIR_ENV = "DLCZSIM_OUT"
RECORDS_LIMIT = 1_000_000  # per-trial CSVs above this are refused
RECORDS_CHUNK = 1 << 14  # trials rendered per text chunk of --records
_INDEX_DIGITS = len(str(RECORDS_LIMIT - 1))  # widest trial index of a record
_ASCII_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# Version of the engine's random streams, recorded in simulate provenance:
# v3 draws one multinomial histogram per RNG block from the exact outcome
# table; records are a seeded arrangement of that histogram.
STREAM_VERSION = "v3"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def parse_t_list(spec: str) -> List[float]:
    try:
        values = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse storage times {spec!r}")
    if not values:
        raise ParameterError("empty storage-time list")
    for t in values:
        check_in("--t", t, "[0, inf)")
    return values


def parse_angle_plan(spec: str) -> List[AngleSettings]:
    """Angle plan: 'canonical' or comma-separated 'thetaS:thetaAS' degrees."""
    if spec.strip().lower() == "canonical":
        canonical = BellSettings.canonical()
        return [AngleSettings(theta_s, theta_as)
                for theta_s, theta_as in canonical.combinations]
    plan = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ParameterError(
                f"angle pair {part!r} is not 'thetaS:thetaAS' (degrees)")
        try:
            degrees = [float(piece) for piece in pieces]
        except ValueError:
            raise ParameterError(f"cannot parse angle pair {part!r}")
        for degree in degrees:
            check_in("--angles", degree, "(-inf, inf)")
        plan.append(AngleSettings.from_degrees(*degrees))
    if not plan:
        raise ParameterError("empty angle plan")
    return plan


def non_negative_int(text: str) -> int:
    """argparse type of ``--seed``: a decimal integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


class _Artifacts:
    """Everything a command writes, named once: the output directory, the
    provenance base, the files in write order, the report format, and the
    closing run manifest and printed report entries."""

    def __init__(self, args, cfg: Optional[Config] = None):
        self.args = args
        self.out_name = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
        self.config_path = args.config if cfg else "none"
        self.provenance: Dict[str, object] = {
            "command": args.command,
            "config_hash": cfg.config_hash if cfg else "none",
            "seed": getattr(args, "seed", "none"),
        }
        self.written: List[str] = []
        self.entries: Dict[str, object] = {}

    @functools.cached_property
    def out(self) -> Path:
        """The output directory, made with the command's first file, so a
        command that fails before it writes leaves none."""
        out = Path(self.out_name)
        out.mkdir(parents=True, exist_ok=True)
        return out

    def path(self, name: str) -> Path:
        self.written.append(name)
        return self.out / name

    def report(self, name: str, kind: str,
               entries: Dict[str, object]) -> None:
        """The command's report, as kv or csv per ``--format``; its
        entries are also printed by :meth:`finish`."""
        self.entries = entries
        if self.args.format == "kv":
            write_kv(self.path(f"{name}.kv"), kind, entries, self.provenance)
        else:
            write_csv(self.path(f"{name}.csv"), kind, ("quantity", "value"),
                      list(entries.items()), self.provenance)

    def finish(self, **extra) -> int:
        """Write the run manifest (``outputs`` last), print the report."""
        write_kv(self.out / "run_manifest.kv", "manifest", {
            "command": self.provenance["command"],
            "config_path": self.config_path,
            "config_hash": self.provenance["config_hash"],
            "seed": self.provenance["seed"],
            "output_dir": self.out_name,
            "version": __version__,
            **extra,
            "outputs": ",".join(self.written),
        }, {})
        for key, value in self.entries.items():
            print(f"{key} = {fmt_value(value)}")
        return EXIT_OK


def _require(section, name: str):
    if section is None:
        raise ParameterError(f"config is missing the '{name}' section")
    return section


def _load_required_config(args) -> Config:
    if not args.config:
        raise ParameterError("--config is required for this command")
    return load_config(args.config)


def cmd_simulate(args) -> int:
    cfg = _load_required_config(args)
    params = _require(cfg.experiment, "experiment")
    timing = _require(cfg.timing, "timing")
    check_in("--workers", args.workers, "[1, inf)")
    t_list = parse_t_list(args.t)
    plan = parse_angle_plan(args.angles)
    if args.records and args.trials > RECORDS_LIMIT:
        raise ParameterError(
            f"--records supports at most {RECORDS_LIMIT} trials per setting")
    art = _Artifacts(args, cfg)

    wall_total = 0.0
    for ti, t in enumerate(t_list):
        result = run_experiment(params, timing, t, plan, args.trials,
                                args.seed, double_pair=cfg.double_pair,
                                run_tag=ti)
        wall_total += result.wall_time
        for ai, table in enumerate(result.tables):
            prov = {
                **art.provenance, "run_tag": ti, "setting_index": ai,
                "t_seconds": t,
                "theta_s_deg": math.degrees(table.settings.theta_s),
                "theta_as_deg": math.degrees(table.settings.theta_as),
                "trials": args.trials,
                "double_pair": cfg.double_pair,
                "stream": STREAM_VERSION,
            }
            write_counts_csv(art.path(f"counts_t{ti:02d}_a{ai:02d}.csv"),
                             [table], prov)
            if args.records:
                _write_records(art.path(f"trials_t{ti:02d}_a{ai:02d}.csv"),
                               params, t, table.settings, args.trials,
                               args.seed, ti, ai, cfg.double_pair, prov)

    art.finish(trials_per_setting=args.trials,
               storage_times_s=",".join(fmt_value(t) for t in t_list),
               angle_plan=args.angles,
               trial_rate_per_s=repetition_rate(timing),
               simulated_wall_time_s=wall_total)
    print(f"simulate: wrote {len(art.written)} file(s) to {art.out} "
          f"(simulated wall time {fmt_value(wall_total)} s)")
    return EXIT_OK


def _write_records(path, params, t, angles, n_trials, seed, run_tag,
                   setting_index, double_pair, provenance) -> None:
    """Per-trial CSV in text chunks of at most ``RECORDS_CHUNK`` trials:
    each row is the trial index followed by the pre-rendered cells of the
    trial's outcome."""
    outcomes, blocks = trial_outcome_blocks(
        params, t, angles, n_trials, seed, setting_index=setting_index,
        double_pair=double_pair, run_tag=run_tag)
    kinds = (TrialRecord.from_outcome(0, t, o) for o in outcomes)
    table = _tail_table(["".join(f",{fmt_value(v)}" for v in (
        r.storage_time, r.stokes_click or "none", r.antistokes_click or "none",
        r.pair_created)) + "\n" for r in kinds])

    def chunks():
        for first, draw in blocks:
            trials = draw()
            for lo in range(0, len(trials), RECORDS_CHUNK):
                yield _render_rows(table, first + lo,
                                   trials[lo:lo + RECORDS_CHUNK])

    write_csv(path, "trials",
              ("trial_index", "storage_time_s", "stokes_click",
               "antistokes_click", "pair_created"), chunks(), provenance)


def _tail_table(tails: Sequence[str]) -> np.ndarray:
    """Row tails as ASCII bytes, one row per outcome, NUL-padded on the
    left by room for the trial index and on the right to the longest."""
    encoded = [tail.encode("ascii") for tail in tails]
    table = np.zeros((len(encoded), _INDEX_DIGITS + max(map(len, encoded))),
                     dtype=np.uint8)
    for row, tail in zip(table, encoded):
        row[_INDEX_DIGITS:_INDEX_DIGITS + len(tail)] = np.frombuffer(
            tail, dtype=np.uint8)
    return table


def _render_rows(table: np.ndarray, start: int, trials: np.ndarray) -> str:
    """The rows ``f"{start + i}{tails[trials[i]]}"`` as one string, where
    ``table`` is ``_tail_table(tails)`` and every index is below
    ``RECORDS_LIMIT``. The index digits fill the room left of the gathered
    tails, and every NUL byte (a digit the index lacks, or tail padding) is
    dropped."""
    n = len(trials)
    width = len(str(start + n - 1))
    rows = table[:, _INDEX_DIGITS - width:].take(trials, axis=0)
    for j in range(width):
        rows[:, j] = _digit_column(start, n, 10 ** (width - 1 - j))
    return rows.tobytes().replace(b"\0", b"").decode("ascii")


def _digit_column(start: int, n: int, place: int) -> np.ndarray:
    """ASCII digit at ``place`` (a power of ten) of each index ``start``,
    ..., ``start + n - 1``; NUL where the index has no digit there.

    Consecutive indices keep a digit for runs of ``place``, so the column
    repeats one digit per run and divides nothing per index.
    """
    skip = start % place
    runs = (skip + n - 1) // place + 1
    first = start // place % 10
    digits = np.tile(_ASCII_DIGITS, (first + runs - 1) // 10 + 1)[
        first:first + runs]
    if 1 < place and start < place:  # the first run lies below ``place``
        digits[0] = 0
    return np.repeat(digits, place)[skip:skip + n]


def _eta_td_for_estimate(args, cfg: Optional[Config]) -> float:
    if args.eta_td is not None:
        check_in("--eta-td", args.eta_td, "(0, 1]")
        return args.eta_td
    if cfg is not None and cfg.chain is not None:
        return cfg.chain.eta_td
    raise ParameterError(
        "estimate needs --eta-td or a config with a 'chain' section")


def _table_estimators(tb: CountsTable, eta_td: float) -> Dict[str, Callable]:
    """The estimators ``estimate`` reports for one table, by entry name:
    E when it has coincidences, the retrievals at matched angles."""
    estimators = {}
    if tb.matched + tb.crossed > 0:
        estimators["E"] = correlation_E
    if matched_angles(tb):
        estimators.update(
            r_qubit=lambda c: intrinsic_retrieval_qubit(c, eta_td),
            r_l=lambda c: intrinsic_retrieval_mode(c, "L", eta_td),
            r_r=lambda c: intrinsic_retrieval_mode(c, "R", eta_td))
    return estimators


def cmd_estimate(args) -> int:
    cfg = load_config(args.config) if args.config else None
    eta_td = _eta_td_for_estimate(args, cfg)

    digest = hashlib.sha256()
    tables: List[CountsTable] = []
    for name in args.counts:  # the hash covers the bytes parsed
        file_tables, _ = read_counts_csv(name, digest)
        tables.extend(file_tables)
    if not tables:
        raise SchemaError("no counts rows found in the input files")
    inputs_hash = "sha256:" + digest.hexdigest()

    art = _Artifacts(args, cfg)
    art.provenance.update({"inputs_hash": inputs_hash, "eta_td": eta_td,
                           "replicas": args.replicas})

    # One Poisson draw per group, shared by its estimators: a CHSH set is
    # drawn once, for S and its tables' E together, any other input once
    # per table.
    estimators = [_table_estimators(tb, eta_td) for tb in tables]
    try:
        bell_S_signed(tables)
    except ParameterError:
        groups, chsh = [[i] for i in range(len(tables))], False
    else:
        groups, chsh = [range(len(tables))], True
    results: Dict[Tuple[Optional[int], str], EstimateWithError] = {}
    for group in groups:
        named = {(i, name): (lambda tbs, e=e, k=k: e(tbs[k]))
                 for k, i in enumerate(group)
                 for name, e in estimators[i].items()}
        if chsh:
            named[None, "S"] = lambda tbs: abs(bell_S_signed(tbs))
        results.update(zip(named, poisson_error(
            tuple(named.values()), [tables[i] for i in group],
            n_replicas=args.replicas, seed=args.seed)))

    entries: Dict[str, object] = {"eta_td": eta_td}
    retrieval_rows: List[Tuple[float, float, float]] = []
    for i, tb in enumerate(tables):
        tag = f"table{i:02d}"
        entries[f"{tag}.theta_s_deg"] = math.degrees(tb.settings.theta_s)
        entries[f"{tag}.theta_as_deg"] = math.degrees(tb.settings.theta_as)
        entries[f"{tag}.storage_time_s"] = tb.storage_time
        for name in estimators[i]:
            entries[f"{tag}.{name}"] = results[i, name].value
            entries[f"{tag}.{name}_sigma"] = results[i, name].sigma
        if "r_qubit" in estimators[i]:
            r_qubit = results[i, "r_qubit"]
            retrieval_rows.append((tb.storage_time, r_qubit.value,
                                   r_qubit.sigma))

    entries["s.available"] = chsh
    if chsh:
        s_est = results[None, "S"]
        entries["s.value"] = s_est.value
        entries["s.sigma"] = s_est.sigma
        entries["visibility.value"] = visibility_from_S(s_est.value)
        entries["visibility.sigma"] = s_est.sigma / TWO_ROOT_TWO
        entries["fidelity.value"] = fidelity_from_S(s_est.value)
        entries["fidelity.sigma"] = 0.75 * s_est.sigma / TWO_ROOT_TWO

    art.report("estimates", "estimates", entries)
    if retrieval_rows:
        retrieval_rows.sort(key=lambda row: row[0])
        write_csv(art.path("retrieval.csv"), "decay-samples",
                  DECAY_COLUMNS + (DECAY_SIGMA_COLUMN,), retrieval_rows,
                  art.provenance)
    return art.finish(inputs_hash=inputs_hash, inputs=",".join(args.counts))


def cmd_fit_decay(args) -> int:
    samples = read_decay_csv(args.data)
    decay, residual = fit_decay(samples)
    art = _Artifacts(args)
    art.provenance["inputs"] = args.data
    art.report("decay_fit", "decay-fit", {
        "r0": decay.r0,
        "tau0_s": decay.tau0,
        "residual": residual,
        "n_samples": len(samples),
    })
    return art.finish(inputs=args.data)


def cmd_lifetime(args) -> int:
    cfg = _load_required_config(args)
    geometry = _require(cfg.geometry, "geometry")
    theta = coupling_angle(geometry)
    tau = motional_lifetime(geometry)
    art = _Artifacts(args, cfg)
    art.report("lifetime", "lifetime", {
        "coupling_angle_rad": theta,
        "coupling_angle_deg": math.degrees(theta),
        "motional_lifetime_s": tau,
    })
    return art.finish()


def cmd_budget(args) -> int:
    cfg = _load_required_config(args)
    chain = _require(cfg.chain, "chain")
    art = _Artifacts(args, cfg)
    entries = {
        "t_oc": chain.t_oc,
        "cavity_loss": chain.cavity_loss,
        "eta_esp": chain.eta_esp,
        "eta_t": chain.eta_t,
        "eta_td": chain.eta_td,
    }
    if chain.loss_items:
        for name in sorted(chain.loss_items):
            entries[f"loss.{name}"] = chain.loss_items[name]
    art.report("budget", "budget", entries)
    return art.finish()


def cmd_repeater_sweep(args) -> int:
    if args.preset:
        cfg, curves = None, PRESETS[args.preset]
        chi_source = PRESET_CHI_SOURCE
    else:
        cfg = _load_required_config(args)
        curves = (("config", _require(cfg.repeater, "repeater")),)
        chi_source = "config"
    if args.threshold is not None:
        check_in("--threshold", args.threshold, "(0, inf)")

    rows = []  # rendered as fmt_value renders them: a float as its repr
    entries: Dict[str, object] = {}
    for label, params in curves:
        points, monotone = sweep_distance(
            params, args.l_min, args.l_max, args.steps, grid=args.grid,
            approx_multiplex=args.approx_multiplex)
        head = f"{label},{params.r0!r}"
        for distance, bd in points:
            t_final = bd.stage_times[-1] if bd.stage_times else math.nan
            rows.append(
                f"{head},{distance!r},{bd.rate!r},{bd.t_cc!r},{bd.p0!r},"
                f"{bd.p0_multiplexed!r},{bd.p_pr!r},{t_final!r},"
                f"{fmt_value(bd.underflow)}\n")
        entries[f"{label}.r0"] = params.r0
        entries[f"{label}.chi"] = params.chi
        entries[f"{label}.link_divisor"] = params.link_divisor
        entries[f"{label}.n_links"] = params.n_links
        entries[f"{label}.monotone_non_increasing"] = monotone
        if args.threshold is not None:
            try:
                crossing = threshold_crossing_distance(
                    params, args.threshold, args.l_min, args.l_max)
            except ParameterError:
                entries[f"{label}.threshold_crossing_m"] = "none"
            else:
                entries[f"{label}.threshold_crossing_m"] = crossing

    art = _Artifacts(args, cfg)
    art.provenance.update({"chi_source": chi_source, "grid": args.grid,
                           "l_min_m": args.l_min, "l_max_m": args.l_max,
                           "steps": args.steps,
                           "approx_multiplex": args.approx_multiplex})
    write_csv(art.path("repeater_sweep.csv"), "repeater-sweep",
              ("curve", "r0", "distance_m", "rate_per_s", "t_cc_s", "p0",
               "p0_multiplexed", "p_pr", "t_final_s", "underflow"),
              rows, art.provenance)
    art.report("repeater_summary", "repeater-summary", entries)
    return art.finish(preset=args.preset or "none", chi_source=chi_source)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlczsim",
        description="Photon-counting simulator and analytic toolkit for "
                    "cavity-enhanced atom-photon entanglement memories.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config=True, report=True):
        """Add --out, and --config (to ``config`` if a group) and --format."""
        if config:
            (p if config is True else config).add_argument(
                "--config", help="key = value configuration file")
        p.add_argument("--out", help=f"output directory (default: "
                       f"${OUTPUT_DIR_ENV} or '.')")
        if report:
            p.add_argument("--format", choices=("kv", "csv"), default="kv",
                           help="report format (default kv)")

    p = sub.add_parser("simulate", help="run the Monte Carlo engine")
    common(p, report=False)
    p.add_argument("--seed", type=non_negative_int, required=True,
                   help="RNG seed (required for reproducible runs)")
    p.add_argument("--trials", type=int, required=True,
                   help="write trials per analyzer setting")
    p.add_argument("--t", default="0",
                   help="comma list of storage times in seconds (default 0)")
    p.add_argument("--angles", default="0:0",
                   help="'canonical' or comma list of thetaS:thetaAS in "
                        "degrees (default 0:0)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (>= 1); has no effect")
    p.add_argument("--records", action="store_true",
                   help="also write per-trial records")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimators on counts CSV files")
    common(p)
    p.add_argument("--seed", type=non_negative_int, default=0,
                   help="RNG seed of the error-bar replicas (default 0)")
    p.add_argument("counts", nargs="+", help="counts CSV files")
    p.add_argument("--eta-td", type=float, default=None,
                   help="total detection efficiency of the read-out chain")
    p.add_argument("--replicas", type=int, default=10_000,
                   help=f"Poisson-MC replicas for error bars, 100 to "
                   f"{REPLICAS_MAX}")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fit-decay", help="fit the retrieval decay model")
    common(p, config=False)
    p.add_argument("data", help="CSV with t_seconds,R[,sigma_R]")
    p.set_defaults(func=cmd_fit_decay)

    p = sub.add_parser("lifetime", help="motional-decoherence lifetime")
    common(p)
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("budget", help="detection-chain efficiency budget")
    common(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("repeater-sweep", help="repeater rate vs distance")
    source = p.add_mutually_exclusive_group()
    common(p, config=source)
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter preset (excludes --config)")
    p.add_argument("--l-min", type=float, default=1e5,
                   help="sweep start distance, m (default 1e5)")
    p.add_argument("--l-max", type=float, default=2e6,
                   help="sweep end distance, m (default 2e6)")
    p.add_argument("--steps", type=int, default=80,
                   help=f"distance grid points, 2 to {SWEEP_MAX_STEPS} "
                        "(default 80)")
    p.add_argument("--grid", choices=("log", "linear"), default="log")
    p.add_argument("--threshold", type=float, default=None,
                   help="also report the crossing distance for this rate")
    p.add_argument("--approx-multiplex", action="store_true",
                   help="use the N*P0 approximation instead of the exact "
                        "multiplexed probability")
    p.set_defaults(func=cmd_repeater_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first :func:`main` call of a process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InsufficientDataError, DegenerateDataError,
            DegenerateStatisticsError, FitConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:  # overflow, division by zero
        print(f"error: numeric failure ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return EXIT_NUMERIC
    except (ParameterError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
