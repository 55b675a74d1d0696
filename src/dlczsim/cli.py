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
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .config import Config, load_config
from .datafiles import (fmt_value, read_counts_csv, read_decay_csv,
                        write_counts_csv, write_csv, write_kv)
from .decoherence import fit_decay, motional_lifetime
from .engine import (CountsTable, TrialRecord, run_experiment,
                     trial_outcome_blocks)
from .entanglement import AngleSettings
from .errors import (DegenerateDataError, DegenerateStatisticsError,
                     FitConvergenceError, InsufficientDataError,
                     ParameterError, SchemaError)
from .estimators import (BellSettings, bell_S, correlation_E,
                         fidelity_from_S, intrinsic_retrieval_mode,
                         intrinsic_retrieval_qubit, poisson_error,
                         visibility_from_S, TWO_ROOT_TWO, same_angle)
from .params import coupling_angle, repetition_rate
from .repeater import (PRESETS, PRESET_CHI_SOURCE, sweep_distance,
                       threshold_crossing_distance)

OUTPUT_DIR_ENV = "DLCZSIM_OUT"
RECORDS_LIMIT = 1_000_000  # per-trial CSVs above this are refused
RECORDS_CHUNK = 1 << 16  # trials rendered per text chunk of --records
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
    if any(t < 0.0 for t in values):
        raise ParameterError("storage times must be >= 0")
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
            plan.append(AngleSettings.from_degrees(float(pieces[0]),
                                                   float(pieces[1])))
        except ValueError:
            raise ParameterError(f"cannot parse angle pair {part!r}")
    if not plan:
        raise ParameterError("empty angle plan")
    return plan


class _Artifacts:
    """Everything a command writes, named once: the output directory, the
    provenance base, the files in write order, the report format, and the
    closing run manifest and printed report entries."""

    def __init__(self, args, cfg: Optional[Config] = None):
        self.args = args
        self.out_name = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
        self.out = Path(self.out_name)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = args.config if cfg else "none"
        self.provenance: Dict[str, object] = {
            "command": args.command,
            "config_hash": cfg.config_hash if cfg else "none",
            "seed": getattr(args, "seed", "none"),
        }
        self.written: List[str] = []
        self.entries: Dict[str, object] = {}

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
    if args.trials <= 0:
        raise ParameterError("--trials must be > 0")
    if args.workers < 1:
        raise ParameterError("--workers must be >= 1")
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
    tails = ["".join(f",{fmt_value(v)}" for v in (
        r.storage_time, r.stokes_click or "none", r.antistokes_click or "none",
        r.pair_created)) + "\n" for r in kinds]

    def chunks():
        for first, draw in blocks:
            trials = draw()
            for lo in range(0, len(trials), RECORDS_CHUNK):
                yield "".join([f"{i}{tails[k]}" for i, k in enumerate(
                    trials[lo:lo + RECORDS_CHUNK].tolist(), start=first + lo)])

    write_csv(path, "trials",
              ("trial_index", "storage_time_s", "stokes_click",
               "antistokes_click", "pair_created"), chunks(), provenance)


def _eta_td_for_estimate(args, cfg: Optional[Config]) -> float:
    if args.eta_td is not None:
        if args.eta_td <= 0.0:
            raise ParameterError("--eta-td must be > 0")
        return args.eta_td
    if cfg is not None and cfg.chain is not None:
        return cfg.chain.eta_td
    raise ParameterError(
        "estimate needs --eta-td or a config with a 'chain' section")


def cmd_estimate(args) -> int:
    cfg = load_config(args.config) if args.config else None
    eta_td = _eta_td_for_estimate(args, cfg)
    if args.replicas < 100:
        raise ParameterError("--replicas must be >= 100")
    art = _Artifacts(args, cfg)

    digest = hashlib.sha256()
    tables: List[CountsTable] = []
    for name in args.counts:
        digest.update(Path(name).read_bytes())
        file_tables, _ = read_counts_csv(name)
        tables.extend(file_tables)
    if not tables:
        raise SchemaError("no counts rows found in the input files")
    inputs_hash = "sha256:" + digest.hexdigest()

    art.provenance.update({"inputs_hash": inputs_hash, "eta_td": eta_td,
                           "replicas": args.replicas})

    entries: Dict[str, object] = {"eta_td": eta_td}
    retrieval_rows: List[Tuple[float, float, float]] = []
    for i, tb in enumerate(tables):
        tag = f"table{i:02d}"
        entries[f"{tag}.theta_s_deg"] = math.degrees(tb.settings.theta_s)
        entries[f"{tag}.theta_as_deg"] = math.degrees(tb.settings.theta_as)
        entries[f"{tag}.storage_time_s"] = tb.storage_time
        estimators = {}
        if tb.c13 + tb.c24 + tb.c14 + tb.c23 > 0:
            estimators["E"] = correlation_E
        matched = same_angle(tb.settings.theta_s, tb.settings.theta_as,
                             tol=1e-6)
        if matched:
            estimators.update(
                r_qubit=lambda c: intrinsic_retrieval_qubit(c, eta_td),
                r_l=lambda c: intrinsic_retrieval_mode(c, "L", eta_td),
                r_r=lambda c: intrinsic_retrieval_mode(c, "R", eta_td))
        # one Poisson draw per table, shared by its estimators
        estimates = poisson_error(tuple(estimators.values()), tb,
                                  n_replicas=args.replicas, seed=args.seed)
        for name, est in zip(estimators, estimates):
            entries[f"{tag}.{name}"] = est.value
            entries[f"{tag}.{name}_sigma"] = est.sigma
        if matched:
            retrieval_rows.append((tb.storage_time, entries[f"{tag}.r_qubit"],
                                   entries[f"{tag}.r_qubit_sigma"]))

    try:
        s_est = bell_S(tables, n_replicas=args.replicas, seed=args.seed)
    except ParameterError:
        entries["s.available"] = False
    else:
        entries["s.available"] = True
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
                  ("t_seconds", "R", "sigma_R"), retrieval_rows,
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
    if not 0.0 < args.l_min < args.l_max < math.inf:
        raise ParameterError("need 0 < --l-min < --l-max, both finite")
    if args.threshold is not None and not 0.0 < args.threshold < math.inf:
        raise ParameterError("--threshold must be finite and > 0")
    art = _Artifacts(args, cfg)

    rows = []
    entries: Dict[str, object] = {}
    for label, params in curves:
        points, monotone = sweep_distance(
            params, args.l_min, args.l_max, args.steps, grid=args.grid,
            approx_multiplex=args.approx_multiplex)
        for distance, bd in points:
            rows.append((label, params.r0, distance, bd.rate, bd.t_cc,
                         bd.p0, bd.p0_multiplexed, bd.p_pr,
                         bd.stage_times[-1] if bd.stage_times else math.nan,
                         bd.underflow))
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
    p.add_argument("--seed", type=int, required=True,
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
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed of the error-bar replicas (default 0)")
    p.add_argument("counts", nargs="+", help="counts CSV files")
    p.add_argument("--eta-td", type=float, default=None,
                   help="total detection efficiency of the read-out chain")
    p.add_argument("--replicas", type=int, default=10_000,
                   help="Poisson-MC replicas for error bars")
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
    p.add_argument("--steps", type=int, default=80)
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
