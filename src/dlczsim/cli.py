"""Command-line interface: simulate, estimate, fit-decay, lifetime, budget,
repeater-sweep.

Exit codes: 0 success, 2 validation error (parameters, config, schema),
3 numeric failure (fit, degenerate statistics), 4 I/O error. Outputs are
deterministic for a fixed (config, seed): no timestamps, no worker-count
dependence.
"""

from __future__ import annotations

import argparse
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
# Version of the engine's random streams, recorded in simulate provenance:
# v2 samples one uniform per trial from the exact outcome table.
STREAM_VERSION = "v2"

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


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _base_provenance(command: str, config_hash: str, seed) -> Dict[str, object]:
    return {"command": command, "config_hash": config_hash, "seed": seed}


def _write_manifest(out: Path, command: str, args, config_hash: str, seed,
                    extra: Dict[str, object]) -> Path:
    entries: Dict[str, object] = {
        "command": command,
        "config_path": getattr(args, "config", None) or "none",
        "config_hash": config_hash,
        "seed": seed,
        "output_dir": str(args.out or os.environ.get(OUTPUT_DIR_ENV) or "."),
        "version": __version__,
    }
    entries.update(extra)
    path = out / "run_manifest.kv"
    write_kv(path, "manifest", entries, {})
    return path


def _write_report(out: Path, name: str, kind: str, fmt: str,
                  entries: Dict[str, object],
                  provenance: Dict[str, object]) -> Path:
    if fmt == "kv":
        path = out / f"{name}.kv"
        write_kv(path, kind, entries, provenance)
    else:
        path = out / f"{name}.csv"
        write_csv(path, kind, ("quantity", "value"),
                  list(entries.items()), provenance)
    return path


def _finish(out: Path, command: str, args, config_hash: str, seed,
            extra: Dict[str, object], entries: Dict[str, object]) -> int:
    """Write the run manifest, then print the report entries."""
    _write_manifest(out, command, args, config_hash, seed, extra)
    for key, value in entries.items():
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
    t_list = parse_t_list(args.t)
    plan = parse_angle_plan(args.angles)
    if args.records and args.trials > RECORDS_LIMIT:
        raise ParameterError(
            f"--records supports at most {RECORDS_LIMIT} trials per setting")
    out = _out_dir(args)

    outputs = []
    wall_total = 0.0
    for ti, t in enumerate(t_list):
        result = run_experiment(params, timing, t, plan, args.trials,
                                args.seed, workers=args.workers,
                                double_pair=cfg.double_pair, run_tag=ti)
        wall_total += result.wall_time
        for ai, table in enumerate(result.tables):
            prov = _base_provenance("simulate", cfg.config_hash, args.seed)
            prov.update({
                "run_tag": ti, "setting_index": ai,
                "t_seconds": t,
                "theta_s_deg": math.degrees(table.settings.theta_s),
                "theta_as_deg": math.degrees(table.settings.theta_as),
                "trials": args.trials,
                "double_pair": cfg.double_pair,
                "stream": STREAM_VERSION,
            })
            path = out / f"counts_t{ti:02d}_a{ai:02d}.csv"
            write_counts_csv(path, [table], prov)
            outputs.append(path.name)
            if args.records:
                rec_path = out / f"trials_t{ti:02d}_a{ai:02d}.csv"
                _write_records(rec_path, params, t, table.settings,
                               args.trials, args.seed, ti, ai,
                               cfg.double_pair, prov)
                outputs.append(rec_path.name)

    _write_manifest(out, "simulate", args, cfg.config_hash, args.seed, {
        "trials_per_setting": args.trials,
        "storage_times_s": ",".join(fmt_value(t) for t in t_list),
        "angle_plan": args.angles,
        "trial_rate_per_s": repetition_rate(timing),
        "simulated_wall_time_s": wall_total,
        "outputs": ",".join(outputs),
    })
    print(f"simulate: wrote {len(outputs)} file(s) to {out} "
          f"(simulated wall time {fmt_value(wall_total)} s)")
    return EXIT_OK


def _write_records(path, params, t, angles, n_trials, seed, run_tag,
                   setting_index, double_pair, provenance) -> None:
    """Per-trial CSV, one text chunk per RNG block: each row is the trial
    index followed by the pre-rendered cells of the trial's outcome."""
    outcomes, blocks = trial_outcome_blocks(
        params, t, angles, n_trials, seed, setting_index=setting_index,
        double_pair=double_pair, run_tag=run_tag)
    kinds = (TrialRecord.from_outcome(0, t, o) for o in outcomes)
    tails = ["".join(f",{fmt_value(v)}" for v in (
        r.storage_time, r.stokes_click or "none", r.antistokes_click or "none",
        r.pair_created)) + "\n" for r in kinds]
    chunks = ("".join([f"{i}{tails[k]}"
                       for i, k in enumerate(draw().tolist(), start=first)])
              for first, draw in blocks)
    write_csv(path, "trials",
              ("trial_index", "storage_time_s", "stokes_click",
               "antistokes_click", "pair_created"), chunks, provenance)


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
    out = _out_dir(args)

    digest = hashlib.sha256()
    tables: List[CountsTable] = []
    for name in args.counts:
        digest.update(Path(name).read_bytes())
        file_tables, _ = read_counts_csv(name)
        tables.extend(file_tables)
    if not tables:
        raise SchemaError("no counts rows found in the input files")
    inputs_hash = "sha256:" + digest.hexdigest()

    prov = _base_provenance("estimate",
                            cfg.config_hash if cfg else "none", args.seed)
    prov.update({"inputs_hash": inputs_hash, "eta_td": eta_td,
                 "replicas": args.replicas})

    entries: Dict[str, object] = {"eta_td": eta_td}
    retrieval_rows: List[Tuple[float, float, float]] = []
    for i, tb in enumerate(tables):
        tag = f"table{i:02d}"
        entries[f"{tag}.theta_s_deg"] = math.degrees(tb.settings.theta_s)
        entries[f"{tag}.theta_as_deg"] = math.degrees(tb.settings.theta_as)
        entries[f"{tag}.storage_time_s"] = tb.storage_time
        total_coinc = tb.c13 + tb.c24 + tb.c14 + tb.c23
        if total_coinc > 0:
            e_est = poisson_error(correlation_E, tb,
                                  n_replicas=args.replicas, seed=args.seed)
            entries[f"{tag}.E"] = e_est.value
            entries[f"{tag}.E_sigma"] = e_est.sigma
        if same_angle(tb.settings.theta_s, tb.settings.theta_as, tol=1e-6):
            retrieval = (
                ("r_qubit", lambda c: intrinsic_retrieval_qubit(c, eta_td)),
                ("r_l", lambda c: intrinsic_retrieval_mode(c, "L", eta_td)),
                ("r_r", lambda c: intrinsic_retrieval_mode(c, "R", eta_td)))
            for name, estimator in retrieval:
                est = poisson_error(estimator, tb, n_replicas=args.replicas,
                                    seed=args.seed)
                entries[f"{tag}.{name}"] = est.value
                entries[f"{tag}.{name}_sigma"] = est.sigma
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

    outputs = []
    report = _write_report(out, "estimates", "estimates", args.format,
                           entries, prov)
    outputs.append(report.name)
    if retrieval_rows:
        retrieval_rows.sort(key=lambda row: row[0])
        path = out / "retrieval.csv"
        write_csv(path, "decay-samples", ("t_seconds", "R", "sigma_R"),
                  retrieval_rows, prov)
        outputs.append(path.name)

    return _finish(out, "estimate", args,
                   cfg.config_hash if cfg else "none", args.seed, {
                       "inputs_hash": inputs_hash,
                       "inputs": ",".join(args.counts),
                       "outputs": ",".join(outputs),
                   }, entries)


def cmd_fit_decay(args) -> int:
    samples = read_decay_csv(args.data)
    decay, residual = fit_decay(samples)
    out = _out_dir(args)
    prov = _base_provenance("fit-decay", "none", "none")
    prov["inputs"] = args.data
    entries = {
        "r0": decay.r0,
        "tau0_s": decay.tau0,
        "residual": residual,
        "n_samples": len(samples),
    }
    report = _write_report(out, "decay_fit", "decay-fit", args.format,
                           entries, prov)
    return _finish(out, "fit-decay", args, "none", "none",
                   {"inputs": args.data, "outputs": report.name}, entries)


def cmd_lifetime(args) -> int:
    cfg = _load_required_config(args)
    geometry = _require(cfg.geometry, "geometry")
    theta = coupling_angle(geometry)
    tau = motional_lifetime(geometry)
    out = _out_dir(args)
    entries = {
        "coupling_angle_rad": theta,
        "coupling_angle_deg": math.degrees(theta),
        "motional_lifetime_s": tau,
    }
    prov = _base_provenance("lifetime", cfg.config_hash, "none")
    report = _write_report(out, "lifetime", "lifetime", args.format,
                           entries, prov)
    return _finish(out, "lifetime", args, cfg.config_hash, "none",
                   {"outputs": report.name}, entries)


def cmd_budget(args) -> int:
    cfg = _load_required_config(args)
    chain = _require(cfg.chain, "chain")
    out = _out_dir(args)
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
    prov = _base_provenance("budget", cfg.config_hash, "none")
    report = _write_report(out, "budget", "budget", args.format, entries,
                           prov)
    return _finish(out, "budget", args, cfg.config_hash, "none",
                   {"outputs": report.name}, entries)


def cmd_repeater_sweep(args) -> int:
    if args.preset:
        if args.preset not in PRESETS:
            raise ParameterError(f"unknown preset {args.preset!r}")
        curves = PRESETS[args.preset]
        config_hash = "none"
        chi_source = PRESET_CHI_SOURCE
    else:
        cfg = _load_required_config(args)
        curves = (("config", _require(cfg.repeater, "repeater")),)
        config_hash = cfg.config_hash
        chi_source = "config"
    if not 0.0 < args.l_min < args.l_max:
        raise ParameterError("need 0 < --l-min < --l-max")
    out = _out_dir(args)

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

    prov = _base_provenance("repeater-sweep", config_hash, "none")
    prov.update({"chi_source": chi_source, "grid": args.grid,
                 "l_min_m": args.l_min, "l_max_m": args.l_max,
                 "steps": args.steps,
                 "approx_multiplex": args.approx_multiplex})
    sweep_path = out / "repeater_sweep.csv"
    write_csv(sweep_path, "repeater-sweep",
              ("curve", "r0", "distance_m", "rate_per_s", "t_cc_s", "p0",
               "p0_multiplexed", "p_pr", "t_final_s", "underflow"),
              rows, prov)
    report = _write_report(out, "repeater_summary", "repeater-summary",
                           args.format, entries, prov)
    return _finish(out, "repeater-sweep", args, config_hash, "none", {
        "preset": args.preset or "none",
        "chi_source": chi_source,
        "outputs": ",".join([sweep_path.name, report.name]),
    }, entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlczsim",
        description="Photon-counting simulator and analytic toolkit for "
                    "cavity-enhanced atom-photon entanglement memories.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed_default=None, seed_required=False):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", help=f"output directory (default: "
                       f"${OUTPUT_DIR_ENV} or '.')")
        p.add_argument("--format", choices=("kv", "csv"), default="kv",
                       help="report format (default kv)")
        if seed_required:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (required for reproducible runs)")
        else:
            p.add_argument("--seed", type=int, default=seed_default)

    p = sub.add_parser("simulate", help="run the Monte Carlo engine")
    common(p, seed_required=True)
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
    common(p, seed_default=0)
    p.add_argument("counts", nargs="+", help="counts CSV files")
    p.add_argument("--eta-td", type=float, default=None,
                   help="total detection efficiency of the read-out chain")
    p.add_argument("--replicas", type=int, default=10_000,
                   help="Poisson-MC replicas for error bars")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fit-decay", help="fit the retrieval decay model")
    common(p)
    p.add_argument("data", help="CSV with t_seconds,R[,sigma_R]")
    p.set_defaults(func=cmd_fit_decay)

    p = sub.add_parser("lifetime", help="motional-decoherence lifetime")
    common(p)
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("budget", help="detection-chain efficiency budget")
    common(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("repeater-sweep", help="repeater rate vs distance")
    common(p)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named parameter preset (overrides --config)")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InsufficientDataError, DegenerateDataError,
            DegenerateStatisticsError, FitConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParameterError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
