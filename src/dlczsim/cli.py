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
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .config import Config, load_config
from .datafiles import (DECAY_COLUMNS, DECAY_SIGMA_COLUMN, fmt_value,
                        read_counts_csv, read_decay_csv, write_counts_csv,
                        write_csv, write_kv, write_records_csv)
from .decoherence import fit_decay
from .engine import (RECORDS_LIMIT, STREAM_VERSION, TRIALS_MAX,
                     run_experiment, trial_outcomes)
from .entanglement import CHSH_SETTINGS, AngleSettings
from .errors import (DegenerateDataError, DegenerateStatisticsError,
                     FitConvergenceError, InsufficientDataError,
                     ParameterError, SchemaError, check_in)
from .estimators import (estimate_tables, fidelity_from_S, visibility_from_S,
                         REPLICAS_MAX, TWO_ROOT_TWO)
from .params import (CountsTable, coupling_angle, motional_lifetime,
                     repetition_rate, simulated_wall_time)
from .repeater import (PRESETS, PRESET_CHI_SOURCE, SWEEP_MAX_STEPS,
                       sweep_distance, threshold_crossing_distance)

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
        return list(CHSH_SETTINGS)
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


class _Artifacts:
    """Everything a command writes, named once: the output directory, the
    provenance base, the files in write order, and the closing run
    manifest and printed report entries."""

    def __init__(self, args, cfg: Optional[Config] = None):
        self.out_name = args.out
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
        """The command's report, ``<name>.kv``; its entries are also
        printed by :meth:`finish`."""
        self.entries = entries
        write_kv(self.path(f"{name}.kv"), kind, entries, self.provenance)

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


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = _require(cfg.experiment, "experiment")
    timing = _require(cfg.timing, "timing")
    check_in("--workers", args.workers, "[1, inf)")
    check_in("--trials", args.trials, f"[1, {TRIALS_MAX}]")
    t_list = parse_t_list(args.t)
    plan = parse_angle_plan(args.angles)
    if args.records and args.trials > RECORDS_LIMIT:
        raise ParameterError(
            f"--records supports at most {RECORDS_LIMIT} trials per setting")
    wall_total = 0.0  # checked before any file is written
    for _ in t_list:
        wall_total += simulated_wall_time(timing, args.trials * len(plan))
    if not math.isfinite(wall_total):
        raise OverflowError(f"simulated wall time {wall_total!r} s is not "
                            "a finite float")
    art = _Artifacts(args, cfg)

    for ti, t in enumerate(t_list):
        tables = run_experiment(params, t, plan, args.trials, args.seed,
                                double_pair=cfg.double_pair, run_tag=ti)
        for ai, table in enumerate(tables):
            theta_s_deg, theta_as_deg = table.settings.degrees
            prov = {
                **art.provenance, "run_tag": ti, "setting_index": ai,
                "t_seconds": t,
                "theta_s_deg": theta_s_deg, "theta_as_deg": theta_as_deg,
                "trials": args.trials,
                "double_pair": cfg.double_pair,
                "stream": STREAM_VERSION,
            }
            write_counts_csv(art.path(f"counts_t{ti:02d}_a{ai:02d}.csv"),
                             [table], prov)
            if args.records:
                outcomes, trials = trial_outcomes(
                    params, t, table.settings, args.trials, args.seed,
                    setting_index=ai, double_pair=cfg.double_pair, run_tag=ti)
                write_records_csv(art.path(f"trials_t{ti:02d}_a{ai:02d}.csv"),
                                  outcomes, trials, prov)

    art.finish(trials_per_setting=args.trials,
               storage_times_s=",".join(fmt_value(t) for t in t_list),
               angle_plan=args.angles,
               trial_rate_per_s=repetition_rate(timing),
               simulated_wall_time_s=wall_total)
    print(f"simulate: wrote {len(art.written)} file(s) to {art.out} "
          f"(simulated wall time {fmt_value(wall_total)} s)")
    return EXIT_OK


def _eta_td_for_estimate(args, cfg: Optional[Config]) -> float:
    if args.eta_td is not None:
        check_in("--eta-td", args.eta_td, "(0, 1]")
        return args.eta_td
    if cfg is not None and cfg.chain is not None:
        return cfg.chain.eta_td
    raise ParameterError(
        "estimate needs --eta-td or a config with a 'chain' section")


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

    results = estimate_tables(tables, eta_td, n_replicas=args.replicas,
                              seed=args.seed)
    per_table = [{} for _ in tables]
    for (i, name), est in results.items():
        if i is not None:
            per_table[i][name] = est

    entries: Dict[str, object] = {"eta_td": eta_td}
    retrieval_rows: List[Tuple[float, float, float]] = []
    for i, (tb, estimates) in enumerate(zip(tables, per_table)):
        tag = f"table{i:02d}"
        entries[f"{tag}.theta_s_deg"], entries[f"{tag}.theta_as_deg"] = (
            tb.settings.degrees)
        entries[f"{tag}.storage_time_s"] = tb.storage_time
        for name, est in estimates.items():
            entries[f"{tag}.{name}"] = est.value
            entries[f"{tag}.{name}_sigma"] = est.sigma
        r = estimates.get("r_qubit")
        if r is not None and r.sigma > 0:  # fit-decay weights by 1/sigma^2
            retrieval_rows.append((tb.storage_time, r.value, r.sigma))

    chsh = entries["s.available"] = (None, "S") in results
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
    cfg = load_config(args.config)
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
    cfg = load_config(args.config)
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
        cfg = load_config(args.config)
        curves = (("config", _require(cfg.repeater, "repeater")),)
        chi_source = "config"
    if args.threshold is not None:
        check_in("--threshold", args.threshold, "(0, inf)")

    rows = []  # rendered as fmt_value renders them: a float as its repr
    entries: Dict[str, object] = {}
    for label, params in curves:
        points, monotone = sweep_distance(params, args.l_min, args.l_max,
                                          args.steps)
        head = f"{label},{params.r0!r}"
        for distance, (t_cc, p0, p0_n, _, stages, p_pr, rate,
                       underflow) in points:
            t_final = stages[-1] if stages else math.nan
            rows.append(
                f"{head},{distance!r},{rate!r},{t_cc!r},{p0!r},{p0_n!r},"
                f"{p_pr!r},{t_final!r},{fmt_value(underflow)}\n")
        entries[f"{label}.r0"] = params.r0
        entries[f"{label}.chi"] = params.chi
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
    art.provenance.update({"chi_source": chi_source,
                           "l_min_m": args.l_min, "l_max_m": args.l_max,
                           "steps": args.steps})
    write_csv(art.path("repeater_sweep.csv"), "repeater-sweep",
              ("curve", "r0", "distance_m", "rate_per_s", "t_cc_s", "p0",
               "p0_multiplexed", "p_pr", "t_final_s", "underflow"),
              rows, art.provenance)
    art.report("repeater_summary", "repeater-summary", entries)
    return art.finish(preset=args.preset or "none", chi_source=chi_source)


class _Parser(argparse.ArgumentParser):
    """A parser whose faults raise :class:`ParameterError` for :func:`main`
    to report, prefixed by the (sub)command's ``prog``."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dlczsim",
        description="Photon-counting simulator and analytic toolkit for "
                    "cavity-enhanced atom-photon entanglement memories.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config="required"):
        """Add --out and --config: "required", "optional", None, or (an
        argument group) the group to add it to."""
        if config:
            (p if isinstance(config, str) else config).add_argument(
                "--config", required=config == "required",
                help="key = value configuration file")
        p.add_argument("--out", default=".",
                       help="output directory (default: '.')")

    p = sub.add_parser("simulate", help="run the Monte Carlo engine")
    common(p)
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
    common(p, config="optional")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed of the error-bar replicas (default 0)")
    p.add_argument("counts", nargs="+", help="counts CSV files")
    p.add_argument("--eta-td", type=float, default=None,
                   help="total detection efficiency of the read-out chain")
    p.add_argument("--replicas", type=int, default=10_000,
                   help=f"Poisson-MC replicas for error bars, 100 to "
                   f"{REPLICAS_MAX}")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fit-decay", help="fit the retrieval decay model")
    common(p, config=None)
    p.add_argument("data", help="CSV with t_seconds,R[,sigma_R]")
    p.set_defaults(func=cmd_fit_decay)

    p = sub.add_parser("lifetime", help="motional-decoherence lifetime")
    common(p)
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("budget", help="detection-chain efficiency budget")
    common(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("repeater-sweep", help="repeater rate vs distance")
    source = p.add_mutually_exclusive_group(required=True)
    common(p, config=source)
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter preset (excludes --config)")
    p.add_argument("--l-min", type=float, default=1e5,
                   help="sweep start distance, m (default 1e5)")
    p.add_argument("--l-max", type=float, default=2e6,
                   help="sweep end distance, m (default 2e6)")
    p.add_argument("--steps", type=int, default=80,
                   help=f"log-spaced distance grid points, 2 to "
                        f"{SWEEP_MAX_STEPS} (default 80)")
    p.add_argument("--threshold", type=float, default=None,
                   help="also report the crossing distance for this rate")
    p.set_defaults(func=cmd_repeater_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first :func:`main` call of a process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a failure prints one ``error:`` line and returns
    its exit code. ``--help`` and ``--version`` exit 0 by ``SystemExit``."""
    try:
        for arg in sys.argv[1:] if argv is None else argv:
            try:
                arg.encode("utf-8")  # os.fsdecode maps bad bytes to surrogates
            except UnicodeEncodeError:
                raise ParameterError(
                    f"dlczsim: argument {arg!r} is not UTF-8") from None
        args, extras = _parser().parse_known_args(argv)
        if extras:  # argparse reports them under the top-level prog
            raise ParameterError(f"dlczsim {args.command}: unrecognized "
                                 f"arguments: {' '.join(extras)}")
        return args.func(args)
    except (InsufficientDataError, DegenerateDataError,
            DegenerateStatisticsError, FitConvergenceError) as exc:
        code, message = EXIT_NUMERIC, exc
    except ArithmeticError as exc:  # overflow, division by zero
        code = EXIT_NUMERIC
        message = f"numeric failure ({type(exc).__name__}: {exc})"
    except (ParameterError, SchemaError) as exc:
        code, message = EXIT_VALIDATION, exc
    except OSError as exc:
        code, message = EXIT_IO, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
