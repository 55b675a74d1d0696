#!/usr/bin/env python3
"""dlczsim benchmark driver.

    python3 bench/run.py --workload chsh --seed 1 --seconds 35 --trace 0

Runs passes of one workload until ``--seconds`` of measuring have passed.
Each pass is a fresh child interpreter (``bench/child.py``) that imports
``dlczsim`` from this checkout's ``src/`` and runs every command of the
workload through ``dlczsim.cli.main(argv)``. The driver generates all
inputs from ``--seed``, checks every command's outputs, hashes the
deterministic artifacts of each pass, and prints every metric by name with
its unit and sample count. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced passes, with the tracing overhead (traced minus untraced wall time).

The end-to-end times are normalized to the host's speed. A shared 2-vCPU
host ran the same code up to twice as slow from one minute to the next, in
CPU time as well as wall time. So each block of commands is timed against a
fixed reference kernel run right before and right after it (``child.py``):
its normalized time is ``REF_NOMINAL_S`` times its ratio to the mean of the
two kernel runs. Set-up is timed against a reference start-up (a fresh
interpreter importing numpy) spawned just before the child, and scaled by
``REF_STARTUP_NOMINAL_S``. The raw and reference times are per-layer
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0   # every child is stopped by then
PASS_LIMIT_S = 140.0  # no pass starts after this
MIN_PASSES = 3        # per kind of pass (untraced, traced)
MAX_WORKERS = 2
# About the reference kernel and reference start-up times on a quiet 2-vCPU
# Xeon host; they only scale the normalized times to read as seconds there.
REF_NOMINAL_S = 0.02
REF_STARTUP_NOMINAL_S = 0.15
# The reference start-up: a fresh interpreter importing numpy, which is most
# of what importing dlczsim costs.
REF_STARTUP = "import time, numpy; print(time.monotonic())"
# Sidecars that record how a run went rather than what it computed.
NON_DETERMINISTIC = {"run_stats.json"}

END_TO_END = {  # name -> unit
    "wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.run_experiment_s": "s", "engine.trials": "count",
    "engine.trials_per_s": "1/s",
    "engine.records_s": "s", "engine.records": "count",
    "datafiles.write_s": "s", "datafiles.bytes_written": "bytes",
    "datafiles.rows_written": "count", "datafiles.read_s": "s",
    "estimators.poisson_error_s": "s",
    "estimators.poisson_error_calls": "count",
    "estimators.replicas": "count", "estimators.replicas_per_s": "1/s",
    "estimators.bell_S_s": "s",
    "decoherence.fit_decay_s": "s", "decoherence.fit_calls": "count",
    "repeater.swap_chain_s": "s", "repeater.swap_chain_calls": "count",
    "repeater.sweep_distance_s": "s", "repeater.threshold_crossing_s": "s",
    "repeater.underflow_points": "count",
    "cli.self_s": "s", "cli.commands": "count", "config.load_config_s": "s",
    "trace.overhead_s": "s", "trials_per_s": "1/s", "evals_per_s": "1/s",
    "cmd.simulate_s": "s", "cmd.estimate_s": "s", "cmd.fit_decay_s": "s",
    "cmd.repeater_sweep_s": "s",
    "raw.wall_s": "s", "raw.cpu_s": "s", "raw.setup_s": "s",
    "ref.kernel_s": "s", "ref.startup_s": "s",
}
COMMAND_KINDS = ("simulate", "estimate", "fit-decay", "repeater-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes run until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    return parser.parse_args(argv)


class ChildFailed(Exception):
    pass


def time_startup(work: Path, env, deadline: float) -> float:
    """Seconds from spawning the reference start-up until it is ready."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-c", REF_STARTUP], cwd=work,
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed("reference start-up timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"reference start-up exited {proc.returncode}")
    return float(proc.stdout) - spawned


def run_child(work: Path, commands, setup_config: str, traced: bool,
              deadline: float):
    """Run one child; return (result dict, set-up seconds, seconds of the
    reference start-up run just before it)."""
    spec = work / "spec.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec.write_text(json.dumps({
        "src": str(SRC), "setup_config": setup_config, "trace": traced,
        "commands": commands, "result": str(result_path)}), encoding="utf-8")
    env = dict(os.environ)
    env.pop("DLCZSIM_OUT", None)
    startup = time_startup(work, env, deadline)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec)],
            cwd=work, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise ChildFailed("child timed out")
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-600:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, result["ready_monotonic"] - spawned, startup


def tree_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name in NON_DETERMINISTIC:
            continue
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_pass(work: Path, plan: workloads.Workload, traced: bool,
             deadline: float, checked: dict):
    """Run one pass. ``checked`` caches output check messages by artifact
    digest and failed commands: byte-identical artifacts pass or fail the
    same checks, so each distinct outcome is checked once per run."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    commands = [(step.kind, step.argv) for step in plan.steps]
    result, setup, startup = run_child(work, commands, plan.setup_config,
                                       traced, deadline)
    digest = tree_digest(out)
    errors, exited = [], set()
    for i, (step, cmd) in enumerate(zip(plan.steps, result["commands"])):
        if cmd["rc"] != 0:
            exited.add(i)
            errors.append(f"{' '.join(step.argv)}: exit {cmd['rc']}: "
                          f"{cmd['stderr'].strip()}")
    key = (digest, frozenset(exited))
    if key not in checked:
        checked[key] = []
        for i, step in enumerate(plan.steps):
            if step.check is None or i in exited:
                continue
            try:
                message = step.check(work)
            except Exception as exc:  # a malformed artifact fails the step
                message = f"output check raised {type(exc).__name__}: {exc}"
            if message:
                checked[key].append(f"{' '.join(step.argv)}: {message}")
    errors += checked[key]
    by_kind = dict.fromkeys(COMMAND_KINDS, 0.0)
    for cmd in result["commands"]:
        by_kind[cmd["kind"]] += cmd["wall_s"]
    refs, blocks = result["refs"], result["blocks"]
    # Each block against the mean of the kernel runs on either side of it.
    block_refs = [(before + after) / 2 for before, after in zip(refs, refs[1:])]
    return {
        "traced": traced,
        "wall_norm_s": REF_NOMINAL_S * sum(
            wall / ref for (wall, _), ref in zip(blocks, block_refs)),
        "cpu_norm_s": REF_NOMINAL_S * sum(
            cpu / ref for (_, cpu), ref in zip(blocks, block_refs)),
        "setup_s": REF_STARTUP_NOMINAL_S * setup / startup,
        "raw.wall_s": sum(wall for wall, _ in blocks),
        "raw.cpu_s": sum(cpu for _, cpu in blocks),
        "raw.setup_s": setup,
        "ref.kernel_s": statistics.median(refs),
        "ref.startup_s": startup,
        "peak_rss_mb": result["peak_rss_mb"],
        "errors": errors, "digest": digest, "by_kind": by_kind,
        "layers": result["layers"], "numpy": result["numpy"],
    }


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment(numpy_version: str) -> dict:
    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3") and _read(index / "type") != "Instruction":
            caches[f"l{level}"] = _read(index / "size")
    return {"nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "l2": caches.get("l2", "unknown"),
            "l3": caches.get("l3", "unknown"),
            "python": sys.version.split()[0], "numpy": numpy_version}


def end_to_end_metrics(passes):
    return {name: (statistics.median(p[name] for p in passes), len(passes))
            for name in END_TO_END}


def per_layer_metrics(untraced, traced, plan):
    metrics = {}
    layers = [p["layers"] for p in traced]
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = (statistics.median(values), len(values))
    for rate, count, seconds in (
            ("engine.trials_per_s", "engine.trials",
             "engine.run_experiment_s"),
            ("estimators.replicas_per_s", "estimators.replicas",
             "estimators.poisson_error_s")):
        values = [layer[count] / layer[seconds] for layer in layers]
        metrics[rate] = (statistics.median(values), len(values))
    wall_untraced = statistics.median(p["wall_norm_s"] for p in untraced)
    wall_traced = statistics.median(p["wall_norm_s"] for p in traced)
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced,
                                   len(traced) + len(untraced))
    metrics["trials_per_s"] = (plan.trials / wall_untraced, len(untraced))
    metrics["evals_per_s"] = (plan.evals / wall_untraced, len(untraced))
    for kind in COMMAND_KINDS:
        metrics[f"cmd.{kind.replace('-', '_')}_s"] = (
            statistics.median(p["by_kind"][kind] for p in untraced),
            len(untraced))
    for name in ("raw.wall_s", "raw.cpu_s", "raw.setup_s", "ref.kernel_s",
                 "ref.startup_s"):
        metrics[name] = (statistics.median(p[name] for p in untraced),
                         len(untraced))
    return metrics


def exact_counts_repeat(traced) -> bool:
    """Work counters of the traced passes must not vary between passes."""
    counters = [{k: v for k, v in p["layers"].items()
                 if PER_LAYER[k] in ("count", "bytes")} for p in traced]
    return all(c == counters[0] for c in counters)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "dlczsim" / "cli.py").is_file():
        print(f"error: no dlczsim sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, started, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, started: float, deadline: float) -> int:
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    plan = workloads.WORKLOADS[args.workload](
        work, args.seed, workloads.SIZES[args.size], workers)

    # Warm the page cache and bytecode cache; not measured.
    try:
        warm, _, _ = run_child(work, [], plan.setup_config, False, deadline)
    except ChildFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    kinds = [False, True] if args.trace else [False]
    passes, attempted, failures, checked = [], 0, [], {}
    measure_start = time.monotonic()
    while True:
        now = time.monotonic()
        enough = (now - measure_start >= args.seconds and all(
            sum(p["traced"] == k for p in passes) >= MIN_PASSES
            for k in kinds))
        if enough or now - started > PASS_LIMIT_S:
            break
        traced = kinds[len(passes) % len(kinds)]
        attempted += len(plan.steps)
        try:
            result = run_pass(work, plan, traced, deadline, checked)
        except ChildFailed as exc:
            failures.extend([f"pass {len(passes)}: {exc}"] * len(plan.steps))
            break
        passes.append(result)
        failures.extend(result["errors"])

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        for message in failures[:5]:
            print(f"failed: {message}", file=sys.stderr)
        print("error: no complete pass to report", file=sys.stderr)
        return 1

    deterministic = len({p["digest"] for p in passes}) == 1
    counts_repeat = not traced or exact_counts_repeat(traced)
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, plan)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced)
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(plan.steps)} commands each")
    for message in failures:
        print(f"failed: {message}")
    if not deterministic:
        print("failed: artifact hashes differ between passes: "
              + ", ".join(p["digest"][:12] for p in passes))
    if not counts_repeat:
        print("failed: exact per-layer counts differ between passes")
    for p in passes:
        print(f"  pass {'traced' if p['traced'] else 'untraced':<8} "
              f"wall {p['wall_norm_s']:.4f} s, cpu {p['cpu_norm_s']:.4f} s, "
              f"set-up {p['setup_s']:.4f} s normalized; wall "
              f"{p['raw.wall_s']:.4f} s, set-up {p['raw.setup_s']:.4f} s, "
              f"kernel {p['ref.kernel_s']:.4f} s, start-up "
              f"{p['ref.startup_s']:.4f} s raw")
    for name, (value, n) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]:<6} n={n}")
    env = environment(warm["numpy"])
    env.update(seed=args.seed, workload=args.workload, size=args.size,
               workers=workers, untraced_passes=len(untraced),
               traced_passes=len(traced), artifact_digest=passes[0]["digest"],
               trace_overhead_s=(metrics["trace.overhead_s"][0]
                                 if args.trace else None))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failures and deterministic and counts_repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
