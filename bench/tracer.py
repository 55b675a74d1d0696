"""Per-layer tracing of dlczsim from outside the program.

The tracer replaces public functions of ``dlczsim`` with timing wrappers in
every module namespace that binds them, so calls through names imported
with ``from ... import`` (as ``cli`` does) are traced as well as calls
inside a module (``bell_S`` -> ``poisson_error``, ``sweep_distance`` ->
``swap_chain``). Each call is a span; a layer's self time is its span's
duration minus the time of the spans nested in it. The
``iter_trial_records`` generator is wrapped so that the time spent in its
``__next__`` becomes a child span of whatever consumes it (the CSV writer).

Spans are aggregated in memory per name: inclusive time, self time, call
count, plus exact work counters (trials, replicas, bytes, rows).
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs wrapped as spans named "module.function".
SPANS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("engine", "run_experiment"),
    ("datafiles", "write_csv"),
    ("datafiles", "write_kv"),
    ("datafiles", "write_counts_csv"),
    ("datafiles", "read_counts_csv"),
    ("datafiles", "read_decay_csv"),
    ("datafiles", "read_kv"),
    ("estimators", "poisson_error"),
    ("estimators", "bell_S"),
    ("decoherence", "fit_decay"),
    ("repeater", "swap_chain"),
    ("repeater", "sweep_distance"),
    ("repeater", "threshold_crossing_distance"),
)
GENERATORS = (("engine", "iter_trial_records"),)

WRITERS = ("datafiles.write_csv", "datafiles.write_kv",
           "datafiles.write_counts_csv")
READERS = ("datafiles.read_counts_csv", "datafiles.read_decay_csv",
           "datafiles.read_kv")


class Tracer:
    """Aggregating span recorder; ``install`` wraps the functions above."""

    def __init__(self):
        self.total = defaultdict(float)      # inclusive seconds per span
        self.self_time = defaultdict(float)  # seconds minus child spans
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)       # exact work counters
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack, name, duration, child_time):
        with self._lock:
            self.total[name] += duration
            self.self_time[name] += duration - child_time
            self.calls[name] += 1
        if stack:
            stack[-1][0] += duration

    def _credit_parent(self, seconds):
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        stack = self._stack()
        if stack:
            stack[-1][0] += seconds

    def _wrap(self, name, fn, hook=None):
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self._close(stack, name, duration, frame[0])
            if hook is not None:
                start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
                self._credit_parent(time.perf_counter() - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn, count_key):
        def wrapper(*args, **kwargs):
            return self._timed_iter(name, fn(*args, **kwargs), count_key)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_iter(self, name, gen, count_key):
        while True:
            stack = self._stack()
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                self._close(stack, name, time.perf_counter() - start, 0.0)
                return
            self._close(stack, name, time.perf_counter() - start, 0.0)
            self.counts[count_key] += 1
            yield item

    # -- counters ---------------------------------------------------------

    def _count_trials(self, args, result):
        self.counts["engine.trials"] += (args["n_trials_per_setting"]
                                         * len(args["angle_list"]))

    def _count_replicas(self, args, result):
        self.counts["estimators.replicas"] += args["n_replicas"]

    def _count_underflow(self, args, result):
        points, _monotone = result
        self.counts["repeater.underflow_points"] += sum(
            1 for _distance, bd in points if bd.underflow)

    def _count_written(self, header_rows):
        def hook(args, result):
            data = Path(args["path"]).read_bytes()
            comments = data.count(b"\n#") + data.startswith(b"#")
            self.counts["datafiles.bytes_written"] += len(data)
            self.counts["datafiles.rows_written"] += (
                data.count(b"\n") - comments - header_rows)
        return hook

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every listed function in every loaded dlczsim namespace."""
        hooks = {
            "engine.run_experiment": self._count_trials,
            "estimators.poisson_error": self._count_replicas,
            "repeater.sweep_distance": self._count_underflow,
            "datafiles.write_csv": self._count_written(header_rows=1),
            "datafiles.write_kv": self._count_written(header_rows=0),
        }
        replacements = {}
        for module, func in SPANS:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"dlczsim.{module}"], func)
            replacements[id(original)] = self._wrap(name, original,
                                                    hooks.get(name))
        for module, func in GENERATORS:
            original = getattr(sys.modules[f"dlczsim.{module}"], func)
            replacements[id(original)] = self._wrap_generator(
                f"{module}.{func}", original, "engine.records")

        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "dlczsim" or key.startswith("dlczsim.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def report(self):
        """Per-layer totals of one pass, keyed by benchmark metric name."""
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        return {
            "engine.run_experiment_s": t["engine.run_experiment"],
            "engine.trials": c["engine.trials"],
            "engine.records_s": t["engine.iter_trial_records"],
            "engine.records": c["engine.records"],
            "datafiles.write_s": sum(s[name] for name in WRITERS),
            "datafiles.bytes_written": c["datafiles.bytes_written"],
            "datafiles.rows_written": c["datafiles.rows_written"],
            "datafiles.read_s": sum(t[name] for name in READERS),
            "estimators.poisson_error_s": t["estimators.poisson_error"],
            "estimators.poisson_error_calls": n["estimators.poisson_error"],
            "estimators.replicas": c["estimators.replicas"],
            "estimators.bell_S_s": t["estimators.bell_S"],
            "decoherence.fit_decay_s": t["decoherence.fit_decay"],
            "decoherence.fit_calls": n["decoherence.fit_decay"],
            "repeater.swap_chain_s": t["repeater.swap_chain"],
            "repeater.swap_chain_calls": n["repeater.swap_chain"],
            "repeater.sweep_distance_s": t["repeater.sweep_distance"],
            "repeater.threshold_crossing_s":
                t["repeater.threshold_crossing_distance"],
            "repeater.underflow_points": c["repeater.underflow_points"],
            "cli.self_s": s["cli.main"],
            "cli.commands": n["cli.main"],
            "config.load_config_s": t["config.load_config"],
        }
