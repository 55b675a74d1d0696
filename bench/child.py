"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the checkout's ``src`` directory, a config to parse during
set-up, whether to trace, the CLI commands of the pass and where to write
the result. Set-up ends once ``dlczsim.cli`` is imported and the config is
parsed; the child records that instant on the system-wide monotonic clock
so the parent can time set-up from the moment it spawned the child. Each
command then runs through ``dlczsim.cli.main(argv)`` in this process.

The commands run in blocks of at least ``BLOCK_S`` wall seconds. A fixed
pure-Python reference kernel is timed right after set-up and after every
block, so the parent can express each block's time in units of the host's
speed at that moment (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water resident set of this process image. ``ru_maxrss`` would
    also count the parent's memory, which Linux carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Commands run in blocks of at least this much wall time, with the
# reference kernel timed before the first block and after every block.
BLOCK_S = 0.25
REF_LOOPS = 2_000


def reference_kernel() -> float:
    """A fixed load of the kinds of work the CLI does: pure-Python float
    math and formatting, small-array numpy calls, and object churn."""
    import numpy as np  # not at module level: set-up must not pay for it
    t = np.linspace(0.0, 1.0, 12)
    acc, table, rows = 0.0, {}, []
    for i in range(REF_LOOPS):
        for j in range(6):
            acc += math.exp(-j * 1e-5) * math.sqrt(i + j + 1.0)
            table[(i + j) % 97] = f"{acc:.6g}"
        u = t / (0.3 + i * 1e-4)
        acc += float(np.sum((np.exp(-u * u) + np.exp(-u)) / 2.0))
        for j in range(4):
            rows.append((i, j * 0.5, str(i + j)))
        if len(rows) > 500:
            rows = []
    return acc


def time_reference() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import dlczsim.cli
    from dlczsim.config import load_config
    if src not in Path(dlczsim.cli.__file__).resolve().parents:
        print(f"dlczsim imported from {dlczsim.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    load_config(spec["setup_config"])
    ready = time.monotonic()
    refs = [time_reference()]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    commands, blocks = [], []
    block_wall = block_cpu = 0.0
    for i, (kind, argv) in enumerate(spec["commands"]):
        err = io.StringIO()
        cpu_start, began = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = dlczsim.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an unmapped error is a failed command
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - began
        block_wall += wall
        block_cpu += time.process_time() - cpu_start
        commands.append({"kind": kind, "rc": code, "wall_s": wall,
                         "stderr": err.getvalue()[-400:]})
        if block_wall >= BLOCK_S or i == len(spec["commands"]) - 1:
            refs.append(time_reference())
            blocks.append((block_wall, block_cpu))
            block_wall = block_cpu = 0.0

    import numpy
    result = {
        "ready_monotonic": ready,
        "peak_rss_mb": peak_rss_mb(),
        "commands": commands,
        "blocks": blocks,
        "refs": refs,
        "numpy": numpy.__version__,
        "layers": tracer.report() if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
