"""One benchmark run: a fresh interpreter executing one ``repro run``.

Started by ``run.py``; prints one JSON object on stdout and nothing
else.  Everything before the timed region is set-up: interpreter start,
imports, copying the warm store, installing the probe.  The timed
region is exactly ``repro.cli.main(argv)`` — world build, pipeline and
the printed report — with the report captured in memory.

The host is a shared VM whose speed drifts by up to about 1.9x in
phases of seconds to minutes, as other tenants load the physical
cores.  So that the timings measure the program and not the phase,
:class:`HostSpeed` times a fixed pure-Python loop every
``SAMPLE_EVERY_S`` seconds of the timed region, on the run's own CPU,
and ``setup_s``, ``wall_s`` and ``cpu_s`` are the raw times (the last
two less the loop's own time) scaled to the reference speed
``REFERENCE_LOOP_S``.  The raw times and the loop's median are
reported beside them.

Usage::

    python3 e2ebench/child.py ROOT WORK SPAWNED MODE ARGV_JSON [STORE_TEMPLATE]

``SPAWNED`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide, so ``setup_s`` includes interpreter start);
``MODE`` is ``untraced`` or ``traced``.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

#: The CLI plus the modules the store path imports lazily; imported up
#: front so that no import happens inside the timed region.
PRELOAD = ("repro.cli", "repro.store.incremental", "repro.obs.history")

#: Iterations of the host-speed loop, and how often it is timed.
LOOP_ITERATIONS = 8_000
SAMPLE_EVERY_S = 0.1
#: The loop's median time during a run on an uncontended host (2-vCPU
#: Xeon VM, CPython 3.11); timings are scaled to this speed.
REFERENCE_LOOP_S = 0.0005


def _speed_loop() -> float:
    """Seconds the fixed speed loop takes on this CPU right now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Times the speed loop from a SIGALRM handler while in the block.

    The handler runs in the main thread between bytecodes, so each
    sample sees the speed the run itself is getting at that moment.
    """

    def __init__(self) -> None:
        self.samples = []

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_speed_loop()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self) -> float:
        """The loop's median time over the block."""
        return statistics.median(self.samples) if self.samples else REFERENCE_LOOP_S

    def at_reference(self, seconds: float) -> float:
        """``seconds`` taken at the block's host speed, at the reference
        speed."""
        return seconds * REFERENCE_LOOP_S / self.loop_s()


def _copy_store(template: Path, target: Path) -> None:
    """Fresh copy of the warm store (database plus any WAL side files)."""
    for stale in target.parent.glob(target.name + "*"):
        stale.unlink()
    for source in template.parent.glob(template.name + "*"):
        shutil.copyfile(source, target.parent / (target.name + source.name[len(template.name):]))


def main(argv) -> int:
    root, work, spawned, mode, run_argv = argv[:5]
    spawned = float(spawned)
    run_argv = json.loads(run_argv)
    sys.path.insert(0, str(Path(root) / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    for name in PRELOAD:
        importlib.import_module(name)
    import repro.cli
    from layers import RunProbe

    if len(argv) > 5:
        store = Path(work) / "run.sqlite"
        _copy_store(Path(argv[5]), store)
        run_argv = [str(store) if a == "{store}" else a for a in run_argv]

    probe = RunProbe(timed=(mode == "traced"))
    probe.install()
    gc.collect()

    out = io.StringIO()
    error = None
    exit_code = None
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    with HostSpeed() as host:
        try:
            with redirect_stdout(out):
                exit_code = repro.cli.main(run_argv)
        except SystemExit as exc:  # argparse and the CLI's own refusals
            exit_code = exc.code
        except Exception:  # a crash is a failed run, not a crashed bench
            error = traceback.format_exc(limit=4)
        wall_s = time.monotonic() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    probing = sum(host.samples)

    result = {
        "setup_s": host.at_reference(start - spawned),
        "wall_s": host.at_reference(wall_s - probing),
        "cpu_s": host.at_reference(cpu_s - probing),
        "raw_setup_s": start - spawned,
        "raw_wall_s": wall_s,
        "raw_cpu_s": cpu_s,
        "loop_ms": host.loop_s() * 1e3,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "exit_code": exit_code,
        "error": error,
        "stdout": out.getvalue(),
        "degraded": bool(probe.report.degraded) if probe.report is not None else None,
        "input_size": probe.input_size(),
    }
    if mode == "traced" and error is None and probe.report is not None:
        result["layers"] = probe.layer_metrics(wall_s)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
