"""End-to-end benchmark of ``repro run``, attributed to layers.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload cold_run --seed 1 --seconds 55 --trace 0

Each workload is the argv a user would type, pinned to world seed 11
and scale 0.02 — the one seed and scale the reproduction is measured
at, so that numbers from different runs compare.  ``--seed`` is
recorded with the result and selects nothing: every seed gives the
same inputs.

* ``cold_run``    — ``repro run --seed 11 --scale 0.02``: the command
  users run; dominated by raster rendering.
* ``store_delta`` — ``cold_run`` plus ``--store <fresh copy> --epoch 4
  --epoch-total 4`` against a store that already holds epochs 1-3,
  built by the code under test: a SQLite append and re-read beside
  warm memos; rendering is mostly bypassed.

Each run is a fresh interpreter (``child.py``) with its imports done
before the timed region, one at a time, BLAS/OpenMP pools pinned to at
most ``nproc`` threads and no ``--workers``.  Runs repeat while the
next is expected to end inside ``--seconds`` (at least ``MIN_RUNS``);
the end-to-end metrics are medians over the runs:

* ``wall_s``      — the timed region: world build, pipeline, report;
* ``cpu_s``       — user plus system CPU time of the same region;
* ``peak_rss_mb`` — the run's peak resident set;
* ``setup_s``     — interpreter start, imports and store copy, up to
  the timed region; every run sets up afresh.

``wall_s``, ``cpu_s`` and ``setup_s`` are in seconds at a reference
host speed: a shared VM's speed drifts by up to about 1.9x in phases
of seconds to minutes, which moved raw medians by 15-35% between
invocations of the same code.  Each run samples the speed it is
getting by timing a fixed loop on its own CPU and scales its times to
the reference speed (``child.HostSpeed``).  The raw seconds and the
loop's time are in the context line for every run.

``--trace 1`` adds one traced run whose wrappers (``layers.py``) give
the per-layer metrics, plus ``trace.overhead_s`` against the untraced
median.  The failure rate is the result's ``failed`` / ``attempted``:
a run fails if it raises, exits non-zero, reports a degraded
measurement or fails a check, and a failed run contributes no timing.

Checks, in every invocation:

* every run of the workload, traced or not, prints the same digest
  (the report text before ``-- telemetry --``);
* every ``cold_run`` and ``store_delta`` run prints the same
  measurement as the first cold run of the same sources.  That
  measurement is kept in the work area under a hash of ``src/``, as is
  ``store_delta``'s warm store; a ``store_delta`` invocation that finds
  none makes a cold run first.  Two kinds of line differ by design
  between the two and are left out of that one comparison: the
  vision-cache counters and the metric count (a warm store answers
  more lookups from cache and records store gauges).

No expected digest is pinned: fixes to the measurement change digests
on purpose.

Left out as workloads, on purpose:

* ``hostile_run`` (``cold_run`` plus ``--fault-profile hostile
  --payload-profile hostile``: the crawl and render layers on their
  failure paths): it runs the same layers as ``cold_run``, and a third
  workload left each one too few runs to be steady on a shared host
  (its own peak RSS is also bimodal, about 157 or 172 MB run to run);
* the parallel crawl executors (``--workers``/``--executor``): they
  may be deleted, and a workload pinned to one would block that; an
  executor comparison is made ad hoc;
* scale 0.1: one run takes about 50 s and peaks near 910 MB RSS, too
  long for the number of runs a check makes;
* drift replay (``repro drift``): about 58% of it is rendering and the
  drift engine itself takes about 0.04 s, so it adds no layer the two
  workloads miss.

The last stdout line is the JSON result; the line before it is a JSON
context object (input size, host facts, per-run values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORLD = ["--seed", "11", "--scale", "0.02"]
WORKLOADS = {
    "cold_run": ["run", *WORLD],
    "store_delta": ["run", *WORLD, "--store", "{store}", "--epoch", "4",
                    "--epoch-total", "4"],
}
WARM_EPOCHS = (1, 2, 3)

#: Fewest timed runs per invocation, even if they overrun ``--seconds``.
MIN_RUNS = 2
#: The whole invocation must end well inside 180 s.
BUDGET_S = 150.0

#: Lines that differ between a warm-store and a cold run by design
#: (cache counters, metric count); masked only for that comparison.
_RUN_MODE_LINE = re.compile(r"^(metrics: \d+ recorded|vision cache: |hits=\d+ misses=)")


#: Thread pools that could otherwise oversubscribe the box.
_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    """The caller's environment with every pool capped at ``nproc``."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in _POOL_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _host(env: dict) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: env[var] for var in _POOL_VARS},
        "machine": platform.machine(),
    }


def _sources_key() -> str:
    """Hash of ``src/``: what is cached in the work area is keyed by it."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return sources.hexdigest()[:16]


def digest(stdout: str) -> str:
    """The printed report before ``-- telemetry --``."""
    head, sep, _ = stdout.partition("\n-- telemetry --")
    return head if sep else ""


def measurement(stdout: str) -> str:
    """:func:`digest` without the run-mode counter lines."""
    return "\n".join(
        line for line in digest(stdout).splitlines()
        if not _RUN_MODE_LINE.match(line)
    )


class Bench:
    def __init__(self, workload: str, deadline: float) -> None:
        self.workload = workload
        self.deadline = deadline
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.key = _sources_key()
        #: The warm store (epochs 1-3), cached per ``src/`` hash.
        self.template = WORK / f"warm-{self.key}.sqlite"
        #: The measurement a cold run of these sources printed, which
        #: every ``cold_run`` and ``store_delta`` run must reproduce.
        self.cold = None
        self.env = _child_env()
        self.runs = []      # timed, untraced
        self.extra = []     # cold reference, traced run
        self.problems = []

    # ------------------------------------------------------------------
    def child(self, mode: str, argv) -> dict:
        """Start one child, wait for it, return its decoded result."""
        store = [str(self.template)] if "{store}" in argv else []
        timeout = max(5.0, self.deadline - time.monotonic())
        cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(self.work),
               repr(time.monotonic()), mode, json.dumps(argv), *store]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} run timed out after {timeout:.0f}s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            return {"error": f"child exited {proc.returncode}: {tail}"}
        try:
            return json.loads(lines[-1])
        except ValueError:
            return {"error": f"child printed no result: {lines[-1][:200]}"}

    def failure(self, result: dict, reference) -> str:
        """Why ``result`` is a failed run, or '' if it is not."""
        if result.get("error"):
            return result["error"].strip().splitlines()[-1]
        if result["exit_code"] != 0:
            return f"repro exited {result['exit_code']}"
        if result["degraded"]:
            return "measurement degraded"
        if not digest(result["stdout"]):
            return "no report printed"
        if reference is not None and digest(result["stdout"]) != digest(reference["stdout"]):
            return "digest differs from the workload's first run"
        if self.cold is not None and measurement(result["stdout"]) != self.cold:
            return "measurement differs from a cold run"
        return ""

    # ------------------------------------------------------------------
    def build_warm_store(self) -> bool:
        """Epochs 1-3 of the timeline, written by the code under test.

        Built once per ``src/`` hash and kept in the work area; each run
        copies it as part of its set-up.
        """
        if self.template.is_file():
            return True
        building = self.work / "warm.sqlite"
        for epoch in WARM_EPOCHS:
            argv = ["run", *WORLD, "--store", str(building), "--epoch",
                    str(epoch), "--epoch-total", "4"]
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(5.0, self.deadline - time.monotonic()),
            )
            if proc.returncode != 0:
                why = f"epoch {epoch} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
                self.extra.append(("warm_store", {}, why))
                return False
        # Side files first, the database last: a store counts as built
        # only once its database is in place.
        for side in sorted(self.work.glob("warm.sqlite?*")):
            side.replace(WORK / (self.template.name + side.name[len(building.name):]))
        building.replace(self.template)
        return True

    def measure(self, seconds: float, trace: bool) -> None:
        cache = WORK / f"cold-{self.key}.txt"
        if cache.is_file():
            self.cold = cache.read_text()
        elif self.workload == "store_delta":
            cold = self.child("untraced", WORKLOADS["cold_run"])
            why = self.failure(cold, None)
            self.extra.append(("cold_reference", cold, why))
            if why:
                return
            self.cold = measurement(cold["stdout"])
            cache.write_text(self.cold)

        argv = WORKLOADS[self.workload]
        start = time.monotonic()
        reference = None
        durations = []
        # Start another run only while it is expected to end inside
        # ``seconds`` (past MIN_RUNS) and well inside the deadline.
        while True:
            if durations and time.monotonic() + 1.5 * max(durations) > self.deadline:
                break
            if (len(self.runs) >= MIN_RUNS and time.monotonic() - start
                    + statistics.median(durations) > seconds):
                break
            began = time.monotonic()
            result = self.child("untraced", argv)
            durations.append(time.monotonic() - began)
            result["failure"] = self.failure(result, reference)
            if not result["failure"] and reference is None:
                reference = result
            self.runs.append(result)
        if (self.workload == "cold_run" and self.cold is None
                and reference is not None
                and not any(r["failure"] for r in self.runs)):
            cache.write_text(measurement(reference["stdout"]))
        if trace and reference is not None:
            traced = self.child("traced", argv)
            self.extra.append(("traced", traced, self.failure(traced, reference)))

    # ------------------------------------------------------------------
    def report(self, seed: int, trace: bool) -> dict:
        good = [r for r in self.runs if not r["failure"]]
        self.problems += [f"run: {r['failure']}" for r in self.runs if r["failure"]]
        self.problems += [f"{kind}: {why}" for kind, _, why in self.extra if why]
        attempted = len(self.runs) + len(self.extra)
        failed = len(self.problems)

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = declared["per_layer" if trace else "end_to_end"]
        values = {}
        if good and trace:
            traced = next((r for kind, r, why in self.extra
                           if kind == "traced" and not why), None)
            if traced is not None:
                values = dict(traced["layers"])
                values["trace.overhead_s"] = (
                    traced["wall_s"] - statistics.median(r["wall_s"] for r in good)
                )
        elif good:
            values = {name: statistics.median(r[name] for r in good)
                      for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        names = [m["name"] for m in wanted]
        if values and sorted(values) != sorted(names):
            self.problems.append(
                f"metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json"
            )
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}

        context = {
            "workload": self.workload,
            "argv": WORKLOADS[self.workload],
            "seed": seed,
            "host": _host(self.env),
            "input_size": good[0]["input_size"] if good else {},
            "runs": [{k: r.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                            "setup_s", "raw_wall_s", "raw_cpu_s",
                                            "raw_setup_s", "loop_ms", "failure")}
                     for r in self.runs],
            "error_rate": failed / max(attempted, 1),
            "problems": self.problems,
        }
        print("context " + json.dumps(context, sort_keys=True))
        return {
            "correct": bool(good) and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"e2ebench: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # Unwind on SIGTERM too: subprocess.run then kills and reaps the
    # running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args.workload, time.monotonic() + BUDGET_S)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "store_delta" or bench.build_warm_store():
            bench.measure(args.seconds, bool(args.trace))
        result = bench.report(args.seed, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
