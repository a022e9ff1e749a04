"""Outside-in layer attribution for one ``repro run``.

Nothing in the package is edited.  :class:`RunProbe` wraps public
functions of the package's modules from outside, in the running
interpreter: every module-level name bound to a wrapped function is
rebound in each module where it is looked up, and methods are replaced
on their class.  Wrappers only count and time; arguments and return
values pass through untouched, so the run's outputs stay bit-identical
(the benchmark checks this on every traced run).

Two levels:

* ``RunProbe(timed=False)`` — the untraced runs.  A single pass-through
  on ``run_pipeline`` keeps a reference to the world and the report so
  the input size can be stated after the timed region.  No timer.
* ``RunProbe(timed=True)`` — the traced run.  Adds the layer timers and
  counters that :meth:`RunProbe.layer_metrics` turns into the
  ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

#: Pipeline stages, by the names ``StageRunner.run`` receives them under.
STAGES = (
    "top_extraction",
    "url_crawl",
    "abuse_filter",
    "nsfv",
    "provenance",
    "earnings",
    "actors",
)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _gauge(report, name: str) -> float:
    """Value of gauge ``name`` in the report's metrics registry, else 0."""
    telemetry = getattr(report, "telemetry", None)
    if telemetry is None:
        return 0.0
    for metric in telemetry.metrics.snapshot():
        if metric["name"] == name and not metric["labels"]:
            return float(metric["value"])
    return 0.0


class RunProbe:
    """Pass-through wrappers around the package's public functions."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.world = None
        self.report = None
        #: "build" or "pipeline" while inside ``build_world`` or
        #: ``run_pipeline``; their times are kept under the same keys.
        self._phase = None
        self._latents = set()

    # ------------------------------------------------------------------
    def _timer(self, key: str, fn):
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start

        return wrapper

    def _in_phase(self, phase: str, fn, *args, **kwargs):
        """Call ``fn`` with ``phase`` marked (and timed, if tracing)."""
        outer, self._phase = self._phase, phase
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._phase = outer
            if self.timed:
                self.seconds[phase] += perf_counter() - start

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch the package; call after every module the run uses has
        been imported (the child does this before its timed region)."""
        import repro
        from repro.synth import world as world_mod

        original_run_pipeline = repro.run_pipeline

        @functools.wraps(original_run_pipeline)
        def run_pipeline(world, *args, **kwargs):
            fetch0 = world.internet.n_fetch_calls
            report = self._in_phase("pipeline", original_run_pipeline,
                                    world, *args, **kwargs)
            self.world, self.report = world, report
            self.counts["fetch_calls"] += world.internet.n_fetch_calls - fetch0
            return report

        _rebind(original_run_pipeline, run_pipeline)
        if not self.timed:
            return

        original_build_world = world_mod.build_world
        _rebind(
            original_build_world,
            functools.wraps(original_build_world)(
                lambda *args, **kwargs: self._in_phase(
                    "build", original_build_world, *args, **kwargs)
            ),
        )
        self._install_synth(world_mod)
        self._install_media()
        self._install_vision()
        self._install_web()
        self._install_core()
        self._install_store()
        self._install_report()

    def _install_synth(self, world_mod) -> None:
        from repro.synth.forum_gen import ForumWorldGenerator

        _rebind(
            world_mod.generate_supply_side,
            self._timer("supply", world_mod.generate_supply_side),
        )
        ForumWorldGenerator.generate = self._timer(
            "forum_gen", ForumWorldGenerator.generate
        )

    def _install_media(self) -> None:
        from repro.media import render

        original = render.render_latent
        seconds, counts, latents, probe = self.seconds, self.counts, self._latents, self

        @functools.wraps(original)
        def render_latent(latent):
            start = perf_counter()
            try:
                return original(latent)
            finally:
                elapsed = perf_counter() - start
                seconds["render"] += elapsed
                seconds[f"render_{probe._phase}"] += elapsed
                counts["render"] += 1
                latents.add(latent)

        _rebind(original, render_latent)

    def _install_vision(self) -> None:
        from repro.vision import batch, photodna
        from repro.vision.nsfw import NsfwScorer
        from repro.vision.ocr import OcrEngine

        original_hash = photodna.robust_hash
        counts = self.counts
        timed_hash = self._timer("robust_hash", original_hash)

        @functools.wraps(original_hash)
        def robust_hash(pixels):
            counts["robust_hash"] += 1
            return timed_hash(pixels)

        _rebind(original_hash, robust_hash)
        _rebind(batch.hash_batch, self._timer("hash_batch", batch.hash_batch))
        NsfwScorer.score = self._timer("nsfw", NsfwScorer.score)
        OcrEngine.find_words = self._timer("ocr", OcrEngine.find_words)

    def _install_web(self) -> None:
        from repro.web.crawler import Crawler

        original = Crawler.crawl
        timed = self._timer("crawl", original)
        counts = self.counts

        @functools.wraps(original)
        def crawl(*args, **kwargs):
            result = timed(*args, **kwargs)
            counts["links"] += result.stats.n_links
            counts["links_ok"] += result.stats.n_ok
            return result

        Crawler.crawl = crawl

    def _install_core(self) -> None:
        from repro.core.stage_runner import StageRunner

        original = StageRunner.run
        seconds = self.seconds

        @functools.wraps(original)
        def run(runner, stage, *args, **kwargs):
            start = perf_counter()
            try:
                return original(runner, stage, *args, **kwargs)
            finally:
                seconds[f"stage.{stage}"] += perf_counter() - start

        StageRunner.run = run

    def _install_store(self) -> None:
        from repro.store import incremental
        from repro.store.sqlite import RunStore

        RunStore.read_dataset = self._timer("read_dataset", RunStore.read_dataset)
        RunStore.append_dataset = self._timer(
            "append_dataset", RunStore.append_dataset
        )
        session = incremental.PersistSession
        session.load = classmethod(
            self._timer("memo_load", session.__dict__["load"].__func__)
        )
        session.save = self._timer("memo_save", session.save)

        _rebind(
            incremental.run_incremental,
            self._timer("run_incremental", incremental.run_incremental),
        )

    def _install_report(self) -> None:
        from repro.core import report_text

        _rebind(
            report_text.render_digest,
            self._timer("render_digest", report_text.render_digest),
        )

    # ------------------------------------------------------------------
    def input_size(self) -> dict:
        """What the run measured over — stated with every result."""
        report, world = self.report, self.world
        if report is None:
            return {}
        crawl = report.crawl
        return {
            "posts": world.dataset.n_posts,
            "threads_selected": len(report.selection),
            "tops": len(report.tops) if report.tops is not None else None,
            "links": len(report.links.all_links) if report.links is not None else None,
            "crawled_images": len(crawl.all_images) if crawl is not None else None,
            "quarantined": report.n_quarantined,
            "store_rows_added": int(_gauge(report, "store.rows_added")),
        }

    def layer_metrics(self, wall_s: float) -> dict:
        """The traced run's ``per_layer`` values (``trace.overhead_s`` is
        added by the caller, which holds the untraced median)."""
        s, c, report = self.seconds, self.counts, self.report
        out = {
            "synth.build_world_s": s["build"],
            "synth.supply_s": s["supply"],
            "synth.forum_gen_s": s["forum_gen"],
            "synth.web_intel_s": s["build"] - s["supply"] - s["forum_gen"],
            "media.render_calls": c["render"],
            "media.render_unique_latents": len(self._latents),
            "media.render_repeat_share": (
                (c["render"] - len(self._latents)) / c["render"] if c["render"] else 0.0
            ),
            "media.render_s": s["render"],
            "media.render_build_s": s["render_build"],
            "media.render_pipeline_s": s["render_pipeline"],
            "vision.robust_hash_calls": c["robust_hash"],
            "vision.robust_hash_s": s["robust_hash"],
            "vision.hash_batch_s": s["hash_batch"],
            "vision.nsfw_s": s["nsfw"],
            "vision.ocr_s": s["ocr"],
            "vision.cache_hit_rate": (
                report.vision_cache_stats.hit_rate
                if report.vision_cache_stats is not None else 0.0
            ),
            "web.crawl_s": s["crawl"],
            "web.links": c["links"],
            "web.fetch_calls": c["fetch_calls"],
            "web.fetch_per_link": c["fetch_calls"] / c["links"] if c["links"] else 0.0,
            "web.links_ok_share": c["links_ok"] / c["links"] if c["links"] else 0.0,
        }
        for stage in STAGES:
            out[f"core.{stage}_s"] = s[f"stage.{stage}"]
        out["core.quarantined"] = report.n_quarantined

        store_overhead = (
            s["run_incremental"] - s["build"] - s["pipeline"]
            if s["run_incremental"] else 0.0
        )
        out.update({
            "store.read_dataset_s": s["read_dataset"],
            "store.append_dataset_s": s["append_dataset"],
            "store.rows_added": int(_gauge(report, "store.rows_added")),
            "store.memo_load_s": s["memo_load"],
            "store.memo_save_s": s["memo_save"],
            "store.size_mb": _gauge(report, "store.size_bytes") / 2**20,
            "store.overhead_s": store_overhead,
            "report.render_s": s["render_digest"],
        })
        # The top-level layers partition the timed wall: world build,
        # the seven stages, the store's own work around them, and the
        # printed report.  Whatever they miss (argument parsing,
        # logging, the pipeline's glue between stages) is reported as
        # its own row rather than dropped.
        attributed = (
            s["build"]
            + sum(s[f"stage.{stage}"] for stage in STAGES)
            + store_overhead
            + s["render_digest"]
        )
        out["trace.coverage"] = attributed / wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out
