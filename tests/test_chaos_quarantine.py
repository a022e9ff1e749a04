"""Chaos suite: the record-level fault-isolation invariant.

The contract under test (DESIGN.md §8): under *any* corrupt-payload
profile,

1. a run completes with **zero stage failures** attributable to payload
   corruption — poison dies at record boundaries, never stage or
   pipeline boundaries;
2. the quarantine ledger accounts for **exactly** the injected
   corruption events (nothing lost, nothing double-counted);
3. every *clean* record's output — content digests, NSFV verdicts,
   reverse-search outcomes — is **bit-identical** to the corruption-free
   run on the same seed (corruption wraps fetched views; it never
   mutates hosted content or bleeds into neighbouring records).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_world, run_pipeline
from repro.core.quarantine import Quarantine
from repro.media.image import ImageKind, SyntheticImage, sample_latent
from repro.media.pack import Pack
from repro.media.validate import (
    AbsurdDimensionError,
    DecoyPayloadError,
    EmptyPayloadError,
    NonFinitePixelError,
    TruncatedRasterError,
    WrongDtypeError,
    WrongShapeError,
    validate_raster,
)
from repro.web.crawler import Crawler, LinkRecord
from repro.web.internet import FetchStatus, SimulatedInternet
from repro.web.payload_faults import (
    CORRUPTION_KINDS,
    PayloadFaultInjector,
    PayloadFaultProfile,
    PayloadFaultSpec,
    corrupt_raster,
    payload_profile,
)
from repro.web.sites import HostingService, ServiceKind

#: Which taxonomy class each corruption mode must map onto.  Exhaustive:
#: a corruption kind without a detection class would silently break the
#: injected == quarantined invariant.
EXPECTED_ERROR = {
    "truncated": TruncatedRasterError,
    "nan_pixels": NonFinitePixelError,
    "inf_pixels": NonFinitePixelError,
    "grayscale_2d": WrongShapeError,
    "rgba": WrongShapeError,
    "uint8": WrongDtypeError,
    "zero_byte": EmptyPayloadError,
    "absurd_dims": AbsurdDimensionError,
    "decoy_bytes": DecoyPayloadError,
}


class TestCorruptionAlwaysDetected:
    def test_mapping_is_exhaustive(self):
        assert set(EXPECTED_ERROR) == set(CORRUPTION_KINDS)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(CORRUPTION_KINDS),
        height=st.integers(8, 64),
        width=st.integers(8, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_corruption_fails_validation_with_typed_error(
        self, kind, height, width, seed
    ):
        """For ANY clean raster and ANY corruption draw, validation raises
        exactly the taxonomy class for that corruption mode."""
        raster = np.random.default_rng(seed).random((height, width, 3))
        payload = corrupt_raster(raster, kind, np.random.default_rng(seed))
        with pytest.raises(EXPECTED_ERROR[kind]):
            validate_raster(payload)


# ----------------------------------------------------------------------
# Crawler-level invariant on a hand-built internet
# ----------------------------------------------------------------------

IMG_HOST = HostingService(
    "testimg", "testimg.example", ServiceKind.IMAGE_SHARING, 1.0,
    dead_link_rate=0.0, tos_takedown_rate=0.0,
)
PACK_HOST = HostingService(
    "testpack", "testpack.example", ServiceKind.CLOUD_STORAGE, 1.0,
    dead_link_rate=0.0, tos_takedown_rate=0.0,
)


def build_tiny_internet(n_previews=40, n_packs=6, pack_size=5):
    """An internet where every link is alive, so corruption is the only
    hazard; returns (internet, links)."""
    from datetime import datetime

    internet = SimulatedInternet(seed=11)
    rng = np.random.default_rng(11)
    links = []
    uploaded = datetime(2018, 6, 1)
    for i in range(n_previews):
        image = SyntheticImage(i, sample_latent(rng, ImageKind.MODEL_DRESSED))
        url = internet.host_on_service(IMG_HOST, image, uploaded, contains_nudity=False)
        links.append(LinkRecord(url=url, link_kind="preview"))
    for p in range(n_packs):
        images = [
            SyntheticImage(1000 + p * pack_size + j, sample_latent(rng, ImageKind.MODEL_DRESSED))
            for j in range(pack_size)
        ]
        pack = Pack(pack_id=p, model_id=p, images=images)
        url = internet.host_on_service(PACK_HOST, pack, uploaded, contains_nudity=False)
        links.append(LinkRecord(url=url, link_kind="pack"))
    return internet, links


class TestCrawlerInvariant:
    def test_injected_equals_quarantined_and_clean_bit_identical(self):
        baseline_internet, links = build_tiny_internet()
        baseline = Crawler(baseline_internet).crawl(links)
        assert baseline.n_quarantined == 0

        corrupt_internet, links2 = build_tiny_internet()
        injector = PayloadFaultInjector(payload_profile("hostile"), seed=23)
        corrupt_internet.set_payload_injector(injector)
        ledger = Quarantine()
        result = Crawler(corrupt_internet).crawl(links2, quarantine=ledger)

        # the hostile profile actually fired on this world
        assert injector.n_injected > 0
        # 1:1 accounting — every corruption event is one ledger record
        assert len(ledger) == injector.n_injected
        assert result.quarantined == ledger.records
        # no corrupt digest ever enters the result
        assert all(c.digest for c in result.all_images)

        # clean previews: byte-identical to the baseline minus the
        # quarantined URLs, in crawl order
        quarantined_urls = ledger.refs("url_crawl")
        expected = [
            c.digest
            for c in baseline.preview_images
            if str(c.link.url) not in quarantined_urls
        ]
        assert [c.digest for c in result.preview_images] == expected

        # clean pack members: a sub-multiset of the baseline's
        base_counts = Counter(c.digest for c in baseline.pack_images)
        for digest, count in Counter(c.digest for c in result.pack_images).items():
            assert count <= base_counts[digest]

        # packs with excised members carry only their clean members
        by_id = {pack.pack_id: pack for pack in result.packs}
        member_digests = {c.digest for c in result.pack_images}
        for pack in by_id.values():
            for image in pack.images:
                pixels = image.pixels
                assert validate_raster(pixels) is pixels

    def test_full_corruption_never_aborts_the_crawl(self):
        internet, links = build_tiny_internet(n_previews=20, n_packs=3)
        internet.set_payload_injector(
            PayloadFaultInjector(
                PayloadFaultProfile("all", PayloadFaultSpec(corrupt_rate=1.0)),
                seed=1,
            )
        )
        result = Crawler(internet).crawl(links)
        assert result.preview_images == []
        assert result.pack_images == []
        assert result.packs == []
        assert result.n_quarantined == 20 + 3 * 5
        # link accounting is unaffected: fetches still succeeded
        assert result.stats.count(FetchStatus.OK) == len(links)

    def test_unexpected_resource_is_quarantined_not_raised(self):
        internet, links = build_tiny_internet(n_previews=2, n_packs=0)
        hosted = internet.hosted(links[0].url)
        hosted.resource = {"not": "an image"}
        result = Crawler(internet).crawl(links)
        assert len(result.preview_images) == 1
        assert result.n_quarantined == 1
        record = result.quarantined[0]
        assert record.error_type == "UnexpectedResourceError"
        assert "dict" in record.message

    def test_checkpoint_replay_rederives_the_ledger(self, tmp_path):
        """A resumed crawl's quarantine ledger is byte-identical to an
        uninterrupted one — corruption is keyed on the URL alone."""
        def corrupting_internet():
            internet, links = build_tiny_internet()
            internet.set_payload_injector(
                PayloadFaultInjector(payload_profile("hostile"), seed=23)
            )
            return internet, links

        internet, links = corrupting_internet()
        uninterrupted = Crawler(internet).crawl(links)

        ckpt = str(tmp_path / "crawl.json")
        internet2, links2 = corrupting_internet()
        first = Crawler(internet2).crawl(links2, checkpoint=ckpt)
        # every link is now settled; a rerun replays all outcomes
        internet3, links3 = corrupting_internet()
        replayed = Crawler(internet3).crawl(links3, checkpoint=ckpt)

        assert first.digest() == uninterrupted.digest()
        assert replayed.digest() == uninterrupted.digest()
        assert [r.summary() for r in replayed.quarantined] == [
            r.summary() for r in uninterrupted.quarantined
        ]


# ----------------------------------------------------------------------
# Full-pipeline invariant across profiles
# ----------------------------------------------------------------------

WORLD_KW = dict(
    seed=3, scale=0.006, with_other_activity=False,
    underage_rate=0.30, hashlist_rate=0.5,
)


@pytest.fixture(scope="module")
def profile_runs():
    runs = {}
    for profile in (None, "dirty", "hostile"):
        world = build_world(payload_profile=profile, **WORLD_KW)
        report = run_pipeline(world, annotate_n=50, strict=False)
        runs[profile] = (world, report)
    return runs


@pytest.mark.slow
class TestPipelineInvariant:
    def test_none_profile_injects_nothing(self):
        world = build_world(payload_profile="none", **WORLD_KW)
        report = run_pipeline(world, annotate_n=50)
        assert world.internet.payload_injector.n_injected == 0
        assert report.n_quarantined == 0

    @pytest.mark.parametrize("profile", ["dirty", "hostile"])
    def test_completes_with_zero_stage_failures(self, profile_runs, profile):
        _, report = profile_runs[profile]
        assert not report.degraded
        assert report.stage_failures == []
        assert {o.status for o in report.stage_outcomes} == {"ok"}

    @pytest.mark.parametrize("profile", ["dirty", "hostile"])
    def test_ledger_matches_injected_counts(self, profile_runs, profile):
        world, report = profile_runs[profile]
        injector = world.internet.payload_injector
        assert injector.n_injected > 0
        assert report.n_quarantined == injector.n_injected
        assert sum(report.quarantine.by_error().values()) == injector.n_injected

    @pytest.mark.parametrize("profile", ["dirty", "hostile"])
    def test_clean_records_bit_identical_to_baseline(self, profile_runs, profile):
        _, base = profile_runs[None]
        _, run = profile_runs[profile]

        # -- crawl: clean previews are the baseline's, minus quarantined
        # URLs, in identical order with identical digests ---------------
        quarantined_urls = run.quarantine.refs("url_crawl")
        expected = [
            c.digest
            for c in base.crawl.preview_images
            if str(c.link.url) not in quarantined_urls
        ]
        assert [c.digest for c in run.crawl.preview_images] == expected

        # -- crawl: clean pack members are a sub-multiset of baseline ---
        base_counts = Counter(c.digest for c in base.crawl.pack_images)
        for digest, count in Counter(c.digest for c in run.crawl.pack_images).items():
            assert count <= base_counts[digest]

        # -- abuse: matches are exactly the baseline matches that
        # survived the crawl --------------------------------------------
        run_digests = {c.digest for c in run.crawl.all_images}
        assert run.abuse.matched_digests == base.abuse.matched_digests & run_digests

        # -- NSFV: per-digest verdicts identical ------------------------
        base_verdicts = {c.digest: v for c, v in base.preview_verdicts}
        for crawled, verdict in run.preview_verdicts:
            assert verdict == base_verdicts[crawled.digest]

        # -- provenance: per-digest reverse-search outcomes identical ---
        base_outcomes = {
            o.digest: (o.n_matches, o.domains)
            for o in base.provenance.pack_outcomes + base.provenance.preview_outcomes
        }
        for outcome in run.provenance.pack_outcomes + run.provenance.preview_outcomes:
            if outcome.digest in base_outcomes:
                assert (outcome.n_matches, outcome.domains) == base_outcomes[outcome.digest]

    @pytest.mark.parametrize("profile", ["dirty", "hostile"])
    def test_corruption_only_ever_shrinks_earnings_evidence(
        self, profile_runs, profile
    ):
        _, base = profile_runs[None]
        _, run = profile_runs[profile]
        assert run.earnings is not None
        assert run.earnings.n_proofs <= base.earnings.n_proofs

    def test_hostile_ledger_spans_crawl_and_earnings(self, profile_runs):
        _, report = profile_runs["hostile"]
        by_stage = report.quarantine.by_stage()
        assert by_stage.get("url_crawl", 0) > 0
        # one validation boundary: every record was excised at a crawl
        # ingest (§4.2 or §5), none by a later stage
        assert set(by_stage) <= {"url_crawl", "earnings"}

    def test_quarantine_surfaces_in_digest_rendering(self, profile_runs):
        from repro.core.report_text import render_digest

        _, report = profile_runs["hostile"]
        text = render_digest(report)
        assert "== quarantine (record-level faults) ==" in text
        assert "records quarantined" in text


# ----------------------------------------------------------------------
# Fault profiles × incremental store runs (DESIGN.md §12)
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestFaultProfilesThroughStore:
    """The fault matrix crossed with the watermark-delta engine.

    Payload corruption and transport chaos are injected per-URL by pure
    hashes, so a delta run replaying warm memos over a hostile world
    must admit the *same* quarantine ledger — and the same clean-record
    outputs — as a cold run over the union.  A memo that cached its way
    past an injected fault would break the injected == quarantined
    invariant silently; this pins it across profiles.
    """

    @pytest.mark.parametrize(
        "fault_kw",
        [
            {"payload_profile": "hostile"},
            {"fault_profile": "hostile"},
            {"fault_profile": "flaky", "payload_profile": "dirty"},
        ],
        ids=["payload", "transport", "transport+payload"],
    )
    def test_incremental_ledger_matches_cold(self, tmp_path, fault_kw):
        from repro.store import run_incremental

        cfg = dict(WORLD_KW, epoch_total=2, **fault_kw)
        cold = run_incremental(tmp_path / "cold.sqlite", epoch=2, **cfg)
        run_incremental(tmp_path / "inc.sqlite", epoch=1, **cfg)
        inc = run_incremental(tmp_path / "inc.sqlite", epoch=2, **cfg)

        cold_ledger = [r.to_dict() for r in cold.report.quarantine.records]
        inc_ledger = [r.to_dict() for r in inc.report.quarantine.records]
        assert inc_ledger == cold_ledger
        assert inc.crawl_digest == cold.crawl_digest
        # zero stage failures on both paths: poison still dies at record
        # boundaries when every memo is warm
        assert cold.report.stage_failures == []
        assert inc.report.stage_failures == []

    def test_injected_equals_quarantined_through_store(self, tmp_path):
        from repro.store import run_incremental

        cfg = dict(WORLD_KW, epoch_total=2, payload_profile="hostile")
        run_incremental(tmp_path / "s.sqlite", epoch=1, **cfg)
        result = run_incremental(tmp_path / "s.sqlite", epoch=2, **cfg)
        report = result.report
        assert report.n_quarantined > 0
        assert sum(report.quarantine.by_error().values()) == report.n_quarantined
