"""Tests for the content-addressed VisionCache and its stage wiring.

Covers the cache itself (hit/miss accounting, LRU eviction, batched
``hashes_for``), the cache-aware ``NsfvClassifier.classify_batch`` (must
be verdict-identical to the scalar path, including OCR-band edges), and
the abuse filter's hash deduplication (each distinct digest hashed once,
result semantics unchanged).
"""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.abuse_filter as abuse_filter_module
from repro.core import AbuseFilter
from repro.core.nsfv import NsfvClassifier
from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.vision import (
    AbuseSeverity,
    HashListService,
    VisionCache,
    VisionCacheStats,
    hash_batch,
    robust_hash,
)
from repro.web import LinkRecord, Url
from repro.web.crawler import CrawledImage, content_digest

T0 = datetime(2016, 1, 1)


# ---------------------------------------------------------------------------
# VisionCache unit behaviour
# ---------------------------------------------------------------------------

class TestVisionCache:
    def test_get_or_compute_memoises(self):
        cache = VisionCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("d1", "hash", compute) == 42
        assert cache.get_or_compute("d1", "hash", compute) == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_fields_are_independent(self):
        cache = VisionCache()
        cache.put("d1", "hash", 7)
        assert cache.get("d1", "hash") == 7
        assert cache.get("d1", "nsfw") is None  # same digest, other field
        cache.put("d1", "nsfw", 0.5)
        assert cache.get("d1", "nsfw") == 0.5

    def test_unknown_field_rejected(self):
        cache = VisionCache()
        with pytest.raises(ValueError):
            cache.put("d1", "bogus", 1)
        with pytest.raises(ValueError):
            cache.get("d1", "bogus")

    def test_lru_eviction(self):
        cache = VisionCache(max_entries=2)
        cache.put("a", "hash", 1)
        cache.put("b", "hash", 2)
        assert cache.get("a", "hash") == 1  # refresh a → b is now LRU
        cache.put("c", "hash", 3)
        assert "b" not in cache
        assert cache.get("a", "hash") == 1
        assert cache.get("c", "hash") == 3
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_eviction_drops_all_fields_together(self):
        cache = VisionCache(max_entries=1)
        cache.put("a", "hash", 1)
        cache.put("a", "nsfw", 0.2)
        cache.put("b", "hash", 2)
        assert cache.get("a", "hash") is None
        assert cache.get("a", "nsfw") is None

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            VisionCache(max_entries=0)

    def test_clear_preserves_counters(self):
        cache = VisionCache()
        cache.put("a", "hash", 1)
        cache.get("a", "hash")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_stats_summary_renders(self):
        stats = VisionCacheStats(hits=3, misses=1, evictions=0, n_entries=2)
        text = stats.summary()
        assert "hits=3" in text and "75.0%" in text

    def test_hashes_for_batches_and_dedupes(self):
        cache = VisionCache()
        cache.put("warm", "hash", 99)
        batch_calls = []

        def compute_batch(rasters):
            batch_calls.append(list(rasters))
            return [int(r) * 10 for r in rasters]

        keyed = [
            ("warm", lambda: 0),   # hit: raster fn must not run
            ("x", lambda: 1),
            ("x", lambda: 1),      # within-batch duplicate
            ("y", lambda: 2),
        ]
        out = cache.hashes_for(keyed, compute_batch)
        assert out == [99, 10, 10, 20]
        # One batch call with only the two distinct missing rasters.
        assert batch_calls == [[1, 2]]
        # Second call is now fully cached.
        assert cache.hashes_for(keyed, compute_batch) == [99, 10, 10, 20]
        assert len(batch_calls) == 1

    def test_hashes_for_empty(self):
        assert VisionCache().hashes_for([], lambda r: []) == []


# ---------------------------------------------------------------------------
# Cache-aware NSFV classification
# ---------------------------------------------------------------------------

class CountingScorer:
    """NSFW 'scorer' returning a canned score per raster id."""

    def __init__(self, scores):
        self.scores = scores
        self.calls = 0

    def score(self, pixels):
        self.calls += 1
        return self.scores[int(pixels[0, 0, 0])]


class CountingOcr:
    def __init__(self, words):
        self.words = words
        self.calls = 0

    def word_count(self, pixels):
        self.calls += 1
        return self.words[int(pixels[0, 0, 0])]


def _tagged_raster(tag: int) -> np.ndarray:
    pixels = np.zeros((2, 2, 3))
    pixels[0, 0, 0] = tag
    return pixels


class TestClassifyBatchCache:
    # Scores straddling every Algorithm 1 band and its edges.
    BAND_SCORES = [0.0, 0.009, 0.01, 0.02, 0.049, 0.05, 0.15, 0.30, 0.31, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 9), min_size=0, max_size=12),
        st.lists(st.integers(0, 25), min_size=10, max_size=10),
    )
    def test_verdicts_identical_to_scalar(self, tags, words):
        scores = self.BAND_SCORES
        clf_scalar = NsfvClassifier(
            scorer=CountingScorer(scores), ocr=CountingOcr(words)
        )
        clf_cached = NsfvClassifier(
            scorer=CountingScorer(scores), ocr=CountingOcr(words)
        )
        rasters = [_tagged_raster(t) for t in tags]
        expected = [clf_scalar.classify(r) for r in rasters]
        got = clf_cached.classify_batch(
            rasters, digests=[f"d{t}" for t in tags], cache=VisionCache()
        )
        assert got == expected

    def test_ocr_only_runs_in_ambiguous_band(self):
        words = [15] * 10
        ocr = CountingOcr(words)
        clf = NsfvClassifier(scorer=CountingScorer(self.BAND_SCORES), ocr=ocr)
        tags = list(range(10))
        clf.classify_batch(
            [_tagged_raster(t) for t in tags],
            digests=[f"d{t}" for t in tags],
            cache=VisionCache(),
        )
        # Ambiguous band is 0.01 <= s <= 0.30 (strict comparisons on both
        # clear-cut sides): scores 0.01, 0.02, 0.049, 0.05, 0.15, 0.30.
        assert ocr.calls == 6

    def test_duplicate_digests_scored_once(self):
        scorer = CountingScorer({1: 0.2})
        ocr = CountingOcr({1: 30})
        clf = NsfvClassifier(scorer=scorer, ocr=ocr)
        rasters = [_tagged_raster(1)] * 4
        cache = VisionCache()
        verdicts = clf.classify_batch(rasters, digests=["same"] * 4, cache=cache)
        assert scorer.calls == 1 and ocr.calls == 1
        assert len(verdicts) == 4
        assert all(v == verdicts[0] for v in verdicts)
        # A later batch over the same digests is served from cache.
        clf.classify_batch(rasters[:1], digests=["same"], cache=cache)
        assert scorer.calls == 1 and ocr.calls == 1

    def test_misaligned_digests_rejected(self):
        clf = NsfvClassifier()
        with pytest.raises(ValueError):
            clf.classify_batch([_tagged_raster(1)], digests=["a", "b"])


# ---------------------------------------------------------------------------
# Abuse filter hashing deduplication
# ---------------------------------------------------------------------------

def _crawled(image, thread_id=1, digest=None):
    return CrawledImage(
        image=image,
        digest=digest if digest is not None else content_digest(image),
        link=LinkRecord(
            url=Url("imgur.com", f"/x{image.image_id}"),
            thread_id=thread_id,
            post_id=1,
            author_id=1,
            posted_at=T0,
        ),
    )


class TestAbuseFilterDedupe:
    @pytest.fixture()
    def images(self, rng):
        bad = SyntheticImage(
            1, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1, is_underage=True)
        )
        clean = SyntheticImage(2, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=2))
        return bad, clean

    def _service(self, bad):
        service = HashListService()
        service.add_known_image(
            bad.pixels, AbuseSeverity.CATEGORY_B, victim_age=10
        )
        return service

    def test_each_digest_hashed_once(self, images, monkeypatch):
        bad, clean = images
        calls = []

        def counting_hash_batch(rasters):
            calls.append(len(rasters))
            return hash_batch(rasters)

        monkeypatch.setattr(abuse_filter_module, "hash_batch", counting_hash_batch)
        # Three crawled copies of `bad` (same digest), two of `clean`.
        crawled = [
            _crawled(bad, thread_id=1),
            _crawled(bad, thread_id=2),
            _crawled(bad, thread_id=3),
            _crawled(clean, thread_id=4),
            _crawled(clean, thread_id=5),
        ]
        result = AbuseFilter(self._service(bad)).sweep(crawled)
        # One batch over the two distinct digests only.
        assert calls == [2]
        # Result semantics unchanged by deduplication:
        assert result.n_matched_images == 1
        assert result.matched_digests == {crawled[0].digest}
        assert result.affected_thread_ids == {1, 2, 3}
        assert all(not result.is_clean(c) for c in crawled[:3])
        assert all(result.is_clean(c) for c in crawled[3:])
        # Every matched copy's pixels were dropped.
        assert all(c.image._pixels is None for c in crawled[:3])

    def test_cache_shares_hashes_across_sweeps(self, images):
        bad, clean = images
        cache = VisionCache()
        service = self._service(bad)
        first = AbuseFilter(service, cache=cache).sweep([_crawled(clean)])
        assert first.n_matched_images == 0
        before = cache.stats()
        assert before.misses >= 1
        # Second sweep over the same digest: pure cache hits, no recompute.
        AbuseFilter(service, cache=cache).sweep([_crawled(clean)])
        after = cache.stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cached_and_uncached_sweeps_agree(self, images):
        """The batched, cached sweep matches what hashing each image on
        its own with ``robust_hash`` (the reference) matches."""
        bad, clean = images
        service = self._service(bad)
        crawled = [
            _crawled(bad, thread_id=1),
            _crawled(clean, thread_id=2),
            _crawled(bad, thread_id=3),
        ]
        reference = [
            c for c in crawled
            if service.match_hash(robust_hash(c.image.pixels)).matched
        ]
        result = AbuseFilter(service, cache=VisionCache()).sweep(crawled)
        assert [c.image for c in reference] == [bad, bad]
        assert result.matched_digests == {c.digest for c in reference}
        assert result.n_matched_images == len({c.digest for c in reference})
        assert result.affected_thread_ids == {c.link.thread_id for c in reference}
