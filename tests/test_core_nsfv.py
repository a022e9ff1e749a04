"""Tests for Algorithm 1 — the NSFV classifier (§4.4)."""

import numpy as np
import pytest

from repro.core import NsfvClassifier
from repro.media import ImageKind, SyntheticImage, sample_latent


def render(rng, kind, **kwargs):
    lat = sample_latent(rng, kind, model_id=1 if kind.is_model else None, **kwargs)
    return SyntheticImage(0, lat).pixels


class TestAlgorithmStructure:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            NsfvClassifier(sfv_threshold=0.5, nsfv_threshold=0.3)
        with pytest.raises(ValueError):
            NsfvClassifier(low_band_threshold=0.5, nsfv_threshold=0.3)

    def test_defaults_are_paper_values(self):
        clf = NsfvClassifier()
        assert clf.sfv_threshold == 0.01
        assert clf.nsfv_threshold == 0.30
        assert clf.low_band_threshold == 0.05
        assert clf.low_ocr_words == 10
        assert clf.high_ocr_words == 20

    def test_verdict_carries_scores(self, rng):
        verdict = NsfvClassifier().classify(render(rng, ImageKind.MODEL_NUDE))
        assert 0.0 <= verdict.nsfw_score <= 1.0
        assert verdict.nsfv == (not verdict.safe_for_viewing)


class TestVerdicts:
    def test_proofs_are_sfv(self, rng):
        clf = NsfvClassifier()
        for _ in range(10):
            assert clf.is_sfv(render(rng, ImageKind.PROOF_SCREENSHOT))

    def test_chat_screenshots_sfv(self, rng):
        clf = NsfvClassifier()
        for _ in range(10):
            assert clf.is_sfv(render(rng, ImageKind.CHAT_SCREENSHOT))

    def test_nude_images_nsfv(self, rng):
        clf = NsfvClassifier()
        for _ in range(10):
            assert not clf.is_sfv(render(rng, ImageKind.MODEL_NUDE))

    def test_sexual_images_nsfv(self, rng):
        clf = NsfvClassifier()
        for _ in range(10):
            assert not clf.is_sfv(render(rng, ImageKind.MODEL_SEXUAL))

    def test_dressed_models_nsfv(self, rng):
        """The conservative design: clothed models without text must stay
        NSFV even when their NSFW score is ambiguous."""
        clf = NsfvClassifier()
        for _ in range(20):
            assert not clf.is_sfv(render(rng, ImageKind.MODEL_DRESSED))

    def test_zero_false_negatives_on_validation_set(self, rng):
        """§4.4: '100% detection of NSFV images' on the validation data."""
        clf = NsfvClassifier()
        for _ in range(60):
            for kind in (ImageKind.MODEL_DRESSED, ImageKind.MODEL_NUDE,
                         ImageKind.MODEL_SEXUAL):
                assert not clf.is_sfv(render(rng, kind))

    def test_false_positive_rate_moderate(self, rng):
        """§4.4 reports ~8% false positives (non-nude flagged NSFV)."""
        clf = NsfvClassifier()
        non_nude = [ImageKind.PROOF_SCREENSHOT, ImageKind.CHAT_SCREENSHOT,
                    ImageKind.DOCUMENT, ImageKind.SOURCE_CODE,
                    ImageKind.LANDSCAPE, ImageKind.GAME_SCREENSHOT,
                    ImageKind.MEME]
        flags = []
        for _ in range(20):
            for kind in non_nude:
                flags.append(not clf.is_sfv(render(rng, kind)))
        fp_rate = np.mean(flags)
        assert fp_rate < 0.25
        assert fp_rate > 0.0  # sandy landscapes etc. do exist

    def test_classify_batch(self, rng):
        clf = NsfvClassifier()
        rasters = [render(rng, ImageKind.PROOF_SCREENSHOT) for _ in range(3)]
        verdicts = clf.classify_batch(
            rasters, digests=[f"proof-{i}" for i in range(3)]
        )
        assert len(verdicts) == 3
        assert all(v.safe_for_viewing for v in verdicts)

    def test_ocr_rescues_texty_ambiguous_images(self):
        """An image in the ambiguous band with enough words is SFV."""

        class FakeScorer:
            def score(self, pixels):
                return 0.03

        class FakeOcr:
            def word_count(self, pixels):
                return 15

        clf = NsfvClassifier(scorer=FakeScorer(), ocr=FakeOcr())
        verdict = clf.classify(np.zeros((16, 16, 3)))
        assert verdict.safe_for_viewing
        assert verdict.ocr_words == 15

    def test_high_band_needs_more_words(self):
        class FakeScorer:
            def score(self, pixels):
                return 0.15

        class FakeOcr:
            def __init__(self, n):
                self.n = n

            def word_count(self, pixels):
                return self.n

        assert not NsfvClassifier(
            scorer=FakeScorer(), ocr=FakeOcr(15)
        ).is_sfv(np.zeros((16, 16, 3)))
        assert NsfvClassifier(
            scorer=FakeScorer(), ocr=FakeOcr(25)
        ).is_sfv(np.zeros((16, 16, 3)))

    def test_world_previews_mostly_nsfv(self, report):
        """§4.4: ~60% of downloaded preview-link images are NSFV."""
        total = len(report.preview_verdicts)
        if total < 20:
            pytest.skip("too few previews at this scale")
        fraction = report.n_nsfv_previews / total
        assert 0.4 < fraction < 0.9
