from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprompt.backends.base import TokenLogprobs
from fedprompt.backends.ngram import NgramBackend
from fedprompt.errors import EmptyText
from fedprompt.uid import SurprisalStats, compare_uniformity, surprisal_series, uid_stats


class TestStats:
    def test_constant_series(self):
        stats = SurprisalStats.from_series([1.0, 1.0, 1.0])
        assert stats.mean == 1.0
        assert stats.variance == 0.0
        assert stats.max == 1.0
        assert stats.token_count == 3

    def test_population_variance(self):
        # [0, 2]: mean 1, squared deviations 1 and 1, divided by N=2 -> 1.
        # A sample-variance implementation would report 2 here.
        stats = SurprisalStats.from_series([0.0, 2.0])
        assert stats.variance == pytest.approx(1.0)

    def test_max_is_peak(self):
        stats = SurprisalStats.from_series([0.5, 3.25, 1.0])
        assert stats.max == 3.25

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyText):
            SurprisalStats.from_series([])

    def test_negative_surprisal_rejected(self):
        with pytest.raises(ValueError):
            SurprisalStats.from_series([1.0, -0.5])

    @pytest.mark.parametrize("surprisal", [math.inf, math.nan])
    def test_non_finite_surprisal_rejected(self, surprisal):
        with pytest.raises(ValueError, match="finite"):
            SurprisalStats.from_series([1.0, surprisal])

    def test_as_dict_keys(self):
        assert set(SurprisalStats.from_series([1.0]).as_dict()) == {"mu", "sigma2", "max", "n"}

    @settings(max_examples=100, deadline=None)
    @given(
        series=st.lists(
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False), min_size=1, max_size=50
        ),
        shift=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_shift_moves_mean_not_variance(self, series, shift):
        base = SurprisalStats.from_series(series)
        moved = SurprisalStats.from_series([s + shift for s in series])
        assert moved.mean == pytest.approx(base.mean + shift, abs=1e-9)
        assert moved.variance == pytest.approx(base.variance, abs=1e-6)


class TestSeries:
    def test_bits_conversion(self):
        # Deterministic continuation: ln-probability 0 -> 0 bits, and never -0.0.
        backend = NgramBackend("a b a b a b", order=2, alpha=0.0)
        series = surprisal_series("b", context="a", backend=backend)
        assert series == [0.0]
        assert math.copysign(1.0, series[0]) == 1.0

    def test_base_change_consistency(self):
        backend = NgramBackend("a b c a b d", order=2, alpha=1.0)
        scored = backend.token_logprobs("a", "b c")
        series = surprisal_series("b c", context="a", backend=backend)
        for bits, nats in zip(series, scored.logprobs):
            assert bits == pytest.approx(-nats / math.log(2.0), abs=1e-12)

    def test_uniform_alternation_is_flat(self):
        # Two symbols, strictly alternating: every bigram continuation is
        # certain under MLE except the unigram start, so score mid-sequence.
        backend = NgramBackend("x y x y x y x y", order=2, alpha=0.0)
        series = surprisal_series("y x y x", context="x", backend=backend)
        stats = SurprisalStats.from_series(series)
        assert stats.variance == pytest.approx(0.0, abs=1e-12)

    def test_one_bit_per_token(self):
        # A fair coin at every position: vocab {h, t}, history-free model.
        backend = NgramBackend("h t h t t h h t", order=1, alpha=0.0)
        series = surprisal_series("h t t h", context="", backend=backend)
        assert series == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_empty_text_rejected(self):
        backend = NgramBackend("a b", order=1)
        with pytest.raises(EmptyText):
            surprisal_series("   ", context="a", backend=backend)

    def test_series_is_returned_as_scored(self):
        # The series is the backend's scores in bits, even where no stats can
        # be taken: a positive logprob (a scorer other than the oracle may
        # report one) and an empty scoring.
        backend = NgramBackend("a b", order=1)
        backend.token_logprobs = lambda context, text: TokenLogprobs(["a"], [math.log(2.0)])
        assert surprisal_series("a", context="", backend=backend) == [-1.0]
        backend.token_logprobs = lambda context, text: TokenLogprobs([], [])
        assert surprisal_series("a", context="", backend=backend) == []

    def test_uid_stats_summarizes_the_series(self):
        backend = NgramBackend("a b a c a b", order=2, alpha=1.0)
        series = surprisal_series("b a c", context="a", backend=backend)
        stats = uid_stats("b a c", context="a", backend=backend)
        assert stats == SurprisalStats.from_series(series)
        assert stats.surprisals == series
        assert stats.token_count == 3


class TestCompare:
    def test_flat_text_beats_spiky_text(self):
        corpus = "a a a a a a a a b"
        backend = NgramBackend(corpus, order=1, alpha=0.0)
        report = compare_uniformity("a a a a", "a b a b", context="", backend=backend)
        assert report.more_uniform == "a"
        assert report.stats_a.variance < report.stats_b.variance

    def test_order_swap_flips_verdict(self):
        corpus = "a a a a a a a a b"
        backend = NgramBackend(corpus, order=1, alpha=0.0)
        report = compare_uniformity("a b a b", "a a a a", context="", backend=backend)
        assert report.more_uniform == "b"

    def test_identical_texts_tie(self):
        backend = NgramBackend("a b c a b c", order=2, alpha=1.0)
        report = compare_uniformity("a b c", "a b c", context="", backend=backend)
        assert report.more_uniform == "tie"
        assert report.stats_a.variance == report.stats_b.variance
