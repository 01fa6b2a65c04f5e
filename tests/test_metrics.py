"""Tests for accuracy / ROC-AUC / video aggregation.

The AUC is validated against a brute-force pairwise oracle: count
positive-negative pairs where the positive outscores the negative, ties
worth half. Both formulations produce exact half-integer numerators, so
agreement is required to be exact, not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bolf.metrics import ScoredSample, UndefinedMetric, accuracy, roc_auc, video_level


def _scored(scores, labels, video_ids=None):
    ids = video_ids or [""] * len(scores)
    return [ScoredSample(float(s), int(l), v) for s, l, v in zip(scores, labels, ids)]


def pairwise_auc(scores, labels):
    """O(n_pos * n_neg) reference: mean over pairs of win/half-tie."""
    pos = np.asarray([s for s, l in zip(scores, labels) if l == 1], dtype=float)
    neg = np.asarray([s for s, l in zip(scores, labels) if l == 0], dtype=float)
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_hand_worked_example(self):
        # pairs: (.35 vs .1) win, (.35 vs .4) loss, (.8 vs .1) win,
        # (.8 vs .4) win -> 3/4
        assert roc_auc(_scored([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])) == 0.75

    def test_perfect_and_inverted_ranking(self):
        assert roc_auc(_scored([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0
        assert roc_auc(_scored([0.8, 0.9, 0.1, 0.2], [0, 0, 1, 1])) == 0.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc(_scored([0.5] * 6, [0, 1, 0, 1, 0, 1])) == 0.5

    def test_partial_ties_counted_half(self):
        # one clean win plus one tied pair = (1 + 0.5) / 2
        assert roc_auc(_scored([0.3, 0.3, 0.7], [0, 1, 1])) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            roc_auc(_scored([0.1, 0.9], [1, 1]))
        with pytest.raises(UndefinedMetric):
            roc_auc(_scored([0.1, 0.9], [0, 0]))
        with pytest.raises(UndefinedMetric):
            roc_auc([])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of exact ties
            scores = rng.integers(0, 12, size=n) / 11.0
            samples = _scored(scores, labels)
            assert roc_auc(samples) == pairwise_auc(scores, labels), f"trial {trial}"

    def test_order_of_samples_is_irrelevant(self):
        scores = [0.2, 0.9, 0.4, 0.4, 0.6]
        labels = [0, 1, 0, 1, 1]
        a = roc_auc(_scored(scores, labels))
        b = roc_auc(_scored(scores[::-1], labels[::-1]))
        assert a == b


class TestAccuracy:
    def test_basic_counting(self):
        samples = _scored([0.9, 0.2, 0.6, 0.4], [1, 0, 0, 1])
        assert accuracy(samples) == 0.5

    def test_score_at_threshold_counts_as_tampered(self):
        assert accuracy(_scored([0.5], [1])) == 1.0
        assert accuracy(_scored([0.5], [0])) == 0.0

    def test_custom_threshold(self):
        samples = _scored([0.3, 0.3], [1, 0])
        assert accuracy(samples, threshold=0.2) == 0.5
        assert accuracy(samples, threshold=0.4) == 0.5

    def test_extreme_thresholds(self):
        samples = _scored([0.1, 0.9], [0, 1])
        assert accuracy(samples, threshold=0.0) == 0.5  # everything tampered
        assert accuracy(samples, threshold=1.0) == 0.5  # only 1.0 scores pass

    def test_empty_input_undefined(self):
        with pytest.raises(UndefinedMetric):
            accuracy([])

    def test_label_flip_complements(self):
        rng = np.random.default_rng(1)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        a = accuracy(_scored(scores, labels))
        b = accuracy(_scored(scores, 1 - labels))
        assert a + b == pytest.approx(1.0)


class TestVideoLevel:
    def test_mean_aggregation(self):
        samples = _scored([0.2, 0.4, 0.9, 0.7], [0, 0, 1, 1],
                          ["v0", "v0", "v1", "v1"])
        agg = video_level(samples)
        assert len(agg) == 2
        assert agg[0] == ScoredSample(pytest.approx(0.3), 0, "v0")
        assert agg[1].score == pytest.approx(0.8)
        assert agg[1].label == 1

    def test_first_occurrence_order(self):
        samples = _scored([0.1, 0.9, 0.2], [0, 1, 0], ["b", "a", "b"])
        agg = video_level(samples)
        assert [s.video_id for s in agg] == ["b", "a"]

    def test_conflicting_labels_rejected(self):
        samples = _scored([0.1, 0.9], [0, 1], ["v", "v"])
        with pytest.raises(ValueError):
            video_level(samples)

    def test_video_auc_pipeline(self):
        # frame scores noisy, but per-video means separate cleanly
        samples = _scored([0.45, 0.2, 0.8, 0.55], [0, 0, 1, 1],
                          ["r", "r", "f", "f"])
        assert roc_auc(video_level(samples)) == 1.0


score_strategy = st.lists(
    st.tuples(st.integers(0, 20), st.booleans()), min_size=2, max_size=60,
).filter(lambda items: len({l for _, l in items}) == 2)


class TestAucProperties:
    @settings(max_examples=60, deadline=None)
    @given(score_strategy)
    def test_always_matches_pairwise_oracle(self, items):
        scores = [s / 20.0 for s, _ in items]
        labels = [int(l) for _, l in items]
        assert roc_auc(_scored(scores, labels)) == pairwise_auc(scores, labels)

    @settings(max_examples=60, deadline=None)
    @given(score_strategy)
    def test_invariant_under_affine_score_transform(self, items):
        # 2x + 1 is exact in float64 for these grids and preserves order
        # and tie structure, so the rank statistic cannot change
        scores = [s / 4.0 for s, _ in items]
        labels = [int(l) for _, l in items]
        a = roc_auc(_scored(scores, labels))
        b = roc_auc(_scored([2.0 * s + 1.0 for s in scores], labels))
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(score_strategy)
    def test_label_flip_reflects_around_half(self, items):
        scores = [s / 20.0 for s, _ in items]
        labels = [int(l) for _, l in items]
        a = roc_auc(_scored(scores, labels))
        b = roc_auc(_scored(scores, [1 - l for l in labels]))
        assert a + b == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(score_strategy)
    def test_bounded_in_unit_interval(self, items):
        scores = [s / 20.0 for s, _ in items]
        labels = [int(l) for _, l in items]
        assert 0.0 <= roc_auc(_scored(scores, labels)) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 20), max_size=60))
    def test_tied_ranks_are_scipy_average_ranks(self, values):
        from scipy.stats import rankdata

        from bolf.metrics import _tied_ranks

        values = np.asarray(values, dtype=np.float64) / 20.0
        assert np.array_equal(_tied_ranks(values), rankdata(values, method="average"))
