"""AUC-ROC and average precision: examples, oracles, invariances."""

import numpy as np
import pytest

from msde import auc_roc, average_precision, evaluate
from msde.exceptions import MetricError
from msde.metrics import (
    auc_roc_pairwise,
    average_precision_stepwise,
    metrics_json,
)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted(self):
        assert auc_roc([0.9, 0.1], [0, 1]) == 0.0

    def test_tie_half_credit(self):
        assert auc_roc([0.5, 0.5], [0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(MetricError):
            auc_roc([0.1, 0.2], [0, 0])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            r = np.random.default_rng(seed)
            n = int(r.integers(5, 200))
            scores = r.normal(size=n)
            labels = r.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            assert auc_roc(scores, labels) == auc_roc_pairwise(scores, labels)
        assert rng is not None

    def test_matches_oracle_with_injected_ties(self):
        for seed in range(50):
            r = np.random.default_rng(100 + seed)
            n = int(r.integers(5, 200))
            scores = r.integers(0, 5, size=n).astype(float)  # heavy ties
            labels = r.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            assert auc_roc(scores, labels) == auc_roc_pairwise(scores, labels)


class TestAveragePrecision:
    def test_single_positive_ranked_first(self):
        assert average_precision([0.9, 0.1], [1, 0]) == 1.0

    def test_single_positive_ranked_second(self):
        assert average_precision([0.9, 0.1], [0, 1]) == 0.5

    def test_all_tied_gives_prevalence(self):
        scores = [0.3] * 10
        labels = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert average_precision(scores, labels) == pytest.approx(0.3, abs=0)

    def test_no_positive_rejected(self):
        with pytest.raises(MetricError):
            average_precision([0.1, 0.2], [0, 0])

    def test_matches_stepwise_oracle_exactly(self):
        for seed in range(50):
            r = np.random.default_rng(seed)
            n = int(r.integers(5, 200))
            scores = r.normal(size=n)
            labels = r.integers(0, 2, size=n)
            labels[0] = 1
            assert average_precision(scores, labels) == \
                average_precision_stepwise(scores, labels)

    def test_matches_oracle_with_injected_ties(self):
        for seed in range(50):
            r = np.random.default_rng(500 + seed)
            n = int(r.integers(5, 200))
            scores = r.integers(0, 4, size=n).astype(float)
            labels = r.integers(0, 2, size=n)
            labels[0] = 1
            assert average_precision(scores, labels) == \
                average_precision_stepwise(scores, labels)

    def test_order_invariant_under_ties(self):
        r = np.random.default_rng(9)
        scores = r.integers(0, 3, size=60).astype(float)
        labels = r.integers(0, 2, size=60)
        labels[0] = 1
        perm = r.permutation(60)
        assert average_precision(scores, labels) == \
            average_precision(scores[perm], labels[perm])


class TestInvariances:
    def test_monotone_transform_leaves_metrics_unchanged(self):
        r = np.random.default_rng(3)
        scores = r.normal(size=120)
        labels = r.integers(0, 2, size=120)
        labels[0], labels[1] = 0, 1
        squashed = 1.0 / (1.0 + np.exp(-3.0 * scores + 1.0))
        assert auc_roc(scores, labels) == auc_roc(squashed, labels)
        assert average_precision(scores, labels) == \
            average_precision(squashed, labels)

    def test_negation_complements_auc(self):
        r = np.random.default_rng(4)
        scores = r.normal(size=80)  # continuous, tie-free
        labels = r.integers(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) + auc_roc(-scores, labels) == \
            pytest.approx(1.0, abs=1e-12)

    def test_label_swap_complements_auc(self):
        r = np.random.default_rng(5)
        scores = r.normal(size=80)
        labels = r.integers(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) == \
            pytest.approx(1.0 - auc_roc(scores, 1 - labels), abs=1e-12)


class TestInfiniteAndNanScores:
    def test_tied_infinities_match_oracles(self):
        scores = [np.inf, np.inf, 0.5, -np.inf, -np.inf, np.inf]
        labels = [0, 1, 1, 1, 0, 0]
        assert auc_roc(scores, labels) == auc_roc_pairwise(scores, labels)
        assert average_precision(scores, labels) == \
            average_precision_stepwise(scores, labels)

    def test_nan_score_rejected(self):
        for metric in (auc_roc, auc_roc_pairwise, average_precision):
            with pytest.raises(MetricError, match="NaN"):
                metric([0.1, np.nan, 0.9], [0, 1, 1])


class TestEvaluate:
    def test_counts_and_json(self):
        result = evaluate([0.1, 0.9, 0.8], [0, 1, 1])
        assert result.n_pos == 2 and result.n_neg == 1
        text = metrics_json(result)
        assert '"auc": 1.000000' in text
        assert '"n_pos": 2' in text

    def test_mismatched_lengths(self):
        with pytest.raises(MetricError):
            evaluate([0.1, 0.2], [1])
