"""Ranking metrics with exact tie handling.

Both metrics sort the scores once and split them into blocks of tied
scores. AUC-ROC is the Mann-Whitney statistic: each positive wins over
the negatives in lower blocks and gets half credit for the negatives in
its own block, counted in integers without midranks. Average precision
integrates the precision-recall step curve with each tie block as a
single step, making the value independent of input order. Their
brute-force oracles live with the tests in ``tests/_oracles.py``: one
counts all positive-negative pairs, the other walks the ranking
explicitly. Both sides reduce exact counts or identical per-term
expressions, so equality checks carry zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import MetricError


@dataclass(frozen=True)
class MetricResult:
    auc: float
    ap: float
    n_pos: int
    n_neg: int


def _check_inputs(scores, labels, need_neg: bool):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise MetricError(
            f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
        )
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise MetricError("labels must be 0 or 1")
    if np.isnan(scores).any():
        raise MetricError("scores must not be NaN")
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos < 1:
        raise MetricError("metric needs at least one positive label")
    if need_neg and n_neg < 1:
        raise MetricError("metric needs at least one negative label")
    return scores, np.asarray(labels, dtype=np.int64), n_pos, n_neg


def auc_roc(scores, labels) -> float:
    """Probability a random positive outscores a random negative.

    Ties get exactly half credit; the win count is an integer plus a half
    integer, hence exact in float64.
    """
    scores, labels, n_pos, n_neg = _check_inputs(scores, labels, need_neg=True)
    cum_tp, cum_k = _tie_blocks(scores, labels)
    cum_neg = cum_k - cum_tp
    pos_b = np.diff(cum_tp, prepend=0)
    neg_b = np.diff(cum_neg, prepend=0)
    wins = int(pos_b @ (n_neg - cum_neg)) + 0.5 * int(pos_b @ neg_b)
    return wins / (n_pos * n_neg)


def _tie_blocks(scores: np.ndarray, labels: np.ndarray):
    """Cumulative positives and rows through each tie block, best first."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # Compare neighbors directly: a difference of two equal infinities is NaN.
    ends = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    ends = np.concatenate([ends, [scores.size - 1]])
    return np.cumsum(labels[order])[ends], ends + 1


def average_precision(scores, labels) -> float:
    """Step integral of precision over recall, ties as single blocks."""
    scores, labels, n_pos, _ = _check_inputs(scores, labels, need_neg=False)
    cum_tp, cum_k = _tie_blocks(scores, labels)
    terms = (np.diff(cum_tp, prepend=0) / n_pos) * (cum_tp / cum_k)
    return math.fsum(terms.tolist())


def evaluate(scores, labels) -> MetricResult:
    """Both metrics at once; requires at least one sample of each class."""
    _, _, n_pos, n_neg = _check_inputs(scores, labels, need_neg=True)
    return MetricResult(
        auc=auc_roc(scores, labels),
        ap=average_precision(scores, labels),
        n_pos=n_pos,
        n_neg=n_neg,
    )


def metrics_json(result: MetricResult) -> str:
    """CLI representation: six decimal places for the metric values."""
    return (
        "{"
        f"\"auc\": {result.auc:.6f}, \"ap\": {result.ap:.6f}, "
        f"\"n_pos\": {result.n_pos}, \"n_neg\": {result.n_neg}"
        "}"
    )
