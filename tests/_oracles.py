"""Slow, obviously-correct oracles that the fast paths in ``msde`` are
tested against with zero tolerance.

None of them is called by the pipeline. They reuse the package's distance
kernel (``msde.knn.distances_from``) and its input checks, so an oracle and
the fast path it checks round the same way and refuse the same inputs.
"""

import math

import numpy as np
from scipy.linalg import eigh
# The logistic oracle; msde itself does not import scipy.special.
from scipy.special import expit  # noqa: F401

from msde.exceptions import GraphError
from msde.knn import NeighborGraph, _as_values, _effective_k, distances_from
from msde.metrics import _check_inputs


def brute_force_knn(points, k: int) -> NeighborGraph:
    """Naive O(n^2 d) exhaustive scan; the ground-truth oracle."""
    values = _as_values(points)
    n = values.shape[0]
    k = _effective_k(k, n)
    neighbors = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    all_idx = np.arange(n)
    for i in range(n):
        d = distances_from(values, i)
        d[i] = np.inf  # exclude self
        order = np.lexsort((all_idx, d))[:k]
        neighbors[i] = order
        distances[i] = d[order]
    return NeighborGraph(k, neighbors, distances)


def count_within_radius(points, center_index: int, radius: float) -> int:
    """Number of other points strictly closer than ``radius``."""
    values = _as_values(points)
    n = values.shape[0]
    if not 0 <= center_index < n:
        raise GraphError(f"center index {center_index} out of range for {n} points")
    if radius < 0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    d = distances_from(values, center_index)
    d[center_index] = np.inf
    return int(np.count_nonzero(d < radius))


def pairwise_distances(points) -> np.ndarray:
    """Dense n x n Euclidean distance matrix, one whole row of the kernel
    at a time; the oracle the screened weights are tested against."""
    values = np.ascontiguousarray(points, dtype=np.float64)
    return np.stack([distances_from(values, i) for i in range(len(values))])


def _kth_neighbor_distance(dist_matrix: np.ndarray, t_nbd: int) -> np.ndarray:
    """Per row, the t_nbd-th smallest distance to another point.

    ``dist_matrix`` must carry an inf diagonal; each row is partitioned in place.
    """
    dist_matrix.partition(t_nbd - 1, axis=1)
    return dist_matrix[:, t_nbd - 1].copy()


def auc_roc_pairwise(scores, labels) -> float:
    """O(n^2) oracle: explicit win/tie counting over all pos-neg pairs."""
    scores, labels, n_pos, n_neg = _check_inputs(scores, labels, need_neg=True)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return wins / (n_pos * n_neg)


def average_precision_stepwise(scores, labels) -> float:
    """Oracle: explicit precision/recall bookkeeping along the ranking."""
    scores, labels, n_pos, _ = _check_inputs(scores, labels, need_neg=False)
    items = sorted(zip(scores.tolist(), labels.tolist()), key=lambda p: -p[0])
    terms = []
    tp = 0
    seen = 0
    i = 0
    while i < len(items):
        j = i
        block_tp = 0
        while j < len(items) and items[j][0] == items[i][0]:
            block_tp += items[j][1]
            j += 1
        tp += block_tp
        seen = j
        terms.append((block_tp / n_pos) * (tp / seen))
        i = j
    return math.fsum(terms)


def pca_reference(x: np.ndarray, reduced_dim: int):
    """``fit_pca``'s arithmetic as it was written with copies: the scaled
    Gram as a new array, scipy's own Fortran copy for ``eigh`` and the
    components gathered by column. Returns (center, components, variance)."""
    n = x.shape[0]
    center = x.mean(axis=0)
    centered = x - center
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = eigh(cov)
    order = np.argsort(eigvals)[::-1][:reduced_dim]
    variance = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T.copy()
    pivot = components[np.arange(reduced_dim), np.argmax(np.abs(components), axis=1)]
    components[pivot < 0] *= -1.0
    return center, components, variance


def gaussian_sigma_reference(z: np.ndarray, lam: float) -> np.ndarray:
    """``fit_gaussian``'s regularized covariance as one expression."""
    n, d = z.shape
    centered = z - z.mean(axis=0)
    return centered.T @ centered / (n - 1) + lam * np.eye(d)
