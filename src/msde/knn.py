"""Exact k-nearest-neighbor search and strict radius counts.

There is one fast route, ``build_knn_graph``, and one oracle,
``brute_force_knn`` (the naive O(n^2 d) scan). Both report distances
through the single metric kernel ``distances_from`` so their outputs are
comparable bit for bit; they differ in how candidates are found. Ties in
distance are always broken toward the lower row index.

The fast route screens squared distances through the Gram expansion
|x|^2 + |y|^2 - 2<x, y>, one block of rows against all n at a time, and
keeps every column within a rounding slack of its row's k-th screened
value. The re-rank is block-wide: the kernel evaluates all of a block's
candidate pairs in chunks of a fixed float budget, and one stable sort by
(row, distance) puts each row's candidates in canonical order, with no
Python loop over rows.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import GraphError

logger = logging.getLogger(__name__)

# Rows per Gram block in the scan. Its two scratch buffers (the screen and
# a copy to partition) are this many rows x n each, allocated once per call.
SCAN_BLOCK_ROWS = 256
# Floats per gathered operand when the re-rank evaluates candidate pairs:
# each ``distances_from`` call takes max(1, budget // d) pairs.
RERANK_CHUNK_FLOATS = 2**14


def _as_values(points) -> np.ndarray:
    values = np.asarray(points, dtype=np.float64)
    if values.ndim != 2:
        raise GraphError(f"points must be a 2-D matrix, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise GraphError("points must be finite (found NaN or inf)")
    return values


def distances_from(values: np.ndarray, i: int, indices=None) -> np.ndarray:
    """Euclidean distances from row ``i`` to ``indices`` (default: all rows).

    ``indices`` is an integer index array or a slice; a slice reads a view.
    ``i`` may also be an index array as long as ``indices``: element m is
    then the distance between rows ``i[m]`` and ``indices[m]``, reduced
    exactly as with a scalar ``i``.
    This is the only place pairwise distances are evaluated, so every
    search route, oracle, and radius count shares one rounding behavior.
    """
    base = values if indices is None else values[indices]
    diff = base - values[i]
    return np.sqrt(np.sum(diff * diff, axis=1))


@dataclass(frozen=True)
class NeighborGraph:
    """Per-sample ordered neighbor lists: nearest first, no self-loops."""

    k: int
    neighbors: np.ndarray  # (n, k) int64
    distances: np.ndarray  # (n, k) float64

    @property
    def n_samples(self) -> int:
        return self.neighbors.shape[0]


def _effective_k(k: int, n: int) -> int:
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if n < 2:
        raise GraphError(f"need at least 2 points to build a graph, got {n}")
    if k > n - 1:
        warnings.warn(f"k={k} clamped to n-1={n - 1}")
        return n - 1
    return k


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


def _knn_blocked_scan(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    n, dim = values.shape
    neighbors = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    sq_norms = np.einsum("ij,ij->i", values, values)
    # Cancellation in the Gram expansion is bounded by a small multiple of
    # eps * (|x|^2 + |y|^2); the screen slack must cover it so the true
    # k-set is always inside the candidate set.
    slack = 32.0 * np.finfo(np.float64).eps * (sq_norms + sq_norms.max())
    height = min(SCAN_BLOCK_ROWS, n)
    screen = np.empty((height, n))
    ranked = np.empty((height, n))
    chunk = max(1, RERANK_CHUNK_FLOATS // max(dim, 1))

    # Squared-distance screen via the Gram expansion, then exact canonical
    # re-ranking of everything at or near each row's k-th boundary.
    for lo in range(0, n, SCAN_BLOCK_ROWS):
        hi = min(lo + SCAN_BLOCK_ROWS, n)
        m = hi - lo
        d2, part = screen[:m], ranked[:m]
        np.matmul(values[lo:hi], values.T, out=d2)
        d2 *= -2.0
        d2 += sq_norms[lo:hi, None]
        d2 += sq_norms
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(m), np.arange(lo, hi)] = np.inf  # exclude self
        np.copyto(part, d2)
        part.partition(k - 1, axis=1)
        bound = part[:, k - 1] * (1.0 + 1e-9) + slack[lo:hi]
        if not np.isfinite(bound).all():  # inf admits self, NaN no column
            raise GraphError("squared distances overflow float64")
        # Row-major, so each row's candidates come out in index order.
        rows, cand = np.nonzero(d2 <= bound[:, None])
        d = np.empty(len(cand))
        for a in range(0, len(cand), chunk):
            d[a:a + chunk] = distances_from(values, rows[a:a + chunk] + lo,
                                            cand[a:a + chunk])
        # Stable: within a row, equal distances keep the lower index first.
        order = np.lexsort((d, rows))
        top = order[np.searchsorted(rows, np.arange(m))[:, None] + np.arange(k)]
        neighbors[lo:hi], distances[lo:hi] = cand[top], d[top]
    return neighbors, distances


def build_knn_graph(points, k: int) -> NeighborGraph:
    """Exact k-NN graph; ties by lower index; k clamped to n-1 with warning.

    Raises ``GraphError`` for non-finite points or squared distances that
    overflow float64."""
    values = _as_values(points)
    n = values.shape[0]
    k = _effective_k(k, n)
    neighbors, distances = _knn_blocked_scan(values, k)
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
