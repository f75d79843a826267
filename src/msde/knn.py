"""Exact k-nearest-neighbor search and the one distance kernel.

There is one route, ``knn_neighbors``; its oracle, the naive O(n^2 d)
scan, lives with the tests in ``tests/_oracles.py``. ``build_knn_graph``
is ``knn_neighbors`` plus the kernel distances of the n k pairs it
returns. Distances come only from the single metric kernel
``distances_from``, so the route's and the oracle's are comparable bit for
bit; they differ in how candidates are found. Ties in distance are always
broken toward the lower row index.

``_GramScreen`` is the one screen behind exact neighborhoods: squared
distances |x|^2 + |y|^2 - 2<x, y>, a block of rows against all n at a
time, within a derived slack of the kernel's, and the kernel for the pairs
it cannot decide. The k-NN scan keeps every column within the slack of its
row's k-th screened value and orders them by screened value; only runs of
candidates too close for the screen to order go through the kernel. The
density weights (``msde.weights``) take their order statistics and each
row's head of smallest values from one screen of the fuzzy graph's CSR
rows, and screen again only the rows whose radius counts the head cannot
decide.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import GraphError

logger = logging.getLogger(__name__)

# Rows per Gram block in the scan. Its scratch buffers (the screen, a copy to
# partition, the candidate mask) are this many rows x n, views of one
# ``ScanScratch``: a call without one allocates its own, and the shift loop
# passes the one its run allocated to every scan.
SCAN_BLOCK_ROWS = 256
# Floats per gathered operand when the screen's kernel evaluates pairs of
# dense rows: each ``distances_from`` call takes max(1, budget // d) pairs.
RERANK_CHUNK_FLOATS = 2**14
# Pairs per kernel call on CSR rows; a call densifies at most twice this
# many rows, each n wide.
CSR_CHUNK_PAIRS = 32


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


def _effective_k(k: int, n: int) -> int:
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if n < 2:
        raise GraphError(f"need at least 2 points to build a graph, got {n}")
    if k > n - 1:
        warnings.warn(f"k={k} clamped to n-1={n - 1}")
        return n - 1
    return k


@dataclass(frozen=True)
class ScanScratch:
    """Reusable scratch of k-NN scans over n points: flat float64 ``floats``
    (at least two blocks of min(``SCAN_BLOCK_ROWS``, n) rows x n) and a flat
    bool ``mask`` (one block). A scan writes every element it reads, so the values left
    by earlier scans never matter."""

    floats: np.ndarray
    mask: np.ndarray


def scan_scratch(n: int, floats: int = 0) -> ScanScratch:
    """Scratch for scans of n points, with at least ``floats`` floats."""
    size = min(SCAN_BLOCK_ROWS, n) * n
    return ScanScratch(np.empty(max(2 * size, floats)), np.empty(size, dtype=bool))


class _GramScreen:
    """Blocked screen of squared distances between the rows of ``coords``
    (a dense array or a CSR matrix), with kernel distances for the pairs
    it cannot decide. A block's inner products are one product: its rows
    times ``coords.T`` when dense, and ``coords`` times its rows densified
    when CSR (symmetric or not), sparse times dense. Blocks are
    C-contiguous: the scan reads them through ``d2.ravel()``.

    ``slack[i]`` is twice a bound on |screened d^2 - the kernel's sum of
    squares| over every j, in units of eps (|x_i|^2 + |x_j|^2) with |x_j|^2
    at its maximum. The screen errs by at most 2 terms + 4: the norms and
    the inner product each sum at most ``terms`` products (the width, or a
    CSR row's most nonzeros) in any order (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 3.1), and
    |<x_i, x_j>| <= (|x_i|^2 + |x_j|^2) / 2. The kernel's pairwise sum over
    ``width`` columns is at most 26 + log2(width) levels deep, plus 3
    roundings per term, on a true d^2 of at most 2 (|x_i|^2 + |x_j|^2).
    Thresholds on distances widen by a relative 8 eps for the rounding of
    the kernel's square root.

    So the screen orders a row's columns wherever they screen far apart:
    if row i screens columns a and b at s_a <= s_b with
    s_b > (s_a + slack[i]) (1 + 8 eps), their kernel sums of squares obey
    q_b >= s_b - slack[i] / 2 > (q_a + slack[i] / 2) (1 + 8 eps) - slack[i] / 2
    >= q_a (1 + 8 eps). The correctly rounded square root moves each by at
    most a relative eps / 2, so the kernel distances of a and b are in the
    same strict order; only closer values need the kernel to be ordered.
    """

    def __init__(self, coords):
        self.coords = coords
        self.sparse = sp.issparse(coords)
        width = coords.shape[1]
        if self.sparse:
            self.sq_norms = np.asarray(coords.multiply(coords).sum(axis=1)).ravel()
            terms = int(np.diff(coords.indptr).max())
            self.chunk = CSR_CHUNK_PAIRS
        else:
            self.sq_norms = np.einsum("ij,ij->i", coords, coords)
            terms = width
            self.chunk = max(1, RERANK_CHUNK_FLOATS // max(width, 1))
        units = 2 * terms + 4 + 2 * (29 + width.bit_length())
        self.slack = (2.0 * units * np.finfo(np.float64).eps
                      * (self.sq_norms + self.sq_norms.max()))

    def block(self, rows, out: np.ndarray | None = None) -> np.ndarray:
        """Screened squared distances from ``rows`` (a slice or an index
        array) to every row, inf where a row meets itself; written into
        ``out`` when it is given."""
        if self.sparse:
            gram = self.coords @ self.coords[rows].T.toarray(order="C")
            d2 = np.multiply(gram.T, -2.0, out=out, order="C")
        else:
            d2 = np.matmul(self.coords[rows], self.coords.T, out=out)
            d2 *= -2.0
        d2 += self.sq_norms[rows, None]
        d2 += self.sq_norms
        np.maximum(d2, 0.0, out=d2)
        ids = np.arange(len(self.sq_norms))[rows]
        d2[np.arange(len(ids)), ids] = np.inf
        return d2

    def distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Kernel distances between rows ``rows[m]`` and ``cols[m]``; CSR
        rows are densified, byte-equal to those of ``coords.toarray()``."""
        out = np.empty(len(rows))
        for a in range(0, len(rows), self.chunk):
            i, j = rows[a:a + self.chunk], cols[a:a + self.chunk]
            values = self.coords
            if self.sparse:
                ids, local = np.unique(np.concatenate((i, j)), return_inverse=True)
                values, i, j = values[ids].toarray(), local[:len(i)], local[len(i):]
            out[a:a + len(i)] = distances_from(values, i, j)
        return out


def _knn_scan(values: np.ndarray, k: int, scratch: ScanScratch | None = None
              ) -> tuple[np.ndarray, _GramScreen]:
    n = values.shape[0]
    neighbors = np.empty((n, k), dtype=np.int64)
    screen = _GramScreen(values)
    if scratch is None:
        scratch = scan_scratch(n)
    height = min(SCAN_BLOCK_ROWS, n)
    size = height * n
    screened, ranked, mask = (scratch.floats[:size].reshape(height, n),
                              scratch.floats[size:2 * size].reshape(height, n),
                              scratch.mask[:size].reshape(height, n))
    widen = 1.0 + 8.0 * np.finfo(np.float64).eps

    # Screen each block and keep every column at or near each row's k-th
    # boundary: a column whose distance is no more than the k-th smallest
    # screens at most (kth + slack) (1 + 8 eps) + slack.
    for lo in range(0, n, SCAN_BLOCK_ROWS):
        hi = min(lo + SCAN_BLOCK_ROWS, n)
        m = hi - lo
        d2, part = screen.block(slice(lo, hi), out=screened[:m]), ranked[:m]
        np.copyto(part, d2)
        part.partition(k - 1, axis=1)
        slack = screen.slack[lo:hi]
        bound = (part[:, k - 1] + slack) * widen + slack
        if not np.isfinite(bound).all():  # inf admits self, NaN no column
            raise GraphError("squared distances overflow float64")
        flat = np.flatnonzero(np.less_equal(d2, bound[:, None], out=mask[:m]))
        rows, cand = np.divmod(flat, n)
        s = d2.ravel()[flat]
        # Row-major, so each row's candidates are contiguous. Put them in
        # screened order: as an (m, k) array when every row has exactly k,
        # else (ties at the k-th boundary) by a stable sort by row.
        if len(flat) == m * k:
            order = (np.argsort(s.reshape(m, k)) + np.arange(0, m * k, k)[:, None]).ravel()
        else:
            order = np.argsort(s)
            order = order[np.argsort(rows[order].astype(np.min_scalar_type(m - 1)),
                                     kind="stable")]
        cand, s = cand[order], s[order]
        # A run starts at each row's first candidate and after every gap the
        # screen orders (see _GramScreen); the order between runs is exact.
        starts = np.ones(len(rows), dtype=bool)
        starts[1:] = ((rows[1:] != rows[:-1])
                      | (s[1:] > (s[:-1] + slack[rows[:-1]]) * widen))
        run = np.cumsum(starts)
        run_first = np.flatnonzero(starts)[run - 1]
        row_first = np.searchsorted(rows, np.arange(m))
        # The kernel orders the runs of two or more that reach the first k;
        # within a run, equal distances go to the lower column index.
        alone = starts & np.append(starts[1:], True)
        tied = np.flatnonzero(~alone & (run_first - row_first[rows] < k))
        d = screen.distances(lo + rows[tied], cand[tied])
        cand[tied] = cand[tied][np.lexsort((cand[tied], d, run[tied]))]
        neighbors[lo:hi] = cand[row_first[:, None] + np.arange(k)]
    return neighbors, screen


def knn_neighbors(points, k: int, scratch: ScanScratch | None = None) -> np.ndarray:
    """Exact k-NN lists, (n, k) int64: nearest first, ties by lower index,
    no self-loops; k clamped to n-1 with a warning. The scan works in
    ``scratch`` (from ``scan_scratch(n)``) when it is given.

    Raises ``GraphError`` for non-finite points or squared distances that
    overflow float64."""
    values = _as_values(points)
    return _knn_scan(values, _effective_k(k, values.shape[0]), scratch)[0]


def _with_distances(neighbors: np.ndarray, screen: _GramScreen) -> NeighborGraph:
    """The lists ``neighbors`` with the kernel distance of every listed pair."""
    n, k = neighbors.shape
    distances = screen.distances(np.repeat(np.arange(n), k), neighbors.ravel())
    return NeighborGraph(k, neighbors, distances.reshape(n, k))


def build_knn_graph(points, k: int) -> NeighborGraph:
    """``knn_neighbors`` with the kernel distance of every listed pair."""
    values = _as_values(points)
    return _with_distances(*_knn_scan(values, _effective_k(k, values.shape[0])))
