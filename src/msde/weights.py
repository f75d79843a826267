"""Per-sample empirical density weights from a fuzzy similarity graph.

The weight of a sample is the average number of other samples strictly
inside four nested radii, measured not in the raw embedding space but in
"graph space": each sample's coordinate is its row of the symmetrized
fuzzy k-NN membership matrix. The base radius is found by binary search
so that at least 30% of samples have at least ``t_nbd`` strict neighbors.
The fuzzy graph's per-row bandwidths are solved for all rows at once.

No n x n array is formed. The membership matrix G stays sparse, and
``knn._GramScreen`` screens squared distances between its rows one block
at a time (G times the block's rows densified), within a derived slack of
the kernel's; pairs within the slack of a threshold form its window, and
only they go to the kernel. The weights equal, bit for bit, those of the
dense oracle in ``tests/_oracles.py``: the whole n x n kernel distance
matrix of ``G.toarray()`` fed to the same radius bisection, then direct
strict counts.

``prepare_weights`` does all the work for a set of ``t_nbd`` values with
one screen of the row blocks. Pass 1 sorts each block's values once and
reads from them, for each row, every order statistic the radius search
can need for any of them (a row's t-th smallest distance to another row),
and copies the row's smallest values into its head (``HEAD_PER_RANK``
times the largest ``t_nbd``, at most ``HEAD_MAX_WIDTH``). An order
statistic whose window holds one pair is kept as an interval: the
screen's error bound, widened for the square root's rounding, brackets
its distance, and the row is screened again to find the pair, which
``knn.distances_from`` evaluates, only when the search asks about a value
inside the interval (the smallest or largest distance, a bisection
midpoint, the final radius). A window of two or more pairs is settled with
the kernel at once, its columns found in the block by value. The radius
search then runs for every ``t_nbd``, and pass 2 counts the neighbors
strictly inside all of their radii from the heads; a row whose head ends
inside a radius's window or holds a value in one is screened again, and
the kernel decides the pairs in its windows. The working set is
O(``SCREEN_BLOCK_ROWS`` x n), the heads and O(n) per order statistic.
``apply_weights`` looks up one ``t_nbd``'s weights and emits the warnings
its search gave. ``compute_empirical_weights`` is the two for a single
``t_nbd``; ``msde tune`` prepares once per study for every ``t_nbd`` it has
drawn and applies once per trial.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, GraphError
from .knn import NeighborGraph, _GramScreen, build_knn_graph

logger = logging.getLogger(__name__)

# Offset subtracted from the base radius before splitting it into four
# scales; keeps the smallest radius strictly positive.
RADIUS_MARGIN = 1e-6
# Share of samples that must reach t_nbd strict neighbors at the base radius.
TARGET_FRACTION = 0.3
SIGMA_BISECTION_STEPS = 64
RADIUS_BISECTION_STEPS = 60
RADIUS_REL_TOL = 1e-6
DEGENERATE_MIN_DISTANCE = 1e-12  # lower bracket when coincident points make d_min = 0
# Rows per block of the weights' distance screen; each pass's scratch is a
# few arrays this many rows x n. Every decision is exact, so the height
# never changes the result.
SCREEN_BLOCK_ROWS = 64
# Width of the head pass 1 keeps per row for pass 2: HEAD_PER_RANK times the
# largest prepared t_nbd, at most HEAD_MAX_WIDTH (and n - 1), so the heads
# hold at most HEAD_MAX_WIDTH x n values. Pass 2 screens again the rows whose
# head ends inside a count window, so the width changes speed and memory,
# never the result.
HEAD_PER_RANK = 4
HEAD_MAX_WIDTH = 512


@dataclass(frozen=True)
class FuzzyGraph:
    """Symmetrized fuzzy k-NN membership matrix with its per-row scales.

    ``memberships`` is sparse n x n, entries in [0, 1], zero diagonal.
    ``rho`` is each sample's distance to its nearest neighbor and
    ``sigma`` the positive bandwidth that calibrates how fast membership
    decays beyond it.
    """

    memberships: sp.csr_matrix
    rho: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class RadiusSchedule:
    """Base radius and the four shrinking scales derived from it."""

    epsilon: float

    @property
    def delta(self) -> float:
        return (self.epsilon - RADIUS_MARGIN) / 4.0

    @property
    def radii(self) -> tuple[float, float, float, float]:
        d = self.delta
        return tuple(self.epsilon - r * d for r in range(4))


@dataclass(frozen=True)
class DensityWeights:
    """Nonnegative per-sample density weights (multiples of 0.25)."""

    weights: np.ndarray
    schedule: RadiusSchedule
    satisfied_fraction: float


def _solve_bandwidths(dists: np.ndarray, rho: np.ndarray,
                      target: float) -> np.ndarray:
    """Bisect every row's sigma at once so the membership mass beyond the
    nearest neighbor hits ``target``. ``dists`` is ``(n, k-1)``: each row's
    neighbor distances past the nearest one. Each row keeps its own bracket,
    and the row sums run along the contiguous last axis, so every sigma is
    the one a scalar bisection of that row alone would give."""
    lo = np.full(len(dists), 1e-10)
    hi = np.maximum(dists[:, -1], lo) * 1e3 if dists.shape[1] else lo * 1e3
    gaps = np.maximum(dists - rho[:, None], 0.0)
    for _ in range(SIGMA_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        over = np.exp(-gaps / mid[:, None]).sum(axis=1) > target
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return 0.5 * (lo + hi)


def build_fuzzy_graph(points, k_umap: int) -> FuzzyGraph:
    """Exponential-membership k-NN graph, symmetrized by probabilistic union.

    For each sample the nearest neighbor saturates at membership 1; the
    bandwidth sigma is calibrated so the remaining k-1 memberships sum to
    log2(k). Directed memberships A combine into G = A + A^T - A*A^T.
    """
    n = points.shape[0]
    if n < 2:
        raise GraphError(f"fuzzy graph needs at least 2 points, got {n}")
    if k_umap < 2:
        raise ConfigError(f"k_umap must be >= 2, got {k_umap}")
    return _fuzzy_from_knn(build_knn_graph(points, k_umap))


def _fuzzy_from_knn(graph: NeighborGraph) -> FuzzyGraph:
    """``build_fuzzy_graph`` from the exact k-NN lists it builds."""
    n, k_eff = graph.neighbors.shape
    target = math.log2(k_eff) if k_eff > 1 else 0.0

    rho = graph.distances[:, 0].copy()
    sigma = _solve_bandwidths(graph.distances[:, 1:], rho, target)
    vals = np.exp(-np.maximum(graph.distances - rho[:, None], 0.0) / sigma[:, None])

    rows = np.repeat(np.arange(n), k_eff)
    directed = sp.csr_matrix(
        (vals.ravel(), (rows, graph.neighbors.ravel())), shape=(n, n)
    )
    transpose = directed.T.tocsr()
    combined = directed + transpose - directed.multiply(transpose)
    combined = combined.tocsr()
    np.clip(combined.data, 0.0, 1.0, out=combined.data)
    combined.eliminate_zeros()
    return FuzzyGraph(memberships=combined, rho=rho, sigma=sigma)


def _blocks(n: int):
    """``(lo, hi)`` of each block of ``SCREEN_BLOCK_ROWS`` rows."""
    for lo in range(0, n, SCREEN_BLOCK_ROWS):
        yield lo, min(lo + SCREEN_BLOCK_ROWS, n)


def _count_sorted(s: np.ndarray, rows: np.ndarray, x: np.ndarray,
                  right: bool) -> np.ndarray:
    """How many values of the ascending row ``s[rows[q]]`` lie below
    ``x[q]`` (at or below it when ``right``), for every query q at once: one
    binary search that steps all the queries together."""
    width = s.shape[1]
    flat, base = s.ravel(), rows * width
    lo = np.zeros(len(x), dtype=np.intp)
    hi = np.full(len(x), width, dtype=np.intp)
    for _ in range(width.bit_length()):
        mid = (lo + hi) >> 1
        value = flat[base + np.minimum(mid, width - 1)]
        up = ((value <= x) if right else (value < x)) & (lo < hi)
        lo = np.where(up, mid + 1, lo)
        hi = np.where(up, hi, mid)
    return lo


def _windows(s: np.ndarray, picks: np.ndarray, low: np.ndarray,
             high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the ascending block ``s`` and rank index k: how many values
    lie below ``low[:, k]``, and how many in [low, high], the window there,
    which holds position ``picks[k]``. Most windows hold that position
    alone, as its neighbors in the row show; only the others are searched."""
    last = s.shape[1] - 1
    at = np.broadcast_to(picks, low.shape)
    first = np.where((picks == 0) | (s[:, np.maximum(picks - 1, 0)] < low), at, -1)
    stop = np.where((picks == last) | (s[:, np.minimum(picks + 1, last)] > high),
                    at + 1, -1)
    for bound, out, right in ((low, first, False), (high, stop, True)):
        rows, k = np.nonzero(out < 0)
        if rows.size:
            out[rows, k] = _count_sorted(s, rows, bound[rows, k], right)
    return first, stop - first


def _window_columns(d2: np.ndarray, first: np.ndarray, sizes: np.ndarray,
                    high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs in the windows of two or more pairs of a block: window
    (r, k) holds the ``sizes[r, k]`` columns of row r of ``d2`` from sorted
    position ``first[r, k]``, those up to ``high[r, k]``. One pass over the
    block keeps each row's values up to the top of its widest such window;
    sorted, they give every window's columns. Returns each pair's flat
    window index and column, window by window."""
    m, n = d2.shape
    wide = sizes > 1
    flat = np.flatnonzero(d2 <= np.where(wide, high, -np.inf).max(axis=1)[:, None])
    rows = flat // n
    flat = flat[np.lexsort((d2.ravel()[flat], rows))]
    held = np.where(wide, sizes, 0).ravel()
    win = np.repeat(np.arange(held.size), held)
    pos = np.arange(win.size) - np.repeat(np.cumsum(held) - held, held)
    start = np.searchsorted(rows, np.arange(m))[win // sizes.shape[1]]
    return win, flat[start + first.ravel()[win] + pos] % n


class _Bracketed:
    """Each row's t-th smallest distance to another row, known to lie in
    [lo, hi]. Where lo == hi that is the distance. Elsewhere it is the
    kernel distance to the one column whose screened squared distance in
    pass 1 was within twice the slack of ``centers``: only when a question
    about it cannot be answered from the bounds is the row screened again,
    where that column alone lands within the slack of it, and the pair
    evaluated."""

    def __init__(self, screen, lo: np.ndarray, hi: np.ndarray, centers: np.ndarray):
        self.screen, self.lo, self.hi, self.centers = screen, lo, hi, centers
        self.ascending = None  # (sorted lo, sorted hi), once asked

    def settle(self, rows: np.ndarray) -> None:
        """Replace the bounds of the rows in the mask ``rows`` by their
        distances."""
        rows = np.flatnonzero(rows & (self.lo < self.hi))
        for lo, hi in _blocks(len(rows)):
            part = rows[lo:hi]
            near = np.abs(self.screen.block(part) - self.centers[part, None])
            near = near <= self.screen.slack[part, None]
            if not near.any(axis=1).all():
                raise GraphError("distance screen lost an order statistic; "
                                 "are the coordinates finite?")
            cols = np.argmax(near, axis=1)
            self.lo[part] = self.hi[part] = self.screen.distances(part, cols)
            self.ascending = None

    def _ascending(self) -> tuple[np.ndarray, np.ndarray]:
        if self.ascending is None:
            self.ascending = np.sort(self.lo), np.sort(self.hi)
        return self.ascending

    def below(self, eps: float) -> int:
        """How many rows' distances are below ``eps``, counted in the sorted
        bounds once the rows whose bounds hold ``eps`` (as many as have a
        lower bound below it and an upper bound not) have settled."""
        lows, highs = self._ascending()
        if lows.searchsorted(eps) > highs.searchsorted(eps):
            self.settle((self.lo < eps) & (eps <= self.hi))
            lows, highs = self._ascending()
        return int(highs.searchsorted(eps))

    def min(self) -> float:
        """The smallest distance; only rows that can attain it settle."""
        self.settle(self.lo <= self.hi.min())
        return float(self.hi.min())

    def max(self) -> float:
        """The largest distance; only rows that can attain it settle."""
        self.settle(self.hi >= self.lo.max())
        return float(self.lo.max())


def _pass_one(screen, ranks: list[int], head: np.ndarray) -> dict[int, _Bracketed]:
    """Pass 1: per row, the ``ranks``-th smallest distances to other rows,
    and, written into ``head`` (n x width), its head: its width smallest
    screened squared distances, ascending. Each block's values are sorted
    once. The screened t-th smallest squared distance c is within slack / 2
    of the kernel's, so pairs screened more than twice the slack below it
    are surely below, and a window of one pair brackets its distance between
    sqrt(c -+ slack), widened for the square root's rounding."""
    n = len(screen.sq_norms)
    picks = np.asarray(ranks) - 1
    lo_all, hi_all = np.empty((len(ranks), n)), np.empty((len(ranks), n))
    centers_all = np.empty((len(ranks), n))
    width = head.shape[1]
    widen = 1.0 + 8.0 * np.finfo(np.float64).eps
    for lo, hi in _blocks(n):
        d2 = screen.block(slice(lo, hi))
        s = np.sort(d2, axis=1)
        head[lo:hi] = s[:, :width]
        centers, slack = s[:, picks], screen.slack[lo:hi, None]
        high = centers + 2.0 * slack
        first, sizes = _windows(s, picks, centers - 2.0 * slack, high)
        del s
        at = picks - first
        if np.any((at < 0) | (at >= sizes)):
            raise GraphError("distance screen lost an order statistic; "
                             "are the coordinates finite?")
        pair_lo = np.sqrt(np.maximum(centers - slack, 0.0)) / widen
        pair_hi = np.sqrt(centers + slack) * widen
        # A window of two or more pairs is settled now: its t-th smallest
        # is the one at ``at`` among its kernel distances.
        wide = sizes > 1
        if wide.any():
            win, cols = _window_columns(d2, first, sizes, high)
            # A pair in the windows of several ranks is evaluated once.
            pairs, inverse = np.unique((lo + win // len(ranks)) * n + cols,
                                       return_inverse=True)
            d = screen.distances(pairs // n, pairs % n)[inverse]
            held = np.where(wide, sizes, 0)
            starts = (np.cumsum(held) - held.ravel()).reshape(held.shape)
            pair_lo[wide] = pair_hi[wide] = d[np.lexsort((d, win))][(starts + at)[wide]]
        lo_all[:, lo:hi], hi_all[:, lo:hi] = pair_lo.T, pair_hi.T
        centers_all[:, lo:hi] = centers.T
    return {t: _Bracketed(screen, lo_all[j], hi_all[j], centers_all[j])
            for j, t in enumerate(ranks)}


def _below(values: np.ndarray, lows: np.ndarray,
           highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``values`` (screened squared distances, any order), how
    many lie below each window [lows[k], highs[k]], and which lie in one."""
    m, count = len(values), len(lows)
    order = np.argsort(lows, kind="stable")
    below = np.searchsorted(lows[order], values, side="right")
    near = below > np.searchsorted(np.sort(highs), values, side="left")
    below += np.arange(0, m * (count + 1), count + 1)[:, None]
    tally = np.bincount(below.ravel(), minlength=m * (count + 1)).reshape(m, count + 1)
    counts = np.empty((m, count), dtype=np.int64)
    counts[:, order] = np.cumsum(tally, axis=1)[:, :count]
    return counts, near


def _strict_counts(screen, radii: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Pass 2: per row, the other rows strictly inside each of ``radii``,
    (n, len(radii)). A screened value beyond the largest slack, widened by
    the rounding of r^2 and of the kernel's square root, decides a pair: a
    value below its window is inside, one above it outside. Each row is
    counted from its head, unless the head ends inside a window or holds a
    value in one: then the row is screened again, in blocks of such rows,
    and the kernel decides the pairs in its windows."""
    n, width = head.shape
    r2 = np.square(radii)
    spread = screen.slack.max() + 8.0 * np.finfo(np.float64).eps * r2
    lows, highs = r2 - spread, r2 + spread
    counts = np.empty((n, len(radii)), dtype=np.int64)
    again = (head[:, -1] <= highs.max()) & (width < n - 1)
    for lo, hi in _blocks(n):
        counts[lo:hi], near = _below(head[lo:hi], lows, highs)
        again[lo:hi] |= near.any(axis=1)
    again = np.flatnonzero(again)
    for lo, hi in _blocks(len(again)):
        rows = again[lo:hi]
        d2 = screen.block(rows)
        counts[rows], near = _below(d2, lows, highs)
        r, cols = np.nonzero(near)
        v = d2[r, cols, None]
        d = screen.distances(rows[r], cols)
        np.add.at(counts, rows[r], (lows <= v) & (v <= highs) & (d[:, None] < radii))
    return counts


def _clamped_t_nbd(n: int) -> int:
    """The neighbor count t_nbd falls back to when n rows cannot meet it."""
    return max(1, (n - 1) // 2)


def _bisect_radius(n: int, kth, d_min: float, d_max: float, t_nbd: int):
    """Smallest radius at which >= ceil(TARGET_FRACTION*n) rows have at
    least ``t_nbd`` strictly-closer neighbors. ``kth[t]`` (a ``_Bracketed``)
    holds each row's t-th smallest distance to another row, for t = t_nbd
    when t_nbd <= n-1 and for ``_clamped_t_nbd(n)``; ``d_min`` and
    ``d_max`` are the smallest and largest distances between distinct
    rows. Returns (epsilon, t_nbd_used, satisfied_fraction, notes), where
    notes are the messages of the warnings the caller is to emit."""
    need = math.ceil(TARGET_FRACTION * n)
    lo = d_min if d_min > 0.0 else DEGENERATE_MIN_DISTANCE
    hi = d_max if d_max > lo else 2.0 * lo
    notes = []
    t_used = t_nbd
    values = kth.get(t_used)
    if values is None or values.below(hi) < need:
        clamped = _clamped_t_nbd(n)
        if clamped != t_used:
            notes.append(f"t_nbd={t_used} unsatisfiable for n={n}; clamped to {clamped}")
            t_used = clamped
            values = kth[t_used]

    if values.below(lo) >= need:
        eps = lo
    elif values.below(hi) < need:
        # Strict counting can leave even the largest radius short (e.g. two
        # points, whose only distance never counts). Degenerate but legal.
        notes.append("radius search unsatisfiable even at the maximum pairwise "
                     "distance; using it as the base radius")
        eps = hi
    else:
        for _ in range(RADIUS_BISECTION_STEPS):
            if hi - lo <= RADIUS_REL_TOL * hi:
                break
            mid = 0.5 * (lo + hi)
            if values.below(mid) >= need:
                hi = mid
            else:
                lo = mid
        eps = hi
    fraction = values.below(eps) / n
    return eps, t_used, fraction, tuple(notes)


@dataclass(frozen=True)
class PreparedWeights:
    """Per prepared ``t_nbd``: its density weights (read-only), the t_nbd
    its radius search used and the messages of the warnings it gave."""

    searches: dict[int, tuple[DensityWeights, int, tuple[str, ...]]]


def prepare_weights(coords, t_nbds) -> PreparedWeights:
    """Density weights over the rows of ``coords`` (a dense array or a CSR
    matrix) for each of ``t_nbds``: pass 1, every radius search, and one
    pass 2 that counts inside all of their radii."""
    n = coords.shape[0]
    screen = _GramScreen(coords)
    ranks = sorted({1, n - 1, _clamped_t_nbd(n)} | {t for t in t_nbds if t <= n - 1})
    head = np.empty((n, min(n - 1, HEAD_MAX_WIDTH, HEAD_PER_RANK * max(t_nbds))))
    kth = _pass_one(screen, ranks, head)
    d_min, d_max = kth[1].min(), kth[n - 1].max()
    searches = {t: _bisect_radius(n, kth, d_min, d_max, t) for t in sorted(set(t_nbds))}
    epsilons = sorted({eps for eps, *_ in searches.values()})
    radii = np.array([RadiusSchedule(eps).radii for eps in epsilons])
    counts = _strict_counts(screen, radii.ravel(), head)
    counts = counts.reshape(n, *radii.shape).sum(axis=2)
    out = {}
    for t, (eps, t_used, fraction, notes) in searches.items():
        weights = counts[:, epsilons.index(eps)] / 4.0
        weights.flags.writeable = False
        out[t] = (DensityWeights(weights, RadiusSchedule(eps), fraction), t_used, notes)
    return PreparedWeights(out)


def apply_weights(prepared: PreparedWeights, t_nbd: int) -> DensityWeights:
    """The weights prepared for ``t_nbd``, emitting again the clamp and
    unsatisfiable-radius warnings of its radius search."""
    if t_nbd not in prepared.searches:
        raise ConfigError(f"weights were not prepared for t_nbd={t_nbd}")
    weights, t_used, notes = prepared.searches[t_nbd]
    for note in notes:
        warnings.warn(note)
    logger.debug(
        "weights: eps=%.6g t_nbd=%d satisfied=%.3f mean=%.3f",
        weights.schedule.epsilon, t_used, weights.satisfied_fraction,
        weights.weights.mean(),
    )
    return weights


def _weights_from_coords(coords, t_nbd: int) -> DensityWeights:
    """Density weights over the rows of ``coords`` for one ``t_nbd``."""
    return apply_weights(prepare_weights(coords, [t_nbd]), t_nbd)


def compute_empirical_weights(points, t_nbd: int, k_umap: int) -> DensityWeights:
    """Multi-scale strict-radius neighbor counts in graph space.

    Builds the fuzzy membership graph, treats its rows as coordinates,
    finds the base radius by binary search, counts strictly-closer
    neighbors at the four shrinking radii, and averages the four counts.
    """
    n = points.shape[0]
    if n < 2:
        raise GraphError(f"empirical weights need at least 2 points, got {n}")
    if t_nbd < 1:
        raise ConfigError(f"t_nbd must be >= 1, got {t_nbd}")

    fuzzy = build_fuzzy_graph(points, k_umap)
    return _weights_from_coords(fuzzy.memberships, t_nbd)
