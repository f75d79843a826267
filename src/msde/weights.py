"""Per-sample empirical density weights from a fuzzy similarity graph.

The weight of a sample is the average number of other samples strictly
inside four nested radii, measured not in the raw embedding space but in
"graph space": each sample's coordinate is its row of the symmetrized
fuzzy k-NN membership matrix. The base radius is found by binary search
so that at least 30% of samples have at least ``t_nbd`` strict neighbors.
The fuzzy graph's per-row bandwidths are solved for all rows at once.

No n x n array is formed. The membership matrix G stays sparse, and
``knn._GramScreen`` screens squared distances between its rows one block
at a time (G times the block's rows densified), within a derived
slack of the kernel's; it re-evaluates with ``knn.distances_from`` every
pair within that slack of a quantity being decided (a row's t-th smallest
distance, the smallest and largest distance, one of the four radii). The
weights therefore equal, bit for bit, those of the dense oracle in
``tests/_oracles.py``: the whole n x n kernel distance matrix of
``G.toarray()`` fed to the same radius bisection, then direct strict counts.

The work splits into a prepare step and an apply step.
``prepare_weights`` screens the coordinates once and, in one pass over
the row blocks (pass 1), finds every order statistic the radius search
can need for any of a set of ``t_nbd`` values; each order statistic is
exact, so the set never changes it. ``apply_weights`` then runs the
radius bisection for one ``t_nbd`` and counts neighbors inside the four
radii (pass 2, which recomputes the screen rather than store it, so the
working set is O(``SCREEN_BLOCK_ROWS`` x n)). ``compute_empirical_weights``
is the two for a single ``t_nbd``; ``msde tune`` prepares once per study
for every ``t_nbd`` it has drawn and applies once per trial.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, GraphError
from .knn import _GramScreen, build_knn_graph

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
    if k_umap < 1:
        raise ConfigError(f"k_umap must be >= 1, got {k_umap}")

    graph = build_knn_graph(points, k_umap)
    k_eff = graph.k
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


def _order_statistics(screen, ranks: list[int], lo: int, hi: int) -> np.ndarray:
    """Per row of lo:hi, the exact ``ranks``-th smallest distances to
    other rows. The screened t-th smallest is within the slack of the
    true one, so pairs screened more than twice the slack below it are
    surely below; the t-th smallest is found among the re-evaluated."""
    d2 = screen.block(lo, hi)
    pick = np.asarray(ranks) - 1
    centers = np.partition(d2, pick, axis=1)[:, pick]
    widths = np.broadcast_to(2.0 * screen.slack[lo:hi, None], centers.shape)
    rows, exact = screen.settle(d2, lo, centers, widths)
    below = np.stack([np.count_nonzero(d2 < (c - w)[:, None], axis=1)
                      for c, w in zip(centers.T, widths.T)], axis=1)
    at = pick - below
    if np.any((at < 0) | (at >= np.bincount(rows, minlength=hi - lo)[:, None])):
        raise GraphError("distance screen lost an order statistic; "
                         "are the coordinates finite?")
    ascending = exact[np.lexsort((exact, rows))]
    return ascending[np.searchsorted(rows, np.arange(hi - lo))[:, None] + at]


def _strict_counts(screen, radii: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row of lo:hi, the other rows strictly inside each radius,
    summed over the radii. A screened value beyond the slack, widened by
    the rounding of r^2 and of the kernel's square root, decides it."""
    d2 = screen.block(lo, hi)
    r2 = np.square(radii)
    widths = screen.slack[lo:hi, None] + 8.0 * np.finfo(np.float64).eps * r2
    rows, exact = screen.settle(d2, lo, np.broadcast_to(r2, widths.shape), widths)
    counts = sum(np.count_nonzero(d2 < (r - w)[:, None], axis=1)
                 for r, w in zip(r2, widths.T))
    inside = np.count_nonzero(exact[:, None] < radii, axis=1)
    return counts + np.bincount(np.repeat(rows, inside), minlength=hi - lo)


def _scan_blocks(fn, out: np.ndarray) -> np.ndarray:
    """``out[lo:hi] = fn(lo, hi)`` over blocks of ``SCREEN_BLOCK_ROWS`` rows.
    Every row's result is exact, so the block height never changes it."""
    for lo in range(0, len(out), SCREEN_BLOCK_ROWS):
        hi = min(lo + SCREEN_BLOCK_ROWS, len(out))
        out[lo:hi] = fn(lo, hi)
    return out


def _clamped_t_nbd(n: int) -> int:
    """The neighbor count t_nbd falls back to when n rows cannot meet it."""
    return max(1, (n - 1) // 2)


def _bisect_radius(n: int, kth, d_min: float, d_max: float, t_nbd: int):
    """Smallest radius at which >= ceil(TARGET_FRACTION*n) rows have at
    least ``t_nbd`` strictly-closer neighbors. ``kth[t]`` holds each row's
    t-th smallest distance to another row, for t = t_nbd when t_nbd <= n-1
    and for ``_clamped_t_nbd(n)``; ``d_min`` and ``d_max`` are the
    smallest and largest distances between distinct rows. Returns
    (epsilon, t_nbd_used, satisfied_fraction)."""
    need = math.ceil(TARGET_FRACTION * n)
    lo = d_min if d_min > 0.0 else DEGENERATE_MIN_DISTANCE
    hi = d_max if d_max > lo else 2.0 * lo

    def satisfied(values: np.ndarray, eps: float) -> int:
        return int(np.count_nonzero(values < eps))

    t_used = t_nbd
    values = kth.get(t_used)
    if values is None or satisfied(values, hi) < need:
        clamped = _clamped_t_nbd(n)
        if clamped != t_used:
            warnings.warn(
                f"t_nbd={t_used} unsatisfiable for n={n}; clamped to {clamped}"
            )
            t_used = clamped
            values = kth[t_used]

    if satisfied(values, lo) >= need:
        eps = lo
    elif satisfied(values, hi) < need:
        # Strict counting can leave even the largest radius short (e.g. two
        # points, whose only distance never counts). Degenerate but legal.
        warnings.warn(
            "radius search unsatisfiable even at the maximum pairwise "
            "distance; using it as the base radius"
        )
        eps = hi
    else:
        for _ in range(RADIUS_BISECTION_STEPS):
            if hi - lo <= RADIUS_REL_TOL * hi:
                break
            mid = 0.5 * (lo + hi)
            if satisfied(values, mid) >= need:
                hi = mid
            else:
                lo = mid
        eps = hi
    fraction = satisfied(values, eps) / n
    return eps, t_used, fraction


@dataclass(frozen=True)
class PreparedWeights:
    """Screened coordinates with their exact order statistics: ``kth[t]``
    holds each row's t-th smallest distance to another row, for t in 1,
    n-1, ``_clamped_t_nbd(n)`` and every prepared ``t_nbd`` <= n-1."""

    screen: _GramScreen
    kth: dict[int, np.ndarray]


def prepare_weights(coords, t_nbds) -> PreparedWeights:
    """Pass 1 over the rows of ``coords`` (a dense array or a CSR matrix):
    the order statistics the radius search needs for any of ``t_nbds``."""
    n = coords.shape[0]
    screen = _GramScreen(coords)
    ranks = sorted({1, n - 1, _clamped_t_nbd(n)} | {t for t in t_nbds if t <= n - 1})
    stats = _scan_blocks(partial(_order_statistics, screen, ranks),
                         np.empty((n, len(ranks))))
    return PreparedWeights(screen, dict(zip(ranks, stats.T)))


def apply_weights(prepared: PreparedWeights, t_nbd: int) -> DensityWeights:
    """Radius search for ``t_nbd``, then pass 2: four-scale strict counts."""
    kth = prepared.kth
    n = len(kth[1])
    if t_nbd <= n - 1 and t_nbd not in kth:
        raise ConfigError(f"weights were not prepared for t_nbd={t_nbd}")
    eps, t_used, fraction = _bisect_radius(
        n, kth, float(kth[1].min()), float(kth[n - 1].max()), t_nbd)
    schedule = RadiusSchedule(epsilon=eps)

    counts = _scan_blocks(partial(_strict_counts, prepared.screen,
                                  np.array(schedule.radii)),
                          np.empty(n, dtype=np.int64))
    weights = counts / 4.0
    logger.debug(
        "weights: eps=%.6g t_nbd=%d satisfied=%.3f mean=%.3f",
        eps, t_used, fraction, weights.mean(),
    )
    return DensityWeights(weights=weights, schedule=schedule,
                          satisfied_fraction=fraction)


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
