"""Per-sample empirical density weights from a fuzzy similarity graph.

The weight of a sample is the average number of other samples strictly
inside four nested radii, measured not in the raw embedding space but in
"graph space": each sample's coordinate is its row of the symmetrized
fuzzy k-NN membership matrix. The base radius is found by binary search
so that at least 30% of samples have at least ``t_nbd`` strict neighbors.
The fuzzy graph's per-row bandwidths are solved for all rows at once.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, GraphError
from .knn import build_knn_graph, distances_from
from .parallel import map_row_blocks

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
# Rows of ``values`` per distance-kernel call in ``pairwise_distances``; keeps
# the kernel's temporaries this many rows high instead of n x n. Each output
# element is the same reduction over one contiguous row, so the height never
# changes the result.
PAIRWISE_BLOCK_ROWS = 64


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

    @property
    def n_samples(self) -> int:
        return self.memberships.shape[0]


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


def pairwise_distances(points, threads: int = 1) -> np.ndarray:
    """Dense n x n Euclidean distance matrix via the canonical kernel."""
    values = np.ascontiguousarray(points, dtype=np.float64)
    n = values.shape[0]
    out = np.empty((n, n))

    def worker(start: int, stop: int) -> None:
        for i in range(start, stop):
            for lo in range(0, n, PAIRWISE_BLOCK_ROWS):
                cols = slice(lo, lo + PAIRWISE_BLOCK_ROWS)
                out[i, cols] = distances_from(values, i, cols)

    map_row_blocks(worker, n, threads)
    return out


def _kth_neighbor_distance(dist_matrix: np.ndarray, t_nbd: int) -> np.ndarray:
    """Per row, the t_nbd-th smallest distance to another point.

    ``dist_matrix`` must carry an inf diagonal; each row is partitioned in place.
    """
    dist_matrix.partition(t_nbd - 1, axis=1)
    return dist_matrix[:, t_nbd - 1].copy()


def _bisect_radius(dist_matrix: np.ndarray, t_nbd: int):
    """Smallest radius at which >= ceil(TARGET_FRACTION*n) rows have at
    least ``t_nbd`` strictly-closer neighbors. Returns (epsilon, t_nbd_used,
    satisfied_fraction). Sets the zero diagonal of ``dist_matrix`` to inf
    and partitions its rows in place."""
    n = dist_matrix.shape[0]
    need = math.ceil(TARGET_FRACTION * n)
    # Distances are >= 0, so the zero diagonal cannot raise the maximum.
    d_max = float(dist_matrix.max())
    np.fill_diagonal(dist_matrix, np.inf)
    d_min = float(dist_matrix.min())
    lo = d_min if d_min > 0.0 else DEGENERATE_MIN_DISTANCE
    hi = d_max if d_max > lo else 2.0 * lo

    def satisfied(kth: np.ndarray, eps: float) -> int:
        return int(np.count_nonzero(kth < eps))

    t_used = t_nbd
    kth = _kth_neighbor_distance(dist_matrix, t_used) if t_used <= n - 1 else None
    if kth is None or satisfied(kth, hi) < need:
        clamped = max(1, (n - 1) // 2)
        if clamped != t_used:
            warnings.warn(
                f"t_nbd={t_used} unsatisfiable for n={n}; clamped to {clamped}"
            )
            t_used = clamped
            kth = _kth_neighbor_distance(dist_matrix, t_used)

    if satisfied(kth, lo) >= need:
        eps = lo
    elif satisfied(kth, hi) < need:
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
            if satisfied(kth, mid) >= need:
                hi = mid
            else:
                lo = mid
        eps = hi
    fraction = satisfied(kth, eps) / n
    return eps, t_used, fraction


def _weights_from_coords(coords: np.ndarray, t_nbd: int,
                         threads: int) -> DensityWeights:
    """Radius search plus four-scale strict counting over given coordinates."""
    n = coords.shape[0]
    dist_matrix = pairwise_distances(coords, threads=threads)
    eps, t_used, fraction = _bisect_radius(dist_matrix, t_nbd)
    schedule = RadiusSchedule(epsilon=eps)

    counts = np.zeros(n)
    for radius in schedule.radii:
        counts += np.count_nonzero(dist_matrix < radius, axis=1)
    weights = counts / 4.0
    logger.debug(
        "weights: eps=%.6g t_nbd=%d satisfied=%.3f mean=%.3f",
        eps, t_used, fraction, weights.mean(),
    )
    return DensityWeights(weights=weights, schedule=schedule,
                          satisfied_fraction=fraction)


def compute_empirical_weights(points, t_nbd: int, k_umap: int,
                              threads: int = 1) -> DensityWeights:
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
    coords = np.ascontiguousarray(fuzzy.memberships.toarray())
    return _weights_from_coords(coords, t_nbd, threads)
