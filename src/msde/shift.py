"""Iterative density-weighted mean-shift refinement of embeddings.

Each iteration rebuilds the k-NN lists on the current coordinates, moves
every point a fraction ``eta`` of the way toward the density-weighted
mean of its neighborhood (all updates from the iteration-start snapshot),
and stops once the mean displacement drops below ``tol`` or after
``max_iters`` iterations. Density weights are computed once per run, on
the points as given. Points are float64 ``(n, d)`` arrays; row ids and
labels stay with the caller.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, GraphError, NumericError
# build_knn_graph stays bound here: perfbench's tracer wraps every binding
# of it, and its tests read this one.
from .knn import build_knn_graph, knn_neighbors  # noqa: F401
from .weights import DensityWeights, compute_empirical_weights

logger = logging.getLogger(__name__)

# Rows per gather block in the shift step. The gathered neighborhoods take
# rows * k * d floats, so 16 rows keep that temporary cache-sized
# (16 * k * d). Each row is reduced on its own, so the height never
# changes the result.
STEP_BLOCK_ROWS = 16


@dataclass(frozen=True)
class ShiftParams:
    """Shift hyperparameters; defaults are the fixed universal settings.

    ``max_iters = 0`` is the explicit no-shift baseline: points pass
    through unchanged.
    """

    k: int = 50
    eta: float = 0.33
    max_iters: int = 8
    tol: float = 0.01
    t_nbd: int = 70
    k_umap: int = 15

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.t_nbd < 1:
            raise ConfigError(f"t_nbd must be >= 1, got {self.t_nbd}")
        if self.k_umap < 2:
            raise ConfigError(f"k_umap must be >= 2, got {self.k_umap}")


@dataclass(frozen=True)
class ShiftTrace:
    """Mean displacement per iteration and whether the run converged."""

    iterations_run: int
    deltas: tuple[float, ...] = field(default_factory=tuple)
    converged: bool = False


@dataclass(frozen=True)
class ShiftedEmbeddings:
    values: np.ndarray
    trace: ShiftTrace
    weights_used: DensityWeights | None


def shift_step(values: np.ndarray, neighbors: np.ndarray,
               weights: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """One synchronous update from the snapshot; returns (new, mean shift).

    ``neighbors`` is the (n, k) array of each row's neighbor lists, as
    ``knn_neighbors`` returns it; the order of a list sets the order of its
    sums. ``weights`` holds one density weight per row. Neighborhoods whose
    weights sum to zero fall back to the unweighted neighborhood mean so
    the target stays defined.
    """
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"eta must be in (0, 1], got {eta}")
    n = values.shape[0]
    if neighbors.shape[0] != n:
        raise GraphError(f"neighbor lists for {neighbors.shape[0]} points, got {n}")
    w = weights[neighbors]
    wsum = w.sum(axis=1)
    new = np.empty_like(values)
    for start in range(0, n, STEP_BLOCK_ROWS):
        stop = min(start + STEP_BLOCK_ROWS, n)
        nb = values[neighbors[start:stop]]
        weighted = (w[start:stop, :, None] * nb).sum(axis=1)
        block_sum = wsum[start:stop]
        zero = block_sum == 0.0
        safe = np.where(zero, 1.0, block_sum)
        targets = weighted / safe[:, None]
        if zero.any():
            targets[zero] = nb[zero].mean(axis=1)
        if eta == 1.0:
            # algebraically x + 1*(t - x) = t; take it exactly
            new[start:stop] = targets
        else:
            new[start:stop] = values[start:stop] + eta * (targets - values[start:stop])
    if not np.all(np.isfinite(new)):
        bad = int(np.argwhere(~np.isfinite(new))[0][0])
        raise NumericError(f"non-finite coordinates after shift step at row {bad}")
    moved = new - values
    delta = float(np.sqrt(np.einsum("ij,ij->i", moved, moved)).mean())
    return new, delta


def run_shift(points: np.ndarray, params: ShiftParams,
              threads: int = 1) -> ShiftedEmbeddings:
    """Full refinement loop: weights once, then iterate k-NN + step."""
    if params.max_iters == 0:
        return ShiftedEmbeddings(points, ShiftTrace(0, (), False), None)
    if points.shape[0] < 2:
        raise GraphError(f"shift needs at least 2 points, got {points.shape[0]}")

    weights = compute_empirical_weights(
        points, params.t_nbd, params.k_umap, threads=threads
    )
    values = points
    deltas: list[float] = []
    converged = False
    for iteration in range(1, params.max_iters + 1):
        neighbors = knn_neighbors(values, params.k)
        values, delta = shift_step(values, neighbors, weights.weights, params.eta)
        deltas.append(delta)
        logger.info("shift iteration %d: mean displacement %.6g", iteration, delta)
        if delta < params.tol:
            converged = True
            break
    trace = ShiftTrace(len(deltas), tuple(deltas), converged)
    return ShiftedEmbeddings(values, trace, weights)


def joint_shift(train: np.ndarray, test: np.ndarray, params: ShiftParams,
                threads: int = 1
                ) -> tuple[ShiftedEmbeddings, ShiftedEmbeddings, np.ndarray]:
    """Refine train alone (for model fitting) and train+test jointly.

    Returns ``(solo, joint, test_values)``: the solo train run, the run
    over the stacked train and test rows, and that run's test rows. The
    joint run recomputes weights and radii from scratch, so test samples
    are scored from geometry consistent with the train set. With
    ``max_iters == 0`` nothing moves, so the joint run is skipped:
    ``joint`` is ``solo`` and ``test`` is returned as given.
    """
    solo = run_shift(train, params, threads=threads)
    if params.max_iters == 0:
        return solo, solo, test
    joint = run_shift(np.vstack([train, test]), params, threads=threads)
    return solo, joint, joint.values[train.shape[0]:]
