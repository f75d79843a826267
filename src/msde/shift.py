"""Iterative density-weighted mean-shift refinement of embeddings.

Each iteration rebuilds the k-NN lists on the current coordinates, moves
every point a fraction ``eta`` of the way toward the density-weighted
mean of its neighborhood (all updates from the iteration-start snapshot),
and stops once the mean displacement drops below ``tol`` or after
``max_iters`` iterations. Density weights are computed once per run, on
the points as given. Points are float64 ``(n, d)`` arrays; row ids and
labels stay with the caller.

What a run does before its first step depends on its points and
``k_umap`` only, not on the other params: the fuzzy graph, pass 1 of the
density weights and the iteration-1 neighbor lists. ``prepare_shift``
builds that once for a set of params (every ``t_nbd`` among them, and the
largest ``k``: exact lists with lower-index tie-breaks are prefix-closed,
so each k takes the first k columns), and ``apply_shift`` runs one of
them from it. ``run_shift`` is the two for one set of params;
``prepare_joint`` and ``joint_shift`` do the same for the solo and the
joint run.

At ``threads >= 2`` these two run the solo and the joint run on a thread
each (msde's only fan-out); each run is single-threaded, so results never
depend on ``threads``. With ``MSDE_LOG=info`` their lines may interleave.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, GraphError, NumericError
# build_knn_graph stays bound here: perfbench's tracer wraps every binding
# of it, and its tests read this one.
from .knn import _effective_k, build_knn_graph, knn_neighbors  # noqa: F401
from .parallel import map_row_blocks
from .weights import (DensityWeights, PreparedWeights, apply_weights,
                      build_fuzzy_graph, prepare_weights)

logger = logging.getLogger(__name__)

# Floats per row block of the shift step. Each step scales every row by its
# weight once; a block then sums its rows' scaled neighbors one neighbor
# column at a time, into an accumulator and a gather buffer of
# max(1, STEP_BLOCK_FLOATS // d) rows each, so both stay cache-sized (64
# rows at d = 512). Every row sums in its own neighbor order, so the
# height never changes the result.
STEP_BLOCK_FLOATS = 2**15


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

    ``neighbors`` is the (n, k) integer array of each row's neighbor lists,
    as ``knn_neighbors`` returns it, and ``weights`` holds one density
    weight per row. A row's weighted sum adds the products w_j * x_j,
    taken from the once-scaled rows, one at a time in the order of its
    list. Neighborhoods whose weights sum to zero fall back to the
    unweighted neighborhood mean so the target stays defined.
    """
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"eta must be in (0, 1], got {eta}")
    n, d = values.shape
    if (neighbors.ndim != 2 or neighbors.dtype.kind not in "iu"
            or neighbors.shape[0] != n or neighbors.shape[1] < 1):
        raise GraphError(f"neighbor lists must be an integer ({n}, k >= 1) "
                         f"array, got {neighbors.dtype} {neighbors.shape}")
    if n and (neighbors.min() < 0 or neighbors.max() >= n):
        raise GraphError(f"neighbor indices must lie in [0, {n}), got "
                         f"[{neighbors.min()}, {neighbors.max()}]")
    if weights.shape != (n,):
        raise GraphError(f"weights must have shape ({n},), got {weights.shape}")
    wsum = weights[neighbors].sum(axis=1)
    scaled = weights[:, None] * values
    new = np.empty_like(values)
    rows = max(1, STEP_BLOCK_FLOATS // max(d, 1))
    acc = np.empty((min(rows, n), d))
    term = np.empty_like(acc)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        nbr = neighbors[start:stop]
        block_acc, block_term = acc[:stop - start], term[:stop - start]
        # indices were checked above; "wrap" lets take write out= unbuffered
        np.take(scaled, nbr[:, 0], axis=0, out=block_acc, mode="wrap")
        for j in range(1, nbr.shape[1]):
            np.take(scaled, nbr[:, j], axis=0, out=block_term, mode="wrap")
            block_acc += block_term
        block_sum = wsum[start:stop]
        zero = block_sum == 0.0
        safe = np.where(zero, 1.0, block_sum)
        targets = new[start:stop]
        np.divide(block_acc, safe[:, None], out=targets)
        if zero.any():
            targets[zero] = values[nbr[zero]].mean(axis=1)
        if eta != 1.0:
            # x + eta * (t - x); eta == 1 keeps the target exactly
            targets -= values[start:stop]
            targets *= eta
            targets += values[start:stop]
    if not np.all(np.isfinite(new)):
        bad = int(np.argwhere(~np.isfinite(new))[0][0])
        raise NumericError(f"non-finite coordinates after shift step at row {bad}")
    moved = np.subtract(new, values, out=scaled)
    delta = float(np.sqrt(np.einsum("ij,ij->i", moved, moved)).mean())
    return new, delta


@dataclass(frozen=True)
class ShiftInput:
    """The work every shift run over one set of points shares.

    ``weights`` is pass 1 of the density weights on the points' fuzzy
    graph, built with ``k_umap``, and ``neighbors`` their exact k-NN lists
    at the largest prepared k (clamped to n-1).
    """

    k_umap: int
    weights: PreparedWeights
    neighbors: np.ndarray


def prepare_shift(points: np.ndarray,
                  params: Sequence[ShiftParams]) -> ShiftInput | None:
    """What every run of ``params`` over ``points`` shares, built once;
    None when none of them shifts (``max_iters == 0`` needs nothing). The
    graph takes the first shifting params' ``k_umap``, and ``apply_shift``
    refuses params with another."""
    shifting = [p for p in params if p.max_iters > 0]
    if not shifting:
        return None
    n = points.shape[0]
    if n < 2:
        raise GraphError(f"shift needs at least 2 points, got {n}")
    k_umap = shifting[0].k_umap
    fuzzy = build_fuzzy_graph(points, k_umap)
    weights = prepare_weights(fuzzy.memberships, [p.t_nbd for p in shifting])
    neighbors = knn_neighbors(points, min(max(p.k for p in shifting), n - 1))
    return ShiftInput(k_umap, weights, neighbors)


def apply_shift(points: np.ndarray, prepared: ShiftInput | None,
                params: ShiftParams) -> ShiftedEmbeddings:
    """Full refinement loop over ``points`` from ``prepare_shift(points,
    ...)``: the weights' radius search and counts, then k-NN + step per
    iteration, where iteration 1 takes its lists from the prepared ones."""
    if params.max_iters == 0:
        return ShiftedEmbeddings(points, ShiftTrace(0, (), False), None)
    n = points.shape[0]
    if (prepared is None or params.k_umap != prepared.k_umap
            or len(prepared.neighbors) != n
            or min(params.k, n - 1) > prepared.neighbors.shape[1]):
        raise ConfigError(f"shift input was not prepared for {params}")
    weights = apply_weights(prepared.weights, params.t_nbd)
    neighbors = prepared.neighbors[:, :_effective_k(params.k, n)]
    values = points
    deltas: list[float] = []
    converged = False
    for iteration in range(1, params.max_iters + 1):
        if iteration > 1:
            neighbors = knn_neighbors(values, params.k)
        values, delta = shift_step(values, neighbors, weights.weights, params.eta)
        deltas.append(delta)
        logger.info("shift iteration %d: mean displacement %.6g", iteration, delta)
        if delta < params.tol:
            converged = True
            break
    trace = ShiftTrace(len(deltas), tuple(deltas), converged)
    return ShiftedEmbeddings(values, trace, weights)


def run_shift(points: np.ndarray, params: ShiftParams) -> ShiftedEmbeddings:
    """Full refinement loop: weights once, then iterate k-NN + step."""
    return apply_shift(points, prepare_shift(points, [params]), params)


@dataclass(frozen=True)
class JointInput:
    """Train and test rows with the prepared inputs of the solo run (train
    rows) and of the joint run (train then test rows). The stacked rows
    are not kept: the joint run stacks them again when it starts."""

    train: np.ndarray
    test: np.ndarray
    solo: ShiftInput | None
    joint: ShiftInput | None


def _solo_and_joint(solo, joint, threads: int) -> list:
    """``[solo(), joint()]``, on a thread each at ``threads >= 2``; when
    both fail, the solo half's exception is raised, as in order."""
    halves, out = (solo, joint), [None, None]

    def worker(start: int, stop: int) -> None:
        for i in range(start, stop):
            out[i] = halves[i]()

    map_row_blocks(worker, 2, threads)
    return out


def prepare_joint(train: np.ndarray, test: np.ndarray,
                  params: Sequence[ShiftParams], threads: int = 1) -> JointInput:
    """``prepare_shift`` for the solo and the joint run of ``params``."""
    if all(p.max_iters == 0 for p in params):
        return JointInput(train, test, None, None)
    solo, joint = _solo_and_joint(
        lambda: prepare_shift(train, params),
        lambda: prepare_shift(np.vstack([train, test]), params), threads)
    return JointInput(train, test, solo, joint)


def joint_shift(prepared: JointInput, params: ShiftParams, threads: int = 1
                ) -> tuple[ShiftedEmbeddings, ShiftedEmbeddings, np.ndarray]:
    """Refine train alone (for model fitting) and train+test jointly.

    Returns ``(solo, joint, test_values)``: the solo train run, the run
    over the stacked train and test rows, and that run's test rows. The
    joint run has its own weights and radii, so test samples are scored
    from geometry consistent with the train set. With ``max_iters == 0``
    nothing moves, so the joint run is skipped: ``joint`` is ``solo`` and
    the test rows are returned as given.
    """
    train, test = prepared.train, prepared.test
    if params.max_iters == 0:
        solo = apply_shift(train, prepared.solo, params)
        return solo, solo, test
    solo, joint = _solo_and_joint(
        lambda: apply_shift(train, prepared.solo, params),
        lambda: apply_shift(np.vstack([train, test]), prepared.joint, params),
        threads)
    return solo, joint, joint.values[train.shape[0]:]
