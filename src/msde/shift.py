"""Iterative density-weighted mean-shift refinement of embeddings.

Each iteration rebuilds the k-NN lists on the current coordinates, moves
every point a fraction ``eta`` of the way toward the density-weighted
mean of its neighborhood (all updates from the iteration-start snapshot),
and stops once the mean displacement drops below ``tol`` or after
``max_iters`` iterations. A step, x <- x + eta (D^-1 A W x - x) with A
the neighbor lists, W the weights and D their sums per list, is one
sparse product. Density weights are computed once per run, on the points
as given. Points are float64 ``(n, d)`` arrays; row ids and labels stay
with the caller.

What a run does before its first step depends on its points, ``k_umap``
and ``t_nbd`` only, not on the other params: the fuzzy graph, the density
weights and the iteration-1 neighbor lists. ``prepare_shift`` builds that
once for a set of params from one exact k-NN scan at the larger of
``k_umap`` and their largest ``k``: exact lists with lower-index
tie-breaks are prefix-closed, so the fuzzy graph takes the first
``k_umap`` columns (with their kernel distances) and each k the first k.
The weights are prepared for every ``t_nbd`` among the params, and
``apply_shift`` runs one of them from it. ``run_shift`` is the two for
one set of params; ``prepare_joint`` and ``joint_shift`` do the same for
the solo and the joint run. Both runs read one array of train rows then
test rows: the joint run's points are that array, and the solo run's are
its train rows.

A run allocates one ``knn.ScanScratch``, large enough for a k-NN scan's
blocks and for a step's n x d temporaries, and every scan and step of its
loop works in it, so no iteration allocates block-sized buffers.

At ``threads >= 2`` these two run the solo and the joint run on a thread
each (msde's only fan-out); each run is single-threaded, so results never
depend on ``threads``. With ``MSDE_LOG=info`` their lines may interleave.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, GraphError, NumericError
# build_knn_graph stays bound here: perfbench's tracer wraps every binding
# of it, and its tests read this one.
from .knn import build_knn_graph  # noqa: F401
from .knn import (ScanScratch, _as_values, _effective_k, _knn_scan,
                  _with_distances, knn_neighbors, scan_scratch)
from .parallel import map_row_blocks
from .weights import (DensityWeights, PreparedWeights, _fuzzy_from_knn,
                      apply_weights, prepare_weights)

logger = logging.getLogger(__name__)


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


def shift_step(values: np.ndarray, neighbors: np.ndarray, weights: np.ndarray,
               eta: float, scratch: ScanScratch | None = None
               ) -> tuple[np.ndarray, float]:
    """One synchronous update from the snapshot; returns (new, mean shift).

    ``neighbors`` is the (n, k) integer array of each row's neighbor lists,
    as ``knn_neighbors`` returns it, and ``weights`` holds one density
    weight per row. One product of the lists, as a CSR matrix of ones in
    list order, with the once-scaled rows adds each row's w_j * x_j in the
    order of its list (scipy sums CSR-times-dense in stored order).
    Neighborhoods whose weights sum to zero fall back to the unweighted
    neighborhood mean so the target stays defined. The scaled rows, and
    then each row's displacement, are written to the first n * d floats of
    ``scratch`` when it is given.
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
    out = None if scratch is None else scratch.floats[:n * d].reshape(n, d)
    scaled = np.multiply(weights[:, None], values, out=out)
    size, k = neighbors.size, neighbors.shape[1]
    new = sp.csr_matrix((np.ones(size), neighbors.ravel(), np.arange(0, size + 1, k)),
                        shape=(n, n)) @ scaled
    zero = wsum == 0.0
    if eta == 1.0:
        # The target is kept, so is a zero's sign: sums start from +0.0, and a
        # kept row's zero sum is -0.0 when every term (the first too) is -0.0.
        rows, cols = np.divmod(np.flatnonzero(new == 0.0), d)
        maybe = ~zero[rows] & np.signbit(scaled[neighbors[rows, 0], cols])
        rows, cols = rows[maybe], cols[maybe]
        negative = np.signbit(scaled[neighbors[rows], cols[:, None]]).all(axis=1)
        new[rows[negative], cols[negative]] = -0.0
    np.divide(new, np.where(zero, 1.0, wsum)[:, None], out=new)
    new[zero] = values[neighbors[zero]].mean(axis=1)
    if eta != 1.0:
        # x + eta * (t - x) in place; a zero t gives the same bits either sign
        new -= values
        new *= eta
        new += values
    if not np.all(np.isfinite(new)):
        bad = int(np.argwhere(~np.isfinite(new))[0][0])
        raise NumericError(f"non-finite coordinates after shift step at row {bad}")
    moved = np.subtract(new, values, out=scaled)
    delta = float(np.sqrt(np.einsum("ij,ij->i", moved, moved)).mean())
    return new, delta


@dataclass(frozen=True)
class ShiftInput:
    """The work every shift run over one set of points shares.

    ``weights`` holds the density weights, for every prepared ``t_nbd``,
    on the points' fuzzy graph built with ``k_umap``, and ``neighbors``
    their exact k-NN lists at the largest prepared k (clamped to n-1).
    """

    k_umap: int
    weights: PreparedWeights
    neighbors: np.ndarray


def prepare_shift(points: np.ndarray,
                  params: Sequence[ShiftParams]) -> ShiftInput | None:
    """What every run of ``params`` over ``points`` shares, built once
    from one k-NN scan; None when none of them shifts (``max_iters == 0``
    needs nothing). The graph takes the first shifting params'
    ``k_umap``, and ``apply_shift`` refuses params with another."""
    shifting = [p for p in params if p.max_iters > 0]
    if not shifting:
        return None
    n = points.shape[0]
    if n < 2:
        raise GraphError(f"shift needs at least 2 points, got {n}")
    k_umap = shifting[0].k_umap
    values = _as_values(points)
    umap = _effective_k(k_umap, n)
    k = min(max(p.k for p in shifting), n - 1)
    neighbors, screen = _knn_scan(values, max(umap, k))
    fuzzy = _fuzzy_from_knn(_with_distances(neighbors[:, :umap], screen))
    weights = prepare_weights(fuzzy.memberships, [p.t_nbd for p in shifting])
    return ShiftInput(k_umap, weights, neighbors[:, :k])


def apply_shift(points: np.ndarray, prepared: ShiftInput | None,
                params: ShiftParams) -> ShiftedEmbeddings:
    """Full refinement loop over ``points`` from ``prepare_shift(points,
    ...)``: the prepared weights of ``params.t_nbd``, then k-NN + step per
    iteration, where iteration 1 takes its lists from the prepared ones.
    Every scan and step works in one scratch, allocated here."""
    if params.max_iters == 0:
        return ShiftedEmbeddings(points, ShiftTrace(0, (), False), None)
    if (prepared is None or params.k_umap != prepared.k_umap
            or len(prepared.neighbors) != len(points)
            or min(params.k, len(points) - 1) > prepared.neighbors.shape[1]):
        raise ConfigError(f"shift input was not prepared for {params}")
    n, d = points.shape
    weights = apply_weights(prepared.weights, params.t_nbd)
    neighbors = prepared.neighbors[:, :_effective_k(params.k, n)]
    scratch = scan_scratch(n, n * d)
    values = points
    deltas: list[float] = []
    converged = False
    for iteration in range(1, params.max_iters + 1):
        if iteration > 1:
            neighbors = knn_neighbors(values, params.k, scratch)
        values, delta = shift_step(values, neighbors, weights.weights, params.eta,
                                   scratch)
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
    """The rows of both runs (``rows``: ``n_train`` train rows then the test
    rows, one C-contiguous array) with the prepared inputs of the solo run
    (train rows) and of the joint run (all rows). ``train`` and ``test`` are
    views of ``rows`` taken at their first use, so they are writable when
    ``rows`` is writable then."""

    rows: np.ndarray
    n_train: int
    solo: ShiftInput | None
    joint: ShiftInput | None

    @cached_property
    def train(self) -> np.ndarray:
        return self.rows[:self.n_train]

    @cached_property
    def test(self) -> np.ndarray:
        return self.rows[self.n_train:]


def _solo_and_joint(solo, joint, threads: int) -> list:
    """``[solo(), joint()]``, on a thread each at ``threads >= 2``; when
    both fail, the solo half's exception is raised, as in order."""
    halves, out = (solo, joint), [None, None]

    def worker(start: int, stop: int) -> None:
        for i in range(start, stop):
            out[i] = halves[i]()

    map_row_blocks(worker, 2, threads)
    return out


def prepare_joint(rows: np.ndarray, n_train: int,
                  params: Sequence[ShiftParams], threads: int = 1) -> JointInput:
    """``prepare_shift`` for the solo and the joint run of ``params`` over
    ``rows``, a C-contiguous float64 array of ``n_train`` train rows then
    the test rows. The array is taken over, not copied, and made read-only:
    every trial of a study shares it. A caller that scores it once may make
    it writable again before the runs (``scoring.score_rows`` does)."""
    rows.flags.writeable = False
    train = rows[:n_train]
    solo, joint = _solo_and_joint(lambda: prepare_shift(train, params),
                                  lambda: prepare_shift(rows, params), threads)
    return JointInput(rows, n_train, solo, joint)


def joint_shift(prepared: JointInput, params: ShiftParams, threads: int = 1
                ) -> tuple[ShiftedEmbeddings, ShiftedEmbeddings, np.ndarray]:
    """Refine train alone (for model fitting) and train+test jointly.

    Returns ``(solo, joint, test_values)``: the solo train run, the run
    over all the prepared rows, and that run's test rows. The joint run has
    its own weights and radii, so test samples are scored from geometry
    consistent with the train set. With ``max_iters == 0`` both runs pass
    their rows through, so the test rows are a view of ``prepared.rows``.
    """
    train = prepared.train
    solo, joint = _solo_and_joint(
        lambda: apply_shift(train, prepared.solo, params),
        lambda: apply_shift(prepared.rows, prepared.joint, params),
        threads)
    return solo, joint, joint.values[len(train):]
