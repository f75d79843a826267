"""Random hyperparameter search under a zero-leakage validation protocol.

Before any trial runs, a validation set is carved out: 20% of the normal
training rows and 10% of the test anomalies. Trials fit only on the
remaining training normals and are scored on that validation set; the
held-back test rows are never touched until the single final evaluation
of the winning parameters, which is retrained on all training normals.

The search takes its input as ``score_rows`` does: one array of the train
rows then the test rows (``msde tune`` reads it with ``data.load_rows``),
which it never writes. ``make_leakage_split`` partitions it by row index.
Every trial's parameters are drawn before any trial runs, each from its
own ``default_rng(seed + trial_index)``. The fit rows then the validation
rows are then gathered into one array and prepared once for all of them
(``scoring.prepare_rows``: the rows standardized in place and, for the
solo and the joint run, one k-NN scan that gives the fuzzy graph and the
iteration-1 neighbor lists at the largest drawn ``k``, and the density
weights for every drawn ``t_nbd``: one pass 1 that screens the rows once,
a radius search per ``t_nbd`` and one pass 2 that counts inside all of
their radii from the rows' heads). Each trial then looks up its weights
and runs only the shift iterations and the scoring. A trial scores
exactly what ``score_rows`` on a copy of that gathered array would. The
final evaluation gathers all train rows then the final test rows into a
second array, after the first is released, and scores it with
``score_rows``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .config import MsdeConfig
from .data import default_row_ids
from .exceptions import MsdeError, SplitError
from .metrics import MetricResult
from .scoring import prepare_rows, score_rows, score_shifted
from .shift import ShiftParams, joint_shift

logger = logging.getLogger(__name__)

DEFAULT_TRIALS = 80
# Exceptions that fail one trial (recorded with the -1 sentinel) rather than
# the search.
_TRIAL_ERRORS = (MsdeError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for the five shift hyperparameters.

    Integer and plain-real ranges are sampled uniformly; ``tol`` is
    sampled log-uniformly. Bounds are inclusive.
    """

    k: tuple[int, int] = (5, 60)
    t_nbd: tuple[int, int] = (3, 80)
    eta: tuple[float, float] = (0.01, 0.5)
    max_iters: tuple[int, int] = (3, 12)
    tol: tuple[float, float] = (1e-4, 0.05)

    def sample(self, rng: np.random.Generator,
               base: ShiftParams = ShiftParams()) -> ShiftParams:
        """One draw of the five fields onto ``base``, which supplies every
        other setting; the draw order is fixed and part of the contract."""
        k = int(rng.integers(self.k[0], self.k[1] + 1))
        t_nbd = int(rng.integers(self.t_nbd[0], self.t_nbd[1] + 1))
        eta = float(rng.uniform(self.eta[0], self.eta[1]))
        max_iters = int(rng.integers(self.max_iters[0], self.max_iters[1] + 1))
        log_lo, log_hi = math.log(self.tol[0]), math.log(self.tol[1])
        tol = float(math.exp(rng.uniform(log_lo, log_hi)))
        return replace(base, k=k, t_nbd=t_nbd, eta=eta, max_iters=max_iters, tol=tol)


class LeakageSplit(NamedTuple):
    """Disjoint sorted row indices for tuning without touching the final
    test rows: ``fit_train`` and ``val_normals`` index the train rows,
    ``val_anomalies`` and ``final_test`` the test rows."""

    fit_train: np.ndarray
    val_normals: np.ndarray
    val_anomalies: np.ndarray
    final_test: np.ndarray


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    params: ShiftParams
    val_auc: float
    val_ap: float
    seed: int


def make_leakage_split(n_train: int, test_labels: np.ndarray, seed: int) -> LeakageSplit:
    """Deterministic shuffled partition of ``n_train`` train rows and the
    test rows with ``test_labels``; fractions floor toward validation."""
    anom_idx = np.flatnonzero(test_labels == 1)
    norm_idx = np.flatnonzero(test_labels == 0)
    if n_train < 5 or anom_idx.size < 10:
        raise SplitError(
            f"leakage split needs >= 5 training normals and >= 10 test "
            f"anomalies, got {n_train} and {anom_idx.size}"
        )
    if norm_idx.size == 0:
        raise SplitError("leakage split needs normal test rows for the final "
                         "evaluation, got none")
    # floor(0.2 n) and floor(0.1 m) in exact integer arithmetic
    n_val_norm = n_train // 5
    n_val_anom = anom_idx.size // 10

    rng = np.random.default_rng(seed)
    train_perm = rng.permutation(n_train)
    anom_perm = anom_idx[rng.permutation(anom_idx.size)]

    return LeakageSplit(
        fit_train=np.sort(train_perm[n_val_norm:]),
        val_normals=np.sort(train_perm[:n_val_norm]),
        val_anomalies=np.sort(anom_perm[:n_val_anom]),
        final_test=np.sort(np.concatenate([norm_idx, anom_perm[n_val_anom:]])),
    )


def _score_trials(rows: np.ndarray, n_train: int, test_ids: tuple[str, ...],
                  split: LeakageSplit, base: MsdeConfig,
                  drawn: list[ShiftParams], seed: int,
                  trial_observer: Callable[[int, np.ndarray, np.ndarray], None] | None
                  ) -> list[TrialRecord]:
    """One record per drawn params, all scored from one preparation of the
    fit rows then the validation rows, gathered from ``rows`` and released
    on return."""
    val_rows = np.concatenate([split.val_normals, n_train + split.val_anomalies])
    train_ids = default_row_ids(n_train, "train")
    val_ids = (*(train_ids[i] for i in split.val_normals),
               *(test_ids[i] for i in split.val_anomalies))
    val_labels = np.repeat(np.array([0, 1], dtype=np.int64),
                           [split.val_normals.size, split.val_anomalies.size])
    prepared, failure = None, None
    try:
        prepared = prepare_rows(rows[np.concatenate([split.fit_train, val_rows])],
                                split.fit_train.size, base, drawn)
    except _TRIAL_ERRORS as exc:
        failure = exc

    records: list[TrialRecord] = []
    for index, params in enumerate(drawn):
        if trial_observer is not None:
            trial_observer(index, split.fit_train, val_rows)
        error = failure
        if error is None:
            try:
                shifted = joint_shift(prepared, params, threads=base.threads)
                metrics = score_shifted(shifted, val_ids, val_labels,
                                        replace(base, shift=params)).metrics
            except _TRIAL_ERRORS as exc:
                error = exc
        if error is None:
            val_auc, val_ap = metrics.auc, metrics.ap
        else:
            logger.warning("trial %d failed: %s", index, error)
            val_auc = val_ap = -1.0
        records.append(TrialRecord(index, params, val_auc, val_ap, seed + index))
        logger.info("trial %d: val_auc=%.4f val_ap=%.4f %s",
                    index, val_auc, val_ap, params)
    return records


def random_search(
    rows: np.ndarray,
    n_train: int,
    test_ids: tuple[str, ...],
    labels: np.ndarray,
    space: SearchSpace,
    n_trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    base_config: MsdeConfig | None = None,
    trial_observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[TrialRecord, list[TrialRecord], MetricResult]:
    """Maximize validation AUC over random draws, then evaluate once.

    ``rows`` holds ``n_train`` train rows then the test rows with
    ``test_ids`` and ``labels``, as ``score_rows`` takes them, but is never
    written: the trials' rows and then the final evaluation's are each
    gathered from it once. Each trial's RNG is seeded with
    ``seed + trial_index``, so trial results do not depend on execution
    order. Trials that fail record a sentinel AUC of -1 and never win; if
    preparing the validation rows fails, every trial does. Ties go to the
    lowest trial index. Each trial draws the ``space`` fields onto
    ``base_config.shift``, so ``k_umap`` and every other unsampled setting
    comes from the base config. ``trial_observer`` (if given) receives each
    trial's index and the indices into ``rows`` of the rows it fits on and
    of the rows it scores, which is how the leakage audit is instrumented.
    """
    if n_trials < 1:
        raise SplitError(f"n_trials must be >= 1, got {n_trials}")
    base = base_config if base_config is not None else MsdeConfig()
    split = make_leakage_split(n_train, labels, seed)
    drawn = [space.sample(np.random.default_rng(seed + index), base.shift)
             for index in range(n_trials)]
    records = _score_trials(rows, n_train, test_ids, split, base, drawn, seed,
                            trial_observer)

    best = max(records, key=lambda r: (r.val_auc, -r.trial_index))
    final = split.final_test
    final_rows = rows[np.concatenate([np.arange(n_train), n_train + final])]
    final_report = score_rows(final_rows, n_train, tuple(test_ids[i] for i in final),
                              labels[final], replace(base, shift=best.params))
    return best, records, final_report.metrics
