"""Random hyperparameter search under a zero-leakage validation protocol.

Before any trial runs, a validation set is carved out: 20% of the normal
training rows and 10% of the test anomalies. Trials fit only on the
remaining training normals and are scored on that validation set; the
held-back test rows are never touched until the single final evaluation
of the winning parameters, which is retrained on all training normals.

Every trial's parameters are drawn before any trial runs, each from its
own ``default_rng(seed + trial_index)``. The validation split is then
prepared once for all of them (``scoring.prepare_split``: the
standardized rows in one array and, for the solo and the joint run, one
k-NN scan that gives the fuzzy graph and the iteration-1 neighbor lists
at the largest drawn ``k``, and the density weights for every drawn
``t_nbd``: one pass 1 that screens the rows once, a radius search per
``t_nbd`` and one pass 2 that counts inside all of their radii from the
rows' heads). Each trial then looks up its weights and
runs only the shift iterations and the scoring. A trial scores exactly
what ``score_pipeline`` on the validation split would.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import MsdeConfig
from .data import DatasetSplit, EmbeddingMatrix, _readonly
from .exceptions import MsdeError, SplitError
from .metrics import MetricResult
from .scoring import prepare_split, score_pipeline, score_shifted
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


@dataclass(frozen=True)
class LeakageSplit:
    """Disjoint partitions for tuning without touching the final test set."""

    fit_train: EmbeddingMatrix
    val_normals: EmbeddingMatrix
    val_anomalies: EmbeddingMatrix
    final_test: DatasetSplit

    def validation_split(self) -> DatasetSplit:
        """Trial-time split: reduced train vs the labeled validation set."""
        values = _readonly(np.vstack([self.val_normals.values,
                                      self.val_anomalies.values]))
        ids = self.val_normals.row_ids + self.val_anomalies.row_ids
        labels = np.concatenate([
            np.zeros(self.val_normals.n_samples, dtype=np.int64),
            np.ones(self.val_anomalies.n_samples, dtype=np.int64),
        ])
        return DatasetSplit(
            train=self.fit_train,
            test=EmbeddingMatrix(values, ids, labels),
        )


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    params: ShiftParams
    val_auc: float
    val_ap: float
    seed: int


def make_leakage_split(split: DatasetSplit, seed: int) -> LeakageSplit:
    """Deterministic shuffled partition; fractions floor toward validation."""
    n_train = split.train.n_samples
    test_labels = split.test.labels
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

    val_norm_rows = np.sort(train_perm[:n_val_norm])
    fit_rows = np.sort(train_perm[n_val_norm:])
    val_anom_rows = np.sort(anom_perm[:n_val_anom])
    kept_anom_rows = np.sort(anom_perm[n_val_anom:])
    final_rows = np.sort(np.concatenate([norm_idx, kept_anom_rows]))

    return LeakageSplit(
        fit_train=split.train.take(fit_rows),
        val_normals=split.train.take(val_norm_rows),
        val_anomalies=split.test.take(val_anom_rows),
        final_test=DatasetSplit(train=split.train, test=split.test.take(final_rows)),
    )


def _score_trials(val_split: DatasetSplit, base: MsdeConfig,
                  drawn: list[ShiftParams], seed: int,
                  trial_observer: Callable[[int, tuple, tuple], None] | None
                  ) -> list[TrialRecord]:
    """One record per drawn params, all scored from one preparation of
    ``val_split``, which is released on return."""
    prepared, failure = None, None
    try:
        prepared = prepare_split(val_split, base, drawn)
    except _TRIAL_ERRORS as exc:
        failure = exc

    records: list[TrialRecord] = []
    for index, params in enumerate(drawn):
        if trial_observer is not None:
            trial_observer(index, val_split.train.row_ids, val_split.test.row_ids)
        error = failure
        if error is None:
            try:
                shifted = joint_shift(prepared, params, threads=base.threads)
                metrics = score_shifted(shifted, val_split.test.row_ids,
                                        val_split.test.labels,
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
    split: DatasetSplit,
    space: SearchSpace,
    n_trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    base_config: MsdeConfig | None = None,
    trial_observer: Callable[[int, tuple, tuple], None] | None = None,
) -> tuple[TrialRecord, list[TrialRecord], MetricResult]:
    """Maximize validation AUC over random draws, then evaluate once.

    Each trial's RNG is seeded with ``seed + trial_index``, so trial
    results do not depend on execution order. Trials that fail record a
    sentinel AUC of -1 and never win; if preparing the validation split
    fails, every trial does. Ties go to the lowest trial index.
    Each trial draws the ``space`` fields onto ``base_config.shift``, so
    ``k_umap`` and every other unsampled setting comes from the base config.
    ``trial_observer`` (if given) receives the row ids each trial sees,
    which is how the leakage audit is instrumented.
    """
    if n_trials < 1:
        raise SplitError(f"n_trials must be >= 1, got {n_trials}")
    base = base_config if base_config is not None else MsdeConfig()
    leakage = make_leakage_split(split, seed)
    drawn = [space.sample(np.random.default_rng(seed + index), base.shift)
             for index in range(n_trials)]
    records = _score_trials(leakage.validation_split(), base, drawn, seed,
                            trial_observer)

    best = max(records, key=lambda r: (r.val_auc, -r.trial_index))
    final_config = replace(base, shift=best.params)
    final_report = score_pipeline(leakage.final_test, final_config)
    return best, records, final_report.metrics
