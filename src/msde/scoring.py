"""PCA reduction, regularized Gaussian fitting, Mahalanobis scoring.

The model is fitted on (solo-)shifted training embeddings only: PCA by
symmetric eigendecomposition of the sample covariance, then a Gaussian
with Tikhonov-regularized covariance whose inverse is applied through a
Cholesky factorization. Raw test scores are Mahalanobis distances;
normalized scores squash their z-scores through a logistic map. The
fitting and scoring functions take float64 ``(n, d)`` arrays; only
``score_shifted`` reads row ids and labels, which it is given.

``fit_pca``, ``project`` and ``fit_gaussian`` center a copy of their
input and never write it. ``score_shifted`` runs the same private cores
but centers inside the shifted rows it is given, and the train
projection inside itself, so fitting and scoring hold no centered n x d
copy; read-only rows are centered into new arrays instead.

``score_rows`` is the pipeline: ``prepare_rows`` over one array of train
rows then test rows (standardize it in place with the train rows'
statistics and hand it to ``shift.prepare_joint``, so both shift runs read
that one array), ``shift.joint_shift``, then ``score_shifted``. ``msde
run`` reads its input files straight into that array
(``data.load_rows``); ``score_pipeline`` copies a ``DatasetSplit``'s train
rows then test rows into it; ``score_rows`` makes that array writable
again after preparation, so without shift iterations the fit centers its
train and test rows in place. ``msde tune`` gathers its trials' rows from
the loaded array once, prepares them once for every trial's params
(``prepare_rows``) and shares the read-only array across the trials.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .config import MsdeConfig
from .data import DatasetSplit, apply_standardizer, fit_standardizer
from .exceptions import FitError, NumericError, ShapeError
from .metrics import MetricResult, evaluate
from .shift import (JointInput, ShiftedEmbeddings, ShiftParams, ShiftTrace,
                    joint_shift, prepare_joint)
from .weights import DensityWeights

logger = logging.getLogger(__name__)

# Spread below this makes z-scoring meaningless; scores collapse to 0.5.
NORMALIZE_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal top principal directions of the training distribution."""

    center: np.ndarray               # (input_dim,)
    components: np.ndarray           # (reduced_dim, input_dim), rows orthonormal
    explained_variance: np.ndarray   # (reduced_dim,), nonincreasing

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]

    @property
    def reduced_dim(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True)
class GaussianScorer:
    """Fitted reduced-space Gaussian with regularized covariance.

    The Cholesky factor of ``sigma`` is taken on construction; scoring
    solves against it, and an indefinite ``sigma`` raises ``NumericError``.
    """

    mu: np.ndarray
    sigma: np.ndarray       # covariance + lam * I

    def __post_init__(self):
        try:
            object.__setattr__(self, "_factor", cho_factor(self.sigma, lower=True))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"covariance factorization failed: {exc}") from exc

    def factor(self):
        return self._factor


@dataclass(frozen=True)
class ScoreReport:
    """Per-test-sample scores with labels, metrics, and shift diagnostics."""

    row_ids: tuple[str, ...]
    raw: np.ndarray
    normalized: np.ndarray
    labels: np.ndarray
    metrics: MetricResult | None = None
    solo_trace: ShiftTrace | None = None
    joint_trace: ShiftTrace | None = None
    solo_weights: "DensityWeights | None" = None
    joint_weights: "DensityWeights | None" = None


def _centered(x: np.ndarray, center: np.ndarray, in_place: bool) -> np.ndarray:
    """``x - center``: written into ``x`` itself when ``in_place`` and ``x``
    is writable and C-contiguous (the layout ``x - center`` has), else a new
    array, so a read-only ``x`` is never written."""
    if in_place and x.flags.writeable and x.flags.c_contiguous:
        x -= center
        return x
    return x - center


def _rotate(basis: PcaBasis, centered: np.ndarray) -> np.ndarray:
    return centered @ basis.components.T


def _fit_pca(x: np.ndarray, reduced_dim: int, in_place: bool
             ) -> tuple[PcaBasis, np.ndarray]:
    """``fit_pca(x, reduced_dim)`` and the rows of ``x`` centered on its
    center (``_centered``)."""
    n, d = x.shape
    if n < 2:
        raise FitError(f"PCA needs at least 2 training rows, got {n}")
    if reduced_dim < 1:
        raise FitError(f"reduced_dim must be >= 1, got {reduced_dim}")
    max_dim = min(d, n - 1)
    if reduced_dim > max_dim:
        warnings.warn(
            f"reduced_dim={reduced_dim} clamped to {max_dim} "
            f"(input_dim={d}, n_train={n})"
        )
        reduced_dim = max_dim

    center = x.mean(axis=0)
    centered = _centered(x, center, in_place)
    cov = centered.T @ centered  # syrk, then mirrored: exactly symmetric
    cov /= n - 1
    eigvals, eigvecs = eigh(cov.T, overwrite_a=True)  # cov's bytes, F-ordered: no copy
    order = np.argsort(eigvals)[::-1][:reduced_dim]
    variance = np.maximum(eigvals[order], 0.0)
    components = eigvecs.T[order]
    pivot = components[np.arange(reduced_dim), np.argmax(np.abs(components), axis=1)]
    components[pivot < 0] *= -1.0
    return PcaBasis(center=center, components=components,
                    explained_variance=variance), centered


def fit_pca(x: np.ndarray, reduced_dim: int) -> PcaBasis:
    """Top principal components of the sample covariance (divisor n-1).

    Eigenvector sign is pinned by making each component's largest-magnitude
    entry positive; ``reduced_dim`` is clamped to min(input_dim, n-1).
    """
    return _fit_pca(x, reduced_dim, in_place=False)[0]


def _project(basis: PcaBasis, x: np.ndarray, in_place: bool) -> np.ndarray:
    if x.shape[1] != basis.input_dim:
        raise ShapeError(
            f"projection expects dim {basis.input_dim}, got {x.shape[1]}"
        )
    return _rotate(basis, _centered(x, basis.center, in_place))


def project(basis: PcaBasis, x: np.ndarray) -> np.ndarray:
    """Center and rotate rows into the reduced space."""
    return _project(basis, x, in_place=False)


def _fit_gaussian(z: np.ndarray, lam: float, in_place: bool) -> GaussianScorer:
    n, d = z.shape
    if n < 2:
        raise FitError(f"Gaussian fit needs at least 2 rows, got {n}")
    if not lam > 0.0:
        raise FitError(f"lambda must be > 0, got {lam}")
    mu = z.mean(axis=0)
    centered = _centered(z, mu, in_place)
    sigma = centered.T @ centered
    sigma /= n - 1
    sigma += lam * np.eye(d)
    return GaussianScorer(mu=mu, sigma=sigma)


def fit_gaussian(z: np.ndarray, lam: float) -> GaussianScorer:
    """Mean and regularized covariance of the reduced training sample."""
    return _fit_gaussian(z, lam, in_place=False)


def mahalanobis(scorer: GaussianScorer, z) -> np.ndarray | float:
    """Covariance-aware distance from the fitted mean, via the factorization."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    rows = z[None, :] if single else z
    if rows.shape[1] != scorer.mu.shape[0]:
        raise ShapeError(
            f"scorer expects dim {scorer.mu.shape[0]}, got {rows.shape[1]}"
        )
    diff = rows - scorer.mu
    solved = cho_solve(scorer.factor(), diff.T)
    sq = np.einsum("ij,ji->i", diff, solved)
    out = np.sqrt(np.maximum(sq, 0.0))
    return float(out[0]) if single else out


def normalize_scores(raw) -> np.ndarray:
    """Logistic map of the scores' own z-scores; constant input -> 0.5."""
    def logistic(v: float) -> float:  # the C library's exp, as scipy's expit
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:  # v < -709.78, where expit gives 0.0 too
            return 0.0
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        return raw.copy()
    std = raw.std()  # population std, divisor n
    if std < NORMALIZE_STD_FLOOR:
        return np.full(raw.shape, 0.5)
    z = (raw - raw.mean()) / std
    return np.array([logistic(v) for v in z.ravel().tolist()]).reshape(z.shape)


def prepare_rows(rows: np.ndarray, n_train: int, config: MsdeConfig,
                 shifts: Sequence[ShiftParams]) -> JointInput:
    """``rows``, a C-contiguous float64 array of ``n_train`` train rows then
    the test rows, standardized in place with the train rows' statistics
    and taken over by ``prepare_joint`` for the solo and joint shift runs of
    each of ``shifts``."""
    apply_standardizer(fit_standardizer(rows[:n_train]), rows)
    return prepare_joint(rows, n_train, shifts, threads=config.threads)


def score_shifted(shifted: tuple[ShiftedEmbeddings, ShiftedEmbeddings, np.ndarray],
                  test_ids: tuple[str, ...], labels: np.ndarray,
                  config: MsdeConfig) -> ScoreReport:
    """Fit, project and score from the ``joint_shift`` runs; ``test_ids``
    and ``labels`` belong to the joint run's test rows.

    PCA and the Gaussian are fitted on the solo-shifted train set; test
    rows are scored from the joint run. The arrays in ``shifted`` are taken
    over: the train and test rows are centered inside them, and the train
    projection inside itself for the Gaussian, where they are writable and
    C-contiguous. Read-only rows (``msde tune``'s shared rows at
    ``max_iters = 0``) are centered into new arrays and never written. The
    bytes are those of ``fit_pca``, ``project`` and ``fit_gaussian``.
    """
    solo, joint, test_shifted = shifted
    basis, centered = _fit_pca(solo.values, config.pca_dim, in_place=True)
    z_train = _rotate(basis, centered)
    del centered
    scorer = _fit_gaussian(z_train, config.lam, in_place=True)
    del z_train
    z_test = _project(basis, test_shifted, in_place=True)
    raw = mahalanobis(scorer, z_test) if len(z_test) else np.empty(0)
    normalized = normalize_scores(raw)

    metrics = None
    if 0 < int(labels.sum()) < labels.size:
        metrics = evaluate(raw, labels)
    else:
        warnings.warn("test labels contain a single class; metrics skipped")
    return ScoreReport(
        row_ids=test_ids,
        raw=np.asarray(raw, dtype=np.float64),
        normalized=normalized,
        labels=labels,
        metrics=metrics,
        solo_trace=solo.trace,
        joint_trace=joint.trace,
        solo_weights=solo.weights_used,
        joint_weights=joint.weights_used,
    )


def score_rows(rows: np.ndarray, n_train: int, test_ids: tuple[str, ...],
               labels: np.ndarray, config: MsdeConfig) -> ScoreReport:
    """End-to-end scoring of ``rows``, ``n_train`` train rows then the test
    rows with ``test_ids`` and ``labels``, in one writable C-contiguous
    float64 array that is taken over: standardize, shift, fit, project,
    score. ``rows`` is standardized in place and, without shift iterations,
    also centered in place by ``score_shifted``."""
    prepared = prepare_rows(rows, n_train, config, [config.shift])
    rows.flags.writeable = True  # frozen by prepare_joint; no other run shares it
    shifted = joint_shift(prepared, config.shift, threads=config.threads)
    return score_shifted(shifted, test_ids, labels, config)


def score_pipeline(split: DatasetSplit, config: MsdeConfig) -> ScoreReport:
    """``score_rows`` over a copy of the split's train rows then test rows."""
    return score_rows(np.concatenate([split.train.values, split.test.values]),
                      split.train.n_samples, split.test.row_ids, split.test.labels,
                      config)
