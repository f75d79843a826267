"""PCA, Gaussian fitting, Mahalanobis scoring, normalization, pipeline."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ortho_group

from msde import (
    DatasetSplit,
    EmbeddingMatrix,
    MsdeConfig,
    ShiftParams,
    SyntheticSpec,
    apply_standardizer,
    fit_gaussian,
    fit_pca,
    generate_synthetic,
    joint_shift,
    mahalanobis,
    normalize_scores,
    prepare_joint,
    project,
    score_pipeline,
)
from msde import scoring as scoring_module
from msde.data import fit_standardizer
from msde.exceptions import FitError, ShapeError
from msde.scoring import prepare_rows, score_rows, score_shifted
from msde.metrics import auc_roc, average_precision

from _oracles import expit, gaussian_sigma_reference, pca_reference


def _matrix(values):
    return np.atleast_2d(np.asarray(values, dtype=float))


def _embedding(values):
    values = _matrix(values)
    return EmbeddingMatrix(values, tuple(f"r{i}" for i in range(values.shape[0])))


class TestFitPca:
    def test_line_in_2d(self):
        t = np.linspace(-2.0, 2.0, 9)
        m = _matrix(np.column_stack([t, t]))
        basis = fit_pca(m, 1)
        np.testing.assert_allclose(basis.components[0],
                                   [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert basis.explained_variance[0] > 0

    def test_second_eigenvalue_of_line_is_zero(self):
        t = np.linspace(-2.0, 2.0, 9)
        m = _matrix(np.column_stack([t, t]))
        basis = fit_pca(m, 2)
        assert basis.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_projection_preserves_distances(self):
        rng = np.random.default_rng(0)
        m = _matrix(rng.normal(size=(60, 6)))
        basis = fit_pca(m, 6)
        z = project(basis, m)
        from scipy.spatial.distance import pdist
        np.testing.assert_allclose(pdist(z), pdist(m), atol=1e-8)

    def test_matches_dense_eigensolve_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 8))
        basis = fit_pca(_matrix(x), 3)
        cov = np.cov(x, rowvar=False, ddof=1)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(basis.explained_variance, eig[:3], atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(2)
        basis = fit_pca(_matrix(rng.normal(size=(50, 10))), 6)
        gram = basis.components @ basis.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_explained_variance_nonincreasing(self):
        rng = np.random.default_rng(3)
        basis = fit_pca(_matrix(rng.normal(size=(40, 7))), 7)
        assert np.all(np.diff(basis.explained_variance) <= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 5))
        a = fit_pca(_matrix(x), 5)
        b = fit_pca(_matrix(x.copy()), 5)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_reduced_dim_clamped_with_warning(self):
        rng = np.random.default_rng(5)
        with pytest.warns(UserWarning, match="clamped"):
            basis = fit_pca(_matrix(rng.normal(size=(4, 10))), 8)
        assert basis.reduced_dim == 3  # n - 1

    def test_single_row_rejected(self):
        with pytest.raises(FitError):
            fit_pca(_matrix([[1.0, 2.0]]), 1)


def _fit_inputs():
    """The shapes the copy-free fits are checked on, each with and without
    a pair of duplicate rows (two duplicate rows alone have zero spread)."""
    rng = np.random.default_rng(16)
    for n, d in ((4, 10), (2, 1), (30, 1), (40, 7), (50, 10), (600, 512),
                 (2000, 64), (8000, 512)):
        x = rng.normal(size=(n, d))
        yield x
        dup = x.copy()
        dup[-1] = dup[0]
        yield dup


class TestCopyFreeFitsKeepTheBytes:
    def test_gram_of_centered_rows_is_exactly_symmetric(self):
        # fit_pca hands eigh cov.T in place of cov; that is cov only so.
        for x in _fit_inputs():
            centered = x - x.mean(axis=0)
            gram = centered.T @ centered
            assert np.array_equal(gram, gram.T), x.shape

    def test_pca_matches_the_copying_form_byte_for_byte(self):
        for x in _fit_inputs():
            dim = min(x.shape[1], x.shape[0] - 1)
            center, components, variance = pca_reference(x, dim)
            basis = fit_pca(x, dim)
            assert basis.center.tobytes() == center.tobytes(), x.shape
            assert basis.components.tobytes() == components.tobytes(), x.shape
            assert basis.explained_variance.tobytes() == variance.tobytes(), x.shape

    def test_gaussian_sigma_matches_the_one_expression_byte_for_byte(self):
        for x in _fit_inputs():
            for lam in (1e-4, 0.3):
                got = fit_gaussian(x, lam).sigma
                assert got.tobytes() == gaussian_sigma_reference(x, lam).tobytes()

    @pytest.mark.parametrize("writable", [True, False])
    def test_score_shifted_fits_in_place_with_the_same_bytes(self, monkeypatch,
                                                              writable):
        # Unshifted rows reach score_shifted as views of the prepared array:
        # writable ones (score_rows) are centered in place, read-only ones
        # (msde tune's shared array) into new arrays and never written.
        # Either way the fits and raw scores are the copying chain's bytes.
        fits = {}
        for name in ("_fit_pca", "_fit_gaussian"):
            def spy(*args, core=getattr(scoring_module, name), name=name, **kw):
                fits[name] = core(*args, **kw)
                return fits[name]
            monkeypatch.setattr(scoring_module, name, spy)
        params = ShiftParams(max_iters=0)
        labels = np.arange(6) % 2
        rng = np.random.default_rng(17)
        for x in _fit_inputs():
            n, d = x.shape
            config = MsdeConfig(shift=params, pca_dim=min(d, n - 1), lam=0.3)
            test = rng.normal(size=(6, d))
            given = np.concatenate([x, test])
            basis = fit_pca(x, config.pca_dim)
            z = project(basis, x)
            scorer = fit_gaussian(z, config.lam)
            raw = mahalanobis(scorer, project(basis, test))
            assert np.concatenate([x, test]).tobytes() == given.tobytes()

            rows = given.copy()
            prepared = prepare_joint(rows, n, [params])
            rows.flags.writeable = writable
            report = score_shifted(joint_shift(prepared, params),
                                   tuple(map(str, range(6))), labels, config)
            (got, centered), got_scorer = fits["_fit_pca"], fits["_fit_gaussian"]
            assert np.shares_memory(centered, rows) == writable, x.shape
            center, components, variance = pca_reference(x, config.pca_dim)
            for a, b in ((got.center, center), (got.components, components),
                         (got.explained_variance, variance),
                         (got_scorer.mu, scorer.mu), (got_scorer.sigma, scorer.sigma),
                         (got_scorer.sigma, gaussian_sigma_reference(z, config.lam)),
                         (report.raw, raw)):
                assert a.tobytes() == b.tobytes(), x.shape
            if not writable:
                assert not rows.flags.writeable
                assert not prepared.train.flags.writeable
                assert not prepared.test.flags.writeable
                assert rows.tobytes() == given.tobytes()


class TestBlockedRotationKeepsTheBytes:
    def test_project_and_in_place_rotation_equal_one_product(self):
        # _rotate multiplies 1024-row blocks, the tail merged into the last.
        # Bytes are pinned at one BLAS thread (more threads split each
        # product's rows differently), so the shapes run in a child there.
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"),
                   OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, str(tests / "_rotation_bytes.py")],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "", "(d, r, n) that differ:\n" + done.stdout

    @pytest.mark.parametrize("pca_dim", [1, 3, 16])
    def test_unshifted_score_rows_equals_the_copying_chain(self, pca_dim):
        # At 2100 train rows the train projection takes two blocks and is
        # written into the train rows; the test rows' Mahalanobis
        # difference is taken in place.
        rng = np.random.default_rng(32)
        n_train, n_test, d = 2100, 300, 32
        given = rng.normal(size=(n_train + n_test, d))
        labels = np.arange(n_test) % 2
        config = MsdeConfig(shift=ShiftParams(max_iters=0), pca_dim=pca_dim)
        rows = given.copy()
        report = score_rows(rows, n_train, tuple(map(str, range(n_test))),
                            labels, config)

        std = fit_standardizer(given[:n_train])
        train, test = given[:n_train].copy(), given[n_train:].copy()
        apply_standardizer(std, train)
        apply_standardizer(std, test)
        basis = fit_pca(train, pca_dim)
        scorer = fit_gaussian(project(basis, train), config.lam)
        raw = mahalanobis(scorer, project(basis, test))
        assert report.raw.tobytes() == raw.tobytes()


class TestProject:
    def test_center_maps_to_zero(self):
        rng = np.random.default_rng(6)
        m = _matrix(rng.normal(size=(20, 4)))
        basis = fit_pca(m, 3)
        z = project(basis, _matrix([list(basis.center)]))
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_projected_training_mean_is_zero(self):
        rng = np.random.default_rng(7)
        m = _matrix(rng.normal(size=(30, 5)))
        basis = fit_pca(m, 4)
        z = project(basis, m)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)

    def test_projection_nonexpansive(self):
        rng = np.random.default_rng(8)
        m = _matrix(rng.normal(size=(30, 6)))
        basis = fit_pca(m, 3)
        z = project(basis, m)
        orig = np.linalg.norm(m - basis.center, axis=1)
        red = np.linalg.norm(z, axis=1)
        assert np.all(red <= orig + 1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(9)
        basis = fit_pca(_matrix(rng.normal(size=(10, 3))), 2)
        with pytest.raises(ShapeError):
            project(basis, _matrix([[1.0, 2.0]]))


class TestFitGaussian:
    def test_one_dimensional_two_points(self):
        scorer = fit_gaussian(_matrix([[0.0], [2.0]]), lam=1e-4)
        assert scorer.mu[0] == 1.0
        assert scorer.sigma[0, 0] == pytest.approx(2.0 + 1e-4, abs=0)
        assert mahalanobis(scorer, scorer.mu + 1.0) ** 2 == \
            pytest.approx(1.0 / (2.0 + 1e-4), rel=1e-12)

    def test_identical_rows_give_lambda_identity(self):
        scorer = fit_gaussian(_matrix([[3.0, 1.0]] * 5), lam=1e-3)
        np.testing.assert_allclose(scorer.sigma, 1e-3 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(mahalanobis(scorer, scorer.mu + np.eye(2)) ** 2,
                                   [1e3, 1e3], rtol=1e-9)

    def test_sigma_minimum_eigenvalue_at_least_lambda(self):
        rng = np.random.default_rng(11)
        scorer = fit_gaussian(_matrix(rng.normal(size=(50, 4))), lam=1e-4)
        assert np.linalg.eigvalsh(scorer.sigma).min() >= 1e-4 - 1e-12

    def test_lambda_must_be_positive(self):
        with pytest.raises(FitError):
            fit_gaussian(_matrix([[0.0], [1.0]]), lam=0.0)


class TestMahalanobis:
    def _scorer(self, mu, sigma):
        # fit from data is overkill for closed-form checks; build directly
        from msde.scoring import GaussianScorer
        return GaussianScorer(mu=np.asarray(mu, dtype=float),
                              sigma=np.asarray(sigma, dtype=float))

    def test_score_at_mean_is_zero(self):
        scorer = self._scorer([1.0, 2.0], np.eye(2))
        assert mahalanobis(scorer, [1.0, 2.0]) == 0.0

    def test_identity_covariance_is_euclidean(self):
        scorer = self._scorer([0.0, 0.0], np.eye(2))
        assert mahalanobis(scorer, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_diagonal_covariance(self):
        scorer = self._scorer([0.0, 0.0], np.diag([4.0, 1.0]))
        assert mahalanobis(scorer, [2.0, 1.0]) == pytest.approx(math.sqrt(2.0),
                                                                rel=1e-12)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            d = int(rng.integers(2, 8))
            a = rng.normal(size=(d, d))
            sigma = a @ a.T + 0.5 * np.eye(d)
            mu = rng.normal(size=d)
            scorer = self._scorer(mu, sigma)
            z = rng.normal(size=d)
            inv = np.linalg.inv(sigma)
            expected = math.sqrt((z - mu) @ inv @ (z - mu))
            got = mahalanobis(scorer, z)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_dim_mismatch(self):
        scorer = self._scorer([0.0, 0.0], np.eye(2))
        with pytest.raises(ShapeError):
            mahalanobis(scorer, [1.0, 2.0, 3.0])

    def test_vectorized_rows_match_single_calls(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3))
        scorer = self._scorer(rng.normal(size=3), a @ a.T + np.eye(3))
        zs = rng.normal(size=(10, 3))
        batch = mahalanobis(scorer, zs)
        singles = [mahalanobis(scorer, z) for z in zs]
        np.testing.assert_array_equal(batch, singles)


class TestNormalizeScores:
    def test_two_point_symmetry(self):
        for a in (0.5, 3.0, 100.0):
            out = normalize_scores([-a, a])
            np.testing.assert_allclose(
                out, [1 / (1 + math.e), 1 / (1 + math.exp(-1))], atol=1e-12
            )

    def test_constant_input_all_half(self):
        np.testing.assert_array_equal(normalize_scores([7.0] * 5), [0.5] * 5)

    def test_preserves_argsort(self):
        rng = np.random.default_rng(14)
        raw = rng.normal(size=50)
        out = normalize_scores(raw)
        np.testing.assert_array_equal(np.argsort(raw), np.argsort(out))

    def test_bounded(self):
        rng = np.random.default_rng(15)
        raw = rng.normal(size=100) * 1e6
        out = normalize_scores(raw)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty(self):
        assert normalize_scores([]).size == 0


class TestNormalizeBytesEqualExpit:
    def _check(self, raw):
        raw = np.asarray(raw, dtype=np.float64)
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = normalize_scores(raw)
            expected = expit((raw - raw.mean()) / raw.std())
        assert got.tobytes() == expected.tobytes()

    def test_seeded_sets(self):
        rng = np.random.default_rng(17)
        for raw in (*rng.normal(size=(4, 5000)), rng.uniform(-50, 50, 5000),
                    rng.uniform(-750, 750, 5000)):
            self._check(raw)

    def test_edge_values(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 709.78, -709.78, -745.2]
        self._check(edges)
        self._check([-1.0, -0.0, 1.0])  # z = -0.0 in the middle
        self._check(edges + [np.inf, -np.inf])  # every z is nan

    def test_overflow_gives_zero_as_expit_does(self):
        # One value below 599,999 zeros: its z is -sqrt(n - 1) ~ -775, where
        # exp(-z) overflows; one above gives z ~ +775.
        for outlier, expected in ((-1.0, 0.0), (1.0, 1.0)):
            raw = np.zeros(600_000)
            raw[7] = outlier
            self._check(raw)
            assert normalize_scores(raw)[7] == expected


def _pipeline_config(**shift_kw):
    shift = dict(k=10, t_nbd=10, k_umap=10, max_iters=4, eta=0.33, tol=0.01)
    shift.update(shift_kw)
    return MsdeConfig(shift=ShiftParams(**shift), pca_dim=8)


class TestScorePipeline:
    def test_extreme_offset_gives_perfect_auc(self):
        spec = SyntheticSpec(dim=8, n_train=80, n_test_normal=30,
                             n_test_anomalous=30, anomaly_offset=100.0)
        split = generate_synthetic(spec, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_pipeline(split, _pipeline_config())
        assert report.metrics.auc == 1.0
        assert report.metrics.ap == 1.0

    def test_metrics_identical_on_raw_and_normalized(self):
        spec = SyntheticSpec(dim=6, n_train=60, n_test_normal=25,
                             n_test_anomalous=25, anomaly_offset=2.0)
        split = generate_synthetic(spec, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_pipeline(split, _pipeline_config())
        assert auc_roc(report.raw, report.labels) == \
            auc_roc(report.normalized, report.labels)
        assert average_precision(report.raw, report.labels) == \
            average_precision(report.normalized, report.labels)

    def test_duplicated_train_row_scores_low(self):
        rng = np.random.default_rng(17)
        train_values = rng.normal(0.0, 1.0, size=(60, 6))
        test_values = np.vstack([train_values[0], rng.normal(size=(9, 6)) * 3.0])
        labels = np.array([0] + [1] * 9, dtype=np.int64)
        split = DatasetSplit(
            train=_embedding(train_values),
            test=EmbeddingMatrix(test_values,
                                 tuple(f"t{i}" for i in range(10)), labels),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_pipeline(split, _pipeline_config())
        assert report.normalized[0] <= np.median(report.normalized)

    def test_rotation_invariance_at_full_rank(self):
        # joint rigid rotation of train and test leaves scores unchanged
        # when the PCA keeps every direction; the rows are shifted and
        # scored raw, since per-column standardization does not commute
        # with a rotation
        spec = SyntheticSpec(dim=5, n_train=50, n_test_normal=20,
                             n_test_anomalous=20, anomaly_offset=3.0)
        split = generate_synthetic(spec, 19)
        rot = ortho_group.rvs(5, random_state=20)
        params = ShiftParams(k=10, t_nbd=10, k_umap=10, max_iters=3,
                             eta=0.33, tol=1e-8)
        config = MsdeConfig(shift=params, pca_dim=5)
        rows = np.concatenate([split.train.values, split.test.values])

        def raw_scores(points):
            prepared = prepare_joint(points, split.train.n_samples, [params])
            return score_shifted(joint_shift(prepared, params), split.test.row_ids,
                                 split.test.labels, config).raw

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = raw_scores(rows.copy())
            rotated = raw_scores(rows @ rot.T)
        np.testing.assert_allclose(rotated, base, atol=1e-6)

    def test_no_shift_baseline_matches_plain_pca_gaussian(self):
        spec = SyntheticSpec(dim=6, n_train=50, n_test_normal=20,
                             n_test_anomalous=20, anomaly_offset=2.5)
        split = generate_synthetic(spec, 21)
        config = MsdeConfig(shift=ShiftParams(max_iters=0), pca_dim=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_pipeline(split, config)
        # manual reference: standardize, PCA, Gaussian, Mahalanobis
        from msde import apply_standardizer
        std = fit_standardizer(split.train.values)
        train, test = split.train.values.copy(), split.test.values.copy()
        apply_standardizer(std, train)
        apply_standardizer(std, test)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            basis = fit_pca(train, 6)
        scorer = fit_gaussian(project(basis, train), lam=1e-4)
        expected = mahalanobis(scorer, project(basis, test))
        np.testing.assert_array_equal(report.raw, expected)

    def test_raw_scores_move_continuously_in_lambda(self):
        # smoke check: nearby regularization gives nearby scores
        rng = np.random.default_rng(22)
        train = _matrix(rng.normal(size=(80, 5)))
        basis = fit_pca(train, 5)
        z = project(basis, train)
        queries = rng.normal(size=(10, 5))
        s1 = mahalanobis(fit_gaussian(z, lam=1e-4), queries)
        s2 = mahalanobis(fit_gaussian(z, lam=2e-4), queries)
        assert np.abs(s1 - s2).max() < 1.0

    def test_single_class_labels_warned_and_skipped(self):
        rng = np.random.default_rng(23)
        train = _embedding(rng.normal(size=(30, 4)))
        test = EmbeddingMatrix(rng.normal(size=(8, 4)),
                               tuple(f"t{i}" for i in range(8)),
                               np.zeros(8, dtype=np.int64))
        split = DatasetSplit(train=train, test=test)
        with pytest.warns(UserWarning, match="single class"):
            report = score_pipeline(split, _pipeline_config(max_iters=0))
        assert report.metrics is None

    def test_report_carries_test_ids_and_labels(self):
        rng = np.random.default_rng(24)
        train = _embedding(rng.normal(size=(30, 3)))
        labels = np.array([1, 0, 0, 1, 0, 1], dtype=np.int64)
        ids = ("t5", "t0", "t3", "t1", "t4", "t2")
        test = EmbeddingMatrix(rng.normal(size=(6, 3)), ids, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_pipeline(DatasetSplit(train=train, test=test),
                                    _pipeline_config(k=5, t_nbd=5, k_umap=5,
                                                     max_iters=2))
        assert report.row_ids == ids
        np.testing.assert_array_equal(report.labels, labels)


class TestPrepareRows:
    def test_one_read_only_array_of_train_then_test_rows(self):
        rng = np.random.default_rng(25)
        train = rng.normal(3.0, 2.0, size=(40, 4))
        train[:, 2] = 7.0  # constant column: its std is floored to 1
        test = rng.normal(3.0, 2.0, size=(10, 4))
        given = np.concatenate([train, test])
        prepared = prepare_rows(given, 40, MsdeConfig(), [ShiftParams(max_iters=0)])
        rows = prepared.rows
        assert rows is given
        assert rows.dtype == np.float64 and rows.shape == (50, 4)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert prepared.train.shape == (40, 4) and prepared.test.shape == (10, 4)
        assert np.shares_memory(prepared.train, rows)
        assert np.shares_memory(prepared.test, rows)
        # the same bytes as standardizing each part on its own
        s = fit_standardizer(train)
        assert s.std[2] == 1.0
        assert rows[:40].tobytes() == ((train - s.mean) / s.std).tobytes()
        assert rows[40:].tobytes() == ((test - s.mean) / s.std).tobytes()


class TestScoreShiftedMemory:
    def test_unshifted_fit_holds_no_centered_copy_of_the_train_rows(self,
                                                                     peak_bytes):
        # As in score_rows without shift iterations: the rows reach the fit
        # writable and are centered in place, and each projection is
        # written into the rows it consumes, so the peak is the covariance
        # and eigh's work (about 0.16x the train rows' bytes). A new array
        # for the train projection (0.25x at pca_dim 64) reads about 0.28x,
        # and a centered copy of the train rows, as fit_pca and project
        # make, about 1.28x.
        rng = np.random.default_rng(26)
        n_train, n_test, d = 4000, 1000, 256
        rows = rng.normal(size=(n_train + n_test, d))
        rows[n_train + n_test // 2:, 0] += 3.0
        labels = (np.arange(n_test) >= n_test // 2).astype(np.int64)
        params = ShiftParams(max_iters=0)
        prepared = prepare_joint(rows, n_train, [params])
        rows.flags.writeable = True
        shifted = joint_shift(prepared, params)
        peak = peak_bytes(score_shifted, shifted, tuple(map(str, range(n_test))),
                          labels, MsdeConfig(shift=params, pca_dim=64))
        train_bytes = n_train * d * 8
        assert peak < 0.25 * train_bytes, peak / train_bytes
