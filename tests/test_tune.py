"""Zero-leakage splitting and the random-search harness."""

import logging
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from _inputs import recorded
from msde import (
    MsdeConfig,
    SearchSpace,
    ShiftParams,
    SyntheticSpec,
    generate_synthetic,
    make_leakage_split,
    random_search,
    score_rows,
)
from msde import shift as shift_module
from msde import scoring as scoring_module
from msde import tune as tune_module
from msde.exceptions import GraphError, NumericError, SplitError


def _dataset(n_train=10, n_test_normal=20, n_test_anomalous=20, seed=0, dim=3):
    """``random_search``'s input: the train rows then test rows in one
    array, the train row count, the test ids and labels."""
    spec = SyntheticSpec(dim=dim, n_train=n_train, n_test_normal=n_test_normal,
                         n_test_anomalous=n_test_anomalous, anomaly_offset=4.0)
    return generate_synthetic(spec, seed)


def _labels(n_test_normal=20, n_test_anomalous=20):
    return np.repeat([0, 1], [n_test_normal, n_test_anomalous])


def _validation(data, seed):
    """A copy of the fit rows then the validation rows that a search of
    ``data`` (``_dataset``) with ``seed`` prepares, the fit row count, ids
    and labels: ``score_rows``' input for one trial scored alone."""
    rows, n_train, _, labels = data
    lk = make_leakage_split(n_train, labels, seed)
    gather = np.concatenate([lk.fit_train, lk.val_normals, n_train + lk.val_anomalies])
    val_labels = np.concatenate([np.zeros(lk.val_normals.size, dtype=np.int64),
                                 labels[lk.val_anomalies]])
    ids = tuple(str(i) for i in gather[lk.fit_train.size:])
    return rows[gather], lk.fit_train.size, ids, val_labels


class TestMakeLeakageSplit:
    def test_floor_arithmetic_example(self):
        # 10 train normals, 20 test anomalies, 20 test normals:
        # validation gets 2 normals + 2 anomalies; the final test keeps
        # all 20 normals and the other 18 anomalies
        labels = _labels()
        lk = make_leakage_split(10, labels, seed=0)
        assert lk.val_normals.size == 2
        assert lk.fit_train.size == 8
        assert lk.val_anomalies.size == 2
        final_labels = labels[lk.final_test]
        assert int((final_labels == 0).sum()) == 20
        assert int((final_labels == 1).sum()) == 18

    def test_same_seed_same_partition(self):
        a = make_leakage_split(10, _labels(), seed=7)
        b = make_leakage_split(10, _labels(), seed=7)
        for part_a, part_b in zip(a, b, strict=True):
            np.testing.assert_array_equal(part_a, part_b)

    def test_disjoint_and_exhaustive_over_many_seeds(self):
        labels = np.random.default_rng(0).permutation(_labels(17, 31))
        for seed in range(50):
            lk = make_leakage_split(23, labels, seed=seed)
            for part in lk:
                assert np.all(np.diff(part) > 0)  # sorted, no repeats
            fit, val_norm = set(lk.fit_train), set(lk.val_normals)
            assert not fit & val_norm
            assert fit | val_norm == set(range(23))

            val_anom, final = set(lk.val_anomalies), set(lk.final_test)
            assert not val_anom & final
            assert val_anom | final == set(range(labels.size))
            assert np.all(labels[lk.val_anomalies] == 1)

    def test_validation_split_labels(self, monkeypatch):
        # Each trial scores the validation normals (label 0) then the
        # validation anomalies (label 1), and nothing else.
        rows, n_train, test_ids, labels = _dataset(n_train=40, n_test_normal=25,
                                                   n_test_anomalous=25, seed=9, dim=6)
        lk = make_leakage_split(n_train, labels, seed=3)
        scored, score_shifted = [], tune_module.score_shifted

        def keep_labels(shifted, ids, val_labels, config):
            scored.append((shifted[2].shape[0], val_labels))
            return score_shifted(shifted, ids, val_labels, config)

        monkeypatch.setattr(tune_module, "score_shifted", keep_labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            random_search(rows, n_train, test_ids, labels, SearchSpace(), n_trials=1,
                          seed=3, base_config=_search_config())
        (n_scored, val_labels), = scored
        assert int(val_labels.sum()) == lk.val_anomalies.size
        assert n_scored == val_labels.size == lk.val_normals.size + lk.val_anomalies.size
        assert val_labels.tolist() == sorted(val_labels.tolist())

    def test_minimum_sizes_enforced(self):
        with pytest.raises(SplitError):
            make_leakage_split(4, _labels(), seed=0)
        with pytest.raises(SplitError):
            make_leakage_split(10, _labels(n_test_anomalous=9), seed=0)

    def test_no_normal_test_rows_refused(self):
        # the final evaluation needs both classes; refuse before any trial
        with pytest.raises(SplitError, match="normal test rows"):
            make_leakage_split(10, _labels(n_test_normal=0), seed=0)

    def test_final_test_train_is_full_train(self, monkeypatch):
        # The winner is retrained on every train row: the final scoring
        # gets all of them, in order, before the final test rows.
        rows, n_train, test_ids, labels = _dataset(n_train=40, n_test_normal=25,
                                                   n_test_anomalous=25, seed=9, dim=6)
        lk = make_leakage_split(n_train, labels, seed=1)
        final, score = [], tune_module.score_rows

        def keep_final(final_rows, n, ids, final_labels, config):
            final.append((final_rows.copy(), n, ids, final_labels))
            return score(final_rows, n, ids, final_labels, config)

        monkeypatch.setattr(tune_module, "score_rows", keep_final)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            random_search(rows, n_train, test_ids, labels, SearchSpace(), n_trials=1,
                          seed=1, base_config=_search_config())
        (final_rows, n, ids, final_labels), = final
        assert n == n_train
        assert final_rows.tobytes() == rows[np.concatenate(
            [np.arange(n_train), n_train + lk.final_test])].tobytes()
        assert ids == tuple(test_ids[i] for i in lk.final_test)
        np.testing.assert_array_equal(final_labels, labels[lk.final_test])


class TestSearchSpace:
    def test_samples_respect_bounds(self):
        space = SearchSpace()
        for seed in range(200):
            p = space.sample(np.random.default_rng(seed))
            assert 5 <= p.k <= 60
            assert 3 <= p.t_nbd <= 80
            assert 0.01 <= p.eta <= 0.5
            assert 3 <= p.max_iters <= 12
            assert 1e-4 <= p.tol <= 0.05

    def test_tol_log_uniform_spread(self):
        # log-uniform draws should land below 2e-3 about half the time
        draws = [SearchSpace().sample(np.random.default_rng(s)).tol
                 for s in range(400)]
        frac_low = np.mean(np.asarray(draws) < np.sqrt(1e-4 * 0.05))
        assert 0.4 < frac_low < 0.6


def _search_config():
    return MsdeConfig(shift=ShiftParams(), pca_dim=6)


class TestRandomSearch:
    def _data(self):
        return _dataset(n_train=40, n_test_normal=25, n_test_anomalous=25,
                        seed=9, dim=6)

    def test_single_trial_is_best(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best, records, final = random_search(
                *self._data(), SearchSpace(), n_trials=1, seed=123,
                base_config=_search_config(),
            )
        assert best.trial_index == 0
        assert len(records) == 1
        assert 0.0 <= final.auc <= 1.0

    def test_deterministic_across_reruns(self):
        kw = dict(n_trials=4, seed=31, base_config=_search_config())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best_a, recs_a, final_a = random_search(*self._data(), SearchSpace(), **kw)
            best_b, recs_b, final_b = random_search(*self._data(), SearchSpace(), **kw)
        assert recs_a == recs_b
        assert best_a == best_b
        assert final_a == final_b

    def test_tie_goes_to_lowest_trial_index(self):
        # a single-point space forces identical params and thus equal
        # validation scores across trials
        space = SearchSpace(k=(8, 8), t_nbd=(10, 10), eta=(0.3, 0.3),
                            max_iters=(3, 3), tol=(0.01, 0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best, records, _ = random_search(
                *self._data(), space, n_trials=3, seed=5,
                base_config=_search_config(),
            )
        assert records[0].val_auc == records[1].val_auc == records[2].val_auc
        assert best.trial_index == 0

    def test_trial_seeds_are_seed_plus_index(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, records, _ = random_search(
                *self._data(), SearchSpace(), n_trials=3, seed=40,
                base_config=_search_config(),
            )
        assert [r.seed for r in records] == [40, 41, 42]
        # params reproducible from the recorded per-trial seed
        for rec in records:
            assert rec.params == SearchSpace().sample(
                np.random.default_rng(rec.seed))

    def test_unsampled_settings_come_from_base_config(self):
        base = MsdeConfig(shift=ShiftParams(k_umap=7), pca_dim=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, records, _ = random_search(
                *self._data(), SearchSpace(), n_trials=3, seed=40,
                base_config=base,
            )
        assert [r.params.k_umap for r in records] == [7, 7, 7]
        for rec in records:
            assert rec.params == SearchSpace().sample(
                np.random.default_rng(rec.seed), base.shift)

    def test_no_final_test_id_seen_during_trials(self):
        # Each trial sees the fit rows and the validation rows, as indices
        # into the search's rows, and never a final test row.
        data = self._data()
        n_train = data[1]
        lk_preview = make_leakage_split(n_train, data[3], seed=77)
        final_rows = set(n_train + lk_preview.final_test)
        val_rows = np.concatenate([lk_preview.val_normals,
                                   n_train + lk_preview.val_anomalies])
        seen: set = set()

        def observer(index, fit_rows, scored_rows):
            np.testing.assert_array_equal(fit_rows, lk_preview.fit_train)
            np.testing.assert_array_equal(scored_rows, val_rows)
            seen.update(fit_rows.tolist())
            seen.update(scored_rows.tolist())

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            random_search(*data, SearchSpace(), n_trials=3, seed=77,
                          base_config=_search_config(), trial_observer=observer)
        assert seen and not seen & final_rows

    @pytest.mark.parametrize("max_iters", [(0, 0), (3, 12)])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_leaves_the_callers_rows_alone(self, writeable, max_iters):
        # The trials and the final evaluation score rows gathered from the
        # caller's array, which keeps its bytes and its writeable flag, also
        # where the unshifted final fit centers its rows in place.
        rows, n_train, test_ids, labels = self._data()
        rows.flags.writeable = writeable
        before = rows.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            random_search(rows, n_train, test_ids, labels,
                          SearchSpace(max_iters=max_iters), n_trials=2, seed=4,
                          base_config=_search_config())
        assert rows.tobytes() == before
        assert rows.flags.writeable == writeable

    @pytest.mark.parametrize("n_train", [10, 40])
    def test_each_record_equals_its_trial_scored_alone(self, monkeypatch, n_train):
        # Trials share one preparation of the validation rows; each must
        # score what score_rows on a copy of them gives for its params
        # alone, bit for bit. With 10 train rows the solo run has 8 rows
        # and the joint 12, so k and t_nbd clamp in most trials.
        data = _dataset(n_train=n_train, n_test_normal=25, n_test_anomalous=25,
                        seed=9, dim=6)
        base = _search_config()
        raws = []
        score_shifted = tune_module.score_shifted

        def keep_raw(*args):
            report = score_shifted(*args)
            raws.append(report.raw.tobytes())
            return report

        monkeypatch.setattr(tune_module, "score_shifted", keep_raw)
        (_, records, _), study_warnings = recorded(
            random_search, *data, SearchSpace(), 4, 31, base)
        for rec, raw in zip(records, raws, strict=True):
            alone, alone_warnings = recorded(
                score_rows, *_validation(data, 31), replace(base, shift=rec.params))
            assert raw == alone.raw.tobytes()
            assert (rec.val_auc, rec.val_ap) == (alone.metrics.auc, alone.metrics.ap)
            assert set(alone_warnings) <= set(study_warnings)
        if n_train == 10:
            assert any(r.params.k > 11 and r.params.t_nbd > 11 for r in records)
            assert any("clamped to n-1=7" in w for w in study_warnings)

    def test_unshifted_trials_leave_the_shared_rows_as_they_were(self, monkeypatch):
        # At max_iters = 0 every trial scores read-only views of the one
        # prepared array; score_shifted centers copies of them, so the
        # array and its views leave the search as they came, and each trial
        # records what score_rows on a copy of the validation rows gives.
        data, base = self._data(), _search_config()
        shared, views = [], []
        prepare_rows, score_shifted = tune_module.prepare_rows, tune_module.score_shifted

        def keep_prepared(*args):
            prepared = prepare_rows(*args)
            shared.append((prepared, prepared.rows.copy()))
            return prepared

        def keep_views(shifted, *args):
            views.append((shifted[0].values, shifted[2]))
            return score_shifted(shifted, *args)

        monkeypatch.setattr(tune_module, "prepare_rows", keep_prepared)
        monkeypatch.setattr(tune_module, "score_shifted", keep_views)
        (_, records, _), _ = recorded(random_search, *data,
                                      SearchSpace(max_iters=(0, 0)), 3, 7, base)
        (prepared, before), = shared
        n_train = prepared.n_train
        for array, bytes_before in ((prepared.rows, before),
                                    (prepared.train, before[:n_train]),
                                    (prepared.test, before[n_train:])):
            assert not array.flags.writeable
            assert array.tobytes() == bytes_before.tobytes()
        assert len(views) == len(records) == 3
        for train, test in views:
            assert train is prepared.train and test.base is prepared.rows
            assert not train.flags.writeable and not test.flags.writeable
        for rec in records:
            assert rec.params.max_iters == 0
            alone, _ = recorded(score_rows, *_validation(data, 7),
                                replace(base, shift=rec.params))
            assert (rec.val_auc, rec.val_ap) == (alone.metrics.auc, alone.metrics.ap)
            assert rec.val_auc > -1.0

    def test_failed_trial_records_sentinel_and_never_wins(self, monkeypatch,
                                                          caplog):
        # Every trial fits one Gaussian (score_shifted runs fit_gaussian's
        # core), in index order; trial 0's raises. Identical params
        # elsewhere tie, and the tie goes to trial 1.
        fits = []
        fit_gaussian = scoring_module._fit_gaussian

        def failing_fit(z, lam, in_place):
            fits.append(len(fits))
            if len(fits) == 1:
                raise NumericError("injected fit failure")
            return fit_gaussian(z, lam, in_place)

        monkeypatch.setattr(scoring_module, "_fit_gaussian", failing_fit)
        space = SearchSpace(k=(8, 8), t_nbd=(10, 10), eta=(0.3, 0.3),
                            max_iters=(3, 3), tol=(0.01, 0.01))
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, "msde.tune"):
            warnings.simplefilter("ignore")
            best, records, final = random_search(
                *self._data(), space, n_trials=3, seed=5,
                base_config=_search_config())
        assert (records[0].val_auc, records[0].val_ap) == (-1.0, -1.0)
        assert records[1].val_auc == records[2].val_auc > -1.0
        assert best.trial_index == 1
        assert 0.0 <= final.auc <= 1.0
        assert "trial 0 failed: injected fit failure" in caplog.text
        assert "trial 1 failed" not in caplog.text

    def test_solo_failure_on_two_threads_fails_only_its_trial(self, monkeypatch):
        # Trial 0's solo run raises while its joint run goes on in the other
        # thread; the records equal those of the same failure in order.
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        data = self._data()
        solo_rows = make_leakage_split(data[1], data[3], seed=5).fit_train.size
        solo_runs = []
        apply_shift = shift_module.apply_shift

        def failing_run(points, prepared, params):
            if len(points) == solo_rows:
                solo_runs.append(len(solo_runs))
                if len(solo_runs) == 1:
                    raise NumericError("injected solo failure")
            return apply_shift(points, prepared, params)

        monkeypatch.setattr(shift_module, "apply_shift", failing_run)
        baseline = threading.active_count()
        studies = []
        for threads in (1, 2):
            solo_runs.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, records, final = random_search(
                    *data, SearchSpace(), n_trials=3, seed=5,
                    base_config=replace(_search_config(), threads=threads))
            studies.append((records, final))
            assert threading.active_count() == baseline
        assert studies[0] == studies[1]
        records = studies[1][0]
        assert (records[0].val_auc, records[0].val_ap) == (-1.0, -1.0)
        assert all(r.val_auc > -1.0 for r in records[1:])

    def test_failed_preparation_fails_every_trial(self, monkeypatch, caplog):
        # The first fuzzy graph is the validation split's; the final
        # evaluation builds its own and succeeds.
        graphs = []
        fuzzy_from_knn = shift_module._fuzzy_from_knn

        def failing_graph(graph):
            graphs.append(len(graph.neighbors))
            if len(graphs) == 1:
                raise GraphError("injected graph failure")
            return fuzzy_from_knn(graph)

        monkeypatch.setattr(shift_module, "_fuzzy_from_knn", failing_graph)
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, "msde.tune"):
            warnings.simplefilter("ignore")
            best, records, final = random_search(
                *self._data(), SearchSpace(), n_trials=3, seed=5,
                base_config=_search_config())
        assert [(r.val_auc, r.val_ap) for r in records] == [(-1.0, -1.0)] * 3
        assert best.trial_index == 0
        assert 0.0 <= final.auc <= 1.0
        for index in range(3):
            assert f"trial {index} failed: injected graph failure" in caplog.text

    def test_invalid_trial_count(self):
        with pytest.raises(SplitError):
            random_search(*self._data(), SearchSpace(), n_trials=0, seed=0)
