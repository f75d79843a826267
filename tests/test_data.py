"""Loading, validation, standardization, synthesis, score persistence."""

import math
import re
import struct

import numpy as np
import pytest

from msde import (
    EmbeddingMatrix,
    SyntheticSpec,
    apply_standardizer,
    fit_standardizer,
    generate_synthetic,
    load_embeddings,
    save_scores,
)
from msde.data import (
    STD_FLOOR,
    join_labels,
    load_labels,
    load_rows,
    load_scores,
    read_csv_rows,
    write_lines,
)
from msde.exceptions import ConfigError, FitError, LoadError, ShapeError
from msde.scoring import ScoreReport


def _rows(values):
    return np.atleast_2d(np.asarray(values, dtype=float))


def _matrix(values, labels=None):
    values = _rows(values)
    ids = tuple(f"r{i}" for i in range(values.shape[0]))
    return EmbeddingMatrix(values, ids, labels)


class TestEmbeddingMatrix:
    def test_rejects_nan(self):
        with pytest.raises(LoadError, match="row 1, column 0"):
            _matrix([[1.0, 2.0], [np.nan, 3.0]])

    def test_rejects_inf(self):
        with pytest.raises(LoadError):
            _matrix([[np.inf]])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(LoadError):
            EmbeddingMatrix([[1.0], [2.0]], ("a", "a"))

    def test_rejects_bad_labels(self):
        with pytest.raises(LoadError):
            _matrix([[1.0], [2.0]], labels=[0, 2])

    def test_values_widened_to_float64(self):
        m = _matrix(np.array([[1, 2]], dtype=np.float32))
        assert m.values.dtype == np.float64

    def test_values_read_only(self):
        m = _matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_writable_input_copied_and_stays_writable(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = EmbeddingMatrix(a, ("a", "b"))
        assert not np.shares_memory(m.values, a)
        a[0, 0] = 9.0
        assert m.values[0, 0] == 1.0
        a.setflags(write=False)
        assert EmbeddingMatrix(a, ("a", "b")).values is a


class TestCsvLoading:
    def test_two_by_three(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n4,5,6\n")
        m = load_embeddings(p)
        assert m.n_samples == 2 and m.dim == 3
        np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])

    def test_header_auto_detected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("f1,f2\n1.5,2.5\n")
        m = load_embeddings(p)
        np.testing.assert_array_equal(m.values, [[1.5, 2.5]])

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2\r\n3,4\r\n")
        np.testing.assert_array_equal(load_embeddings(p).values, [[1, 2], [3, 4]])

    def test_nan_cell_named(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,nan\n")
        with pytest.raises(LoadError, match="line 2, column 2"):
            load_embeddings(p)

    def test_ragged_row_named(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(LoadError, match="line 2"):
            load_embeddings(p)

    def test_non_numeric_cell_named(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(LoadError, match="line 2, column 2"):
            load_embeddings(p)

    def test_error_names_file_line_after_blank_lines(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n\n\n3,x\n")
        with pytest.raises(LoadError, match="line 4, column 2"):
            load_embeddings(p)
        p.write_bytes(b"f1,f2\r\n\r\n1,2\r\n  \r\n3\r\n")
        with pytest.raises(LoadError, match="line 5 has 1 fields"):
            load_embeddings(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(LoadError):
            load_embeddings(p)

    def test_unknown_suffix_rejected(self, tmp_path):
        p = tmp_path / "m.dat"
        p.write_text("1,2\n")
        with pytest.raises(LoadError):
            load_embeddings(p)

    def test_utf8_bom_keeps_first_row(self, tmp_path):
        # Excel's "CSV UTF-8" starts with a BOM; it must not turn the first
        # data row into a header.
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        np.testing.assert_array_equal(load_embeddings(p).values,
                                      [[1, 2], [3, 4], [5, 6]])

    def test_non_utf8_is_load_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes("caf\u00e9,x\n1,2\n".encode("latin-1"))
        with pytest.raises(LoadError, match="m.csv: not UTF-8 text.*0xe9"):
            load_embeddings(p)


def _raw_npy(descr=b"'<f8'", fortran=b"False", shape=b"(1, 1)",
             payload=struct.pack("<d", 7.0), version=(1, 0)):
    header = b"{'descr': " + descr + b", 'fortran_order': " + fortran + \
             b", 'shape': " + shape + b", }"
    pad = (64 - (10 + len(header) + 1) % 64) % 64
    header = header + b" " * pad + b"\n"
    return (b"\x93NUMPY" + bytes(version) + struct.pack("<H", len(header))
            + header + payload)


class TestNpyInput:
    """The accepted NPY subset: version 1.0, ``<f4``/``<f8``, C order, 2-D,
    no empty dimension, exactly the shape's payload bytes."""

    @staticmethod
    def _load(tmp_path, data):
        p = tmp_path / "m.npy"
        p.write_bytes(data)
        return load_embeddings(p).values

    @staticmethod
    def _load_saved(tmp_path, array):
        p = tmp_path / "m.npy"
        np.save(p, array, allow_pickle=True)
        return load_embeddings(p).values

    def test_single_element(self, tmp_path):
        m = self._load(tmp_path, _raw_npy())
        np.testing.assert_array_equal(m, [[7.0]])
        assert m.dtype == np.float64

    def test_float32_widened(self, tmp_path):
        m = self._load(tmp_path, _raw_npy(
            descr=b"'<f4'", payload=struct.pack("<2f", 1.5, 2.5), shape=b"(1, 2)"))
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, [[1.5, 2.5]])

    def test_bad_magic(self, tmp_path):
        with pytest.raises(LoadError, match="magic"):
            self._load(tmp_path, b"NOTNPY" + b"\x00" * 20)

    def test_version_2_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="version"):
            self._load(tmp_path, _raw_npy(version=(2, 0)))

    def test_fortran_order_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="fortran"):
            self._load(tmp_path, _raw_npy(fortran=b"True"))

    def test_integer_dtype_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="dtype"):
            self._load(tmp_path, _raw_npy(descr=b"'<i8'"))

    def test_one_dimensional_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="2-D"):
            self._load(tmp_path, _raw_npy(shape=b"(1,)"))

    def test_zero_dimension_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="empty"):
            self._load(tmp_path, _raw_npy(shape=b"(0, 1)", payload=b""))

    def test_truncated_payload(self, tmp_path):
        with pytest.raises(LoadError, match="payload"):
            self._load(tmp_path, _raw_npy(shape=b"(2, 1)"))  # payload only 8 bytes

    def test_trailing_bytes_rejected(self, tmp_path):
        with pytest.raises(LoadError, match="payload is 16 bytes"):
            self._load(tmp_path, _raw_npy(payload=struct.pack("<2d", 7.0, 8.0)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_embeddings(tmp_path / "nope.npy")

    def test_write_read_identity(self, tmp_path):
        m = np.random.default_rng(5).normal(size=(13, 7))
        np.testing.assert_array_equal(self._load_saved(tmp_path, m), m)

    def test_numpy_save_is_compatible(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = tmp_path / "m.npy"
        with open(p, "wb") as fh:
            np.save(fh, m)
        np.testing.assert_array_equal(load_embeddings(p).values, m)

    def test_load_embeddings_uses_reader(self, tmp_path):
        p = tmp_path / "m.npy"
        np.save(p, np.array([[7.0]]), allow_pickle=False)
        m = load_embeddings(p)
        assert m.n_samples == 1 and m.dim == 1
        assert m.values[0, 0] == 7.0

    @pytest.mark.parametrize("array, match", [
        (np.zeros((2, 2), dtype=[("a", "<f8"), ("b", "<f8")]), "dtype"),
        (np.zeros((2, 2), dtype=">f8"), "dtype"),
        (np.zeros((2, 2), dtype=np.int64), "dtype"),
        (np.zeros((2, 2), dtype=np.complex128), "dtype"),
        (np.array([[1.0, "a"]], dtype=object), "dtype"),
        (np.zeros(3), "2-D"),
        (np.zeros((2, 2, 2)), "2-D"),
        (np.asfortranarray(np.arange(6.0).reshape(2, 3)), "fortran"),
    ], ids=["record", "big-endian", "int64", "complex", "object", "1-D", "3-D",
            "fortran"])
    def test_saved_outside_subset_rejected(self, tmp_path, array, match):
        with pytest.raises(LoadError, match=match):
            self._load_saved(tmp_path, array)

    @pytest.mark.parametrize("fields, match", [
        ({"descr": b"[('a', '<f8')]"}, "dtype"),
        ({"descr": b"{'a': 1}"}, "dtype"),
        ({"descr": b"'<,8'"}, "dtype"),
        ({"descr": b"'float64'"}, "dtype"),
        ({"shape": b"(True, 1)"}, "2-D"),
        ({"shape": b"(1, {[1]: 2})"}, "cannot read"),
        ({"shape": b"(" + b"-" * 9000 + b"1, 1)"}, "cannot read"),
    ], ids=["list-descr", "dict-descr", "comma-descr", "other-spelling",
            "bool-shape", "unhashable-key", "parser-depth"])
    def test_hand_made_header_rejected(self, tmp_path, fields, match):
        with pytest.raises(LoadError, match=match):
            self._load(tmp_path, _raw_npy(**fields))

    def test_byte_mutants_raise_only_load_error(self, tmp_path):
        payload = np.arange(6.0).tobytes()
        good = _raw_npy(shape=b"(2, 3)", payload=payload)
        header_end = len(good) - len(payload)
        rng = np.random.default_rng(2024)
        # Half the new bytes are ones a header literal is built from.
        alphabet = b"[](){}',:-LTrueFals0123456789<>=fiucbOVM|. \n\t\x0b\xa0"
        p = tmp_path / "m.npy"
        outcomes = {"loaded": 0, "refused": 0}
        for _ in range(3000):
            data = bytearray(good)
            for _ in range(rng.integers(1, 4)):
                # Mostly the magic, version and header, where parsing happens.
                end = header_end if rng.random() < 0.9 else len(data)
                at = int(rng.integers(0, min(end, len(data))))
                byte = (alphabet[rng.integers(len(alphabet))] if rng.random() < 0.5
                        else int(rng.integers(0, 256)))
                op = rng.integers(0, 3)
                if op == 0:
                    data[at] = byte
                elif op == 1:
                    del data[at]
                else:
                    data.insert(at, byte)
            p.write_bytes(bytes(data))
            try:
                load_embeddings(p)
                outcomes["loaded"] += 1
            except LoadError:
                outcomes["refused"] += 1
        assert outcomes["loaded"] > 0 and outcomes["refused"] > 0


class TestStandardizer:
    def test_two_point_column(self):
        s = fit_standardizer(_rows([[0.0], [2.0]]))
        assert s.mean[0] == 1.0
        assert s.std[0] == pytest.approx(math.sqrt(2.0), abs=0)

    def test_constant_column_floored(self):
        s = fit_standardizer(_rows([[5.0], [5.0], [5.0]]))
        assert s.std[0] == 1.0

    def test_mixed_columns(self):
        s = fit_standardizer(_rows([[1, 10], [3, 10], [5, 10]]))
        np.testing.assert_allclose(s.mean, [3.0, 10.0])
        assert s.std[0] == pytest.approx(2.0)
        assert s.std[1] == 1.0

    def test_single_row_rejected(self):
        with pytest.raises(FitError):
            fit_standardizer(_rows([[1.0]]))

    def test_apply_simple(self):
        rows = np.array([[3.0]])
        assert apply_standardizer(fit_standardizer(_rows([[0.0], [2.0]])),
                                  rows) is None
        assert rows[0, 0] == pytest.approx((3.0 - 1.0) / math.sqrt(2.0))

    def test_apply_to_means_gives_zero(self):
        train = _rows([[1, 4], [3, 8]])
        s = fit_standardizer(train)
        rows = np.array([s.mean])
        apply_standardizer(s, rows)
        np.testing.assert_allclose(rows, 0.0, atol=0)

    def test_refit_after_apply_is_unit(self):
        rng = np.random.default_rng(3)
        train = _rows(rng.normal(2.0, 5.0, size=(40, 4)))
        s = fit_standardizer(train)
        z = train.copy()
        apply_standardizer(s, z)
        s2 = fit_standardizer(_rows(z))
        np.testing.assert_allclose(s2.mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(s2.std, 1.0, atol=1e-9)

    def test_dim_mismatch(self):
        s = fit_standardizer(_rows([[0.0], [2.0]]))
        with pytest.raises(ShapeError):
            apply_standardizer(s, np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 129, 513])
    def test_column_slices_give_the_whole_array_bytes(self, d):
        # The std is taken over 64-column slices; numpy sums a 1-column
        # slice pairwise, so a 1-column tail (d = 65, 129, 513) would
        # differ if it were not merged into the slice before it.
        rng = np.random.default_rng(d)
        for n in (2, 3, 17, 1000, 8000):
            for kind in ("offset", "grid", "constant"):
                if kind == "offset":
                    x = rng.normal(size=(n, d)) + 1e7
                else:
                    x = rng.integers(-2, 3, size=(n, d)).astype(float)
                    if kind == "constant":
                        x[:, ::3] = 4.0
                s = fit_standardizer(x)
                std = x.std(axis=0, ddof=1)
                std = np.where(std < STD_FLOOR, 1.0, std)
                assert s.mean.tobytes() == x.mean(axis=0).tobytes(), (n, kind)
                assert s.std.tobytes() == std.tobytes(), (n, kind)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec()
        a = generate_synthetic(spec, 42)
        b = generate_synthetic(spec, 42)
        np.testing.assert_array_equal(a.train.values, b.train.values)
        np.testing.assert_array_equal(a.test.values, b.test.values)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)

    def test_seed_changes_output(self):
        spec = SyntheticSpec()
        a = generate_synthetic(spec, 1)
        b = generate_synthetic(spec, 2)
        assert not np.array_equal(a.train.values, b.train.values)

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_train=0)

    def test_extreme_offset_separates_distances(self):
        # offset 100 with unit noise: every anomaly farther from the train
        # centroid than every normal
        spec = SyntheticSpec(dim=2, n_train=100, n_test_normal=50,
                             n_test_anomalous=50, anomaly_offset=100.0)
        split = generate_synthetic(spec, 7)
        centroid = split.train.values.mean(axis=0)
        d = np.linalg.norm(split.test.values - centroid, axis=1)
        normal_d = d[split.test.labels == 0]
        anom_d = d[split.test.labels == 1]
        assert anom_d.min() > normal_d.max()

    def test_train_labelfree_test_labeled(self):
        split = generate_synthetic(SyntheticSpec(), 0)
        assert split.train.labels is None
        assert split.test.labels.sum() == SyntheticSpec().n_test_anomalous


class TestTextFiles:
    def test_rows_carry_the_file_line_they_end_on(self, tmp_path):
        p = tmp_path / "rows.csv"
        p.write_bytes(b'a,b\r\n\r\n  \r\n"x\ny",z\r\n,\r\nw\n')
        assert read_csv_rows(p) == [(1, ["a", "b"]), (5, ["x\ny", "z"]),
                                    (6, ["", ""]), (7, ["w"])]

    def test_write_lines_is_utf8_with_lf(self, tmp_path):
        p = tmp_path / "out.txt"
        write_lines(p, ["a,b", "\u00e9"])
        assert p.read_bytes() == b"a,b\n\xc3\xa9\n"
        write_lines(p, [])
        assert p.read_bytes() == b""


class TestScorePersistence:
    def _report(self, raw, norm, labels):
        ids = tuple(f"t{i}" for i in range(len(raw)))
        return ScoreReport(ids, np.asarray(raw, float), np.asarray(norm, float),
                           np.asarray(labels))

    def test_single_row(self, tmp_path):
        p = tmp_path / "scores.csv"
        save_scores(self._report([2.5], [0.73], [1]), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "row_id,label,raw_score,normalized_score"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "t0" and cells[1] == "1"
        assert float(cells[2]) == 2.5 and float(cells[3]) == 0.73

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=37) * 1e3
        norm = rng.uniform(size=37)
        labels = rng.integers(0, 2, size=37)
        labels[0], labels[1] = 0, 1
        p = tmp_path / "scores.csv"
        save_scores(self._report(raw, norm, labels), p)
        ids, lab2, raw2, norm2 = load_scores(p)
        assert ids == tuple(f"t{i}" for i in range(37))
        np.testing.assert_array_equal(lab2, labels)
        np.testing.assert_array_equal(raw2, raw)
        np.testing.assert_array_equal(norm2, norm)

    def test_empty_report_warns_header_only(self, tmp_path):
        p = tmp_path / "scores.csv"
        with pytest.warns(UserWarning, match="empty"):
            save_scores(self._report([], [], []), p)
        assert p.read_text() == "row_id,label,raw_score,normalized_score\n"

    def test_load_error_names_file_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("row_id,label,raw_score,normalized_score\n\nb,1,0.5\n")
        with pytest.raises(LoadError, match="line 3 has 3 fields"):
            load_scores(p)

    def test_whitespace_only_rows_skipped(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("row_id,label,raw_score,normalized_score\n  \n"
                     "a,0,0.1,0.2\n\t\n")
        ids, labels, _, _ = load_scores(p)
        assert ids == ("a",) and labels.tolist() == [0]

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            save_scores(self._report([1.0], [0.5], [1]),
                        tmp_path / "missing_dir" / "scores.csv")


class TestEmbeddingRoundTrip:
    @staticmethod
    def _save(values, path):
        # msde writes NPY only; a CSV input is written here by hand, with
        # the 17 significant digits that round-trip a float64.
        if path.suffix == ".npy":
            np.save(path, values, allow_pickle=False)
        else:
            path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                    for row in values))

    @pytest.mark.parametrize("suffix", [".npy", ".csv"])
    def test_load_save_load_value_identical(self, tmp_path, suffix):
        rng = np.random.default_rng(29)
        values = rng.normal(size=(17, 5)) * np.logspace(-3, 3, 5)
        first = tmp_path / ("a" + suffix)
        second = tmp_path / ("b" + suffix)
        self._save(values, first)
        loaded = load_embeddings(first)
        self._save(loaded.values, second)
        reloaded = load_embeddings(second)
        np.testing.assert_array_equal(loaded.values, reloaded.values)
        np.testing.assert_array_equal(loaded.values, values)


class TestLoadRows:
    """``load_rows`` reads a train and a test file into one array: the same
    bytes as the two ``load_embeddings`` reads concatenated, checked as
    those check each file."""

    @staticmethod
    def _write(path, values):
        if path.suffix == ".npy":
            np.save(path, values, allow_pickle=False)
        else:
            path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                    for row in values))

    @pytest.mark.parametrize("train_name, test_name, dtype", [
        ("train.npy", "test.npy", "<f8"),
        ("train.npy", "test.npy", "<f4"),
        ("train.csv", "test.csv", "<f8"),
        ("train.npy", "test.csv", "<f8"),
    ], ids=["f8-npy", "f4-npy", "csv", "npy-train-csv-test"])
    def test_equals_concatenated_loads(self, tmp_path, train_name, test_name, dtype):
        rng = np.random.default_rng(31)
        paths = [tmp_path / train_name, tmp_path / test_name]
        for path, n in zip(paths, (23, 9)):
            values = rng.normal(size=(n, 6)) * np.logspace(-3, 3, 6)
            self._write(path, values.astype(dtype))
        rows, n_train = load_rows(*paths)
        expected = np.concatenate([load_embeddings(p).values for p in paths])
        assert n_train == 23
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert rows.flags.writeable and rows.flags.owndata
        assert rows.tobytes() == expected.tobytes()

    def test_width_mismatch_names_both_widths(self, tmp_path):
        np.save(tmp_path / "train.npy", np.zeros((3, 6)))
        np.save(tmp_path / "test.npy", np.zeros((2, 4)))
        with pytest.raises(ShapeError, match=r"^train dim 6 != test dim 4$"):
            load_rows(tmp_path / "train.npy", tmp_path / "test.npy")

    @pytest.mark.parametrize("dtype", ["<f8", "<f4"])
    @pytest.mark.parametrize("bad", ["train", "test"])
    def test_non_finite_value_names_its_file(self, tmp_path, bad, dtype):
        paths = {name: tmp_path / f"{name}.npy" for name in ("train", "test")}
        for name, n in (("train", 5), ("test", 4)):
            values = np.ones((n, 3), dtype=dtype)
            if name == bad:
                values[3, 2] = np.inf
            np.save(paths[name], values)
        message = rf"^{re.escape(str(paths[bad]))}: non-finite value at row 3, column 2$"
        with pytest.raises(LoadError, match=message):
            load_rows(paths["train"], paths["test"])
        with pytest.raises(LoadError, match=message):
            load_embeddings(paths[bad])

    def test_file_errors_keep_their_messages(self, tmp_path):
        np.save(tmp_path / "train.npy", np.zeros((3, 2)))
        (tmp_path / "test.npy").write_bytes(_raw_npy(shape=b"(2, 1)"))
        with pytest.raises(LoadError, match="payload is 8 bytes, shape"):
            load_rows(tmp_path / "train.npy", tmp_path / "test.npy")
        with pytest.raises(LoadError, match="cannot infer format"):
            load_rows(tmp_path / "train.npy", tmp_path / "test.txt")
        with pytest.raises(LoadError, match="cannot read"):
            load_rows(tmp_path / "nope.npy", tmp_path / "train.npy")


class TestLabelSidecar:
    def test_attach_and_mismatch(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("row_id,label\nr0,0\nr1,1\n")
        ids = ("r0", "r1")
        np.testing.assert_array_equal(join_labels(ids, load_labels(p)), [0, 1])

        p2 = tmp_path / "bad.csv"
        p2.write_text("row_id,label\nr0,0\nrX,1\n")
        with pytest.raises(LoadError):
            join_labels(ids, load_labels(p2))

    def test_join_refuses_missing_and_unknown_ids(self):
        ids = ("r0", "r1")
        assert join_labels(ids, {"r1": 1, "r0": 0}).tolist() == [0, 1]
        with pytest.raises(LoadError, match="missing 1 row ids"):
            join_labels(ids, {"r0": 0})
        with pytest.raises(LoadError, match="1 unknown row ids"):
            join_labels(ids, {"r0": 0, "r1": 1, "rX": 1})

    def test_error_names_file_line_after_blank_lines(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("row_id,label\n\nr0,0\n\nr1\n")
        with pytest.raises(LoadError, match="line 5 needs row_id,label"):
            load_labels(p)

    def test_whitespace_only_rows_skipped(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("row_id,label\n \nr0,0\n\t\nr1,1\n")
        assert load_labels(p) == {"r0": 0, "r1": 1}

    def test_utf8_bom_header_recognised(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_bytes(b"\xef\xbb\xbfrow_id,label\nr0,0\nr1,1\n")
        assert load_labels(p) == {"r0": 0, "r1": 1}

    def test_bad_label_value(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("r0,3\n")
        with pytest.raises(LoadError):
            load_labels(p)
