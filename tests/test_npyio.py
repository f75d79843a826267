"""Strict NPY v1.0 contract: accepted subset, rejections, round trips."""

import struct

import numpy as np
import pytest

from msde import load_embeddings
from msde.exceptions import LoadError
from msde.npyio import read_matrix, write_matrix


def _raw_npy(descr=b"'<f8'", fortran=b"False", shape=b"(1, 1)",
             payload=struct.pack("<d", 7.0), version=(1, 0)):
    header = b"{'descr': " + descr + b", 'fortran_order': " + fortran + \
             b", 'shape': " + shape + b", }"
    pad = (64 - (10 + len(header) + 1) % 64) % 64
    header = header + b" " * pad + b"\n"
    return (b"\x93NUMPY" + bytes(version) + struct.pack("<H", len(header))
            + header + payload)


class TestRead:
    def test_single_element(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy())
        m = read_matrix(p)
        np.testing.assert_array_equal(m, [[7.0]])
        assert m.dtype == np.float64

    def test_float32_widened(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(descr=b"'<f4'", payload=struct.pack("<2f", 1.5, 2.5),
                               shape=b"(1, 2)"))
        m = read_matrix(p)
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, [[1.5, 2.5]])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(b"NOTNPY" + b"\x00" * 20)
        with pytest.raises(LoadError, match="magic"):
            read_matrix(p)

    def test_version_2_rejected(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(version=(2, 0)))
        with pytest.raises(LoadError, match="version"):
            read_matrix(p)

    def test_fortran_order_rejected(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(fortran=b"True"))
        with pytest.raises(LoadError, match="fortran"):
            read_matrix(p)

    def test_integer_dtype_rejected(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(descr=b"'<i8'"))
        with pytest.raises(LoadError, match="dtype"):
            read_matrix(p)

    def test_one_dimensional_rejected(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(shape=b"(1,)"))
        with pytest.raises(LoadError, match="2-D"):
            read_matrix(p)

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(shape=b"(0, 1)", payload=b""))
        with pytest.raises(LoadError, match="empty"):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(shape=b"(2, 1)"))  # payload only 8 bytes
        with pytest.raises(LoadError, match="payload"):
            read_matrix(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_bytes(_raw_npy(payload=struct.pack("<2d", 7.0, 8.0)))
        with pytest.raises(LoadError, match="payload is 16 bytes"):
            read_matrix(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            read_matrix(tmp_path / "nope.npy")


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(13, 7))
        p = tmp_path / "m.npy"
        write_matrix(p, m)
        np.testing.assert_array_equal(read_matrix(p), m)

    def test_numpy_save_is_compatible(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = tmp_path / "m.npy"
        with open(p, "wb") as fh:
            np.save(fh, m)
        np.testing.assert_array_equal(read_matrix(p), m)

    def test_load_embeddings_uses_reader(self, tmp_path):
        p = tmp_path / "m.npy"
        write_matrix(p, np.array([[7.0]]))
        m = load_embeddings(p)
        assert m.n_samples == 1 and m.dim == 1
        assert m.values[0, 0] == 7.0
