"""Strict reader/writer for 2-D float matrices in NPY version 1.0.

Only the exact subset the pipeline produces is accepted on read: magic
``\\x93NUMPY``, version 1.0, ``descr`` of ``<f4`` or ``<f8``, C order,
2-D shape. Anything else is rejected with a message naming the offending
field, which keeps the on-disk contract bit-exact and easy to audit.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .exceptions import LoadError

_MAGIC = b"\x93NUMPY"
_ALLOWED_DESCR = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a strict NPY v1.0 file into a float64 C-order matrix.

    The payload is read straight into the result array, so a large file is
    never held a second time as bytes.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _read_open(path, fh, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc


def _read_open(path: Path, fh: BinaryIO, size: int) -> np.ndarray:
    raw = fh.read(10)
    if len(raw) < 10 or not raw.startswith(_MAGIC):
        raise LoadError(f"{path}: not an NPY file (bad magic)")
    major, minor = raw[6], raw[7]
    if (major, minor) != (1, 0):
        raise LoadError(
            f"{path}: NPY version {major}.{minor} unsupported, only 1.0 is accepted"
        )
    header_len = int.from_bytes(raw[8:10], "little")
    header_end = 10 + header_len
    if size < header_end:
        raise LoadError(f"{path}: truncated NPY header")

    header_text = fh.read(header_len).decode("latin-1")
    try:
        header = ast.literal_eval(header_text.strip())
    except (ValueError, SyntaxError) as exc:
        raise LoadError(f"{path}: unparseable NPY header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
        raise LoadError(f"{path}: NPY header must have exactly descr/fortran_order/shape")

    descr = header["descr"]
    if descr not in _ALLOWED_DESCR:
        raise LoadError(
            f"{path}: dtype {descr!r} unsupported, expected one of {sorted(_ALLOWED_DESCR)}"
        )
    if header["fortran_order"] is not False:
        raise LoadError(f"{path}: fortran_order must be False (C order)")
    shape = header["shape"]
    if (
        not isinstance(shape, tuple)
        or len(shape) != 2
        or not all(isinstance(s, int) for s in shape)
    ):
        raise LoadError(f"{path}: shape {shape!r} is not 2-D")
    n, d = shape
    if n < 1 or d < 1:
        raise LoadError(f"{path}: empty dimension in shape {shape}")

    dtype = _ALLOWED_DESCR[descr]
    expected = n * d * dtype.itemsize
    payload = size - header_end
    if payload == expected:
        values = np.empty((n, d), dtype=dtype)
        payload = fh.readinto(memoryview(values).cast("B"))
    if payload != expected:
        raise LoadError(
            f"{path}: payload is {payload} bytes, shape {shape} needs {expected}"
        )
    return np.ascontiguousarray(values, dtype=np.float64)


def write_matrix(path: str | Path, values: np.ndarray) -> None:
    """Write a float64 matrix; np.save emits NPY v1.0 for plain 2-D floats."""
    out = np.ascontiguousarray(values, dtype=np.float64)
    if out.ndim != 2:
        raise LoadError(f"refusing to write non-2-D array of shape {out.shape}")
    with open(path, "wb") as fh:
        np.save(fh, out, allow_pickle=False)
