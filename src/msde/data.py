"""Embedding datasets: loading, validation, standardization, synthesis,
and the one reader and one writer of msde's text files.

Matrices load from ``.npy`` or ``.csv``. Only the NPY subset ``np.save``
writes for a 2-D float matrix is accepted: version 1.0, dtype ``<f4`` or
``<f8``, C order, both dimensions >= 1. CSV text is UTF-8 and may start
with a BOM. Any other file, or bytes that are not UTF-8, is a
``LoadError``.

All pipeline arithmetic is done in float64 regardless of the width of the
input files; matrices are widened on load so downstream results do not
depend on storage precision. A dataset is held in one form: one array of
the train rows then the test rows, the train row count, and the test
rows' ids and labels. ``load_rows`` reads a train and a test file into
that array, each straight into its row range, and ``generate_synthetic``
returns the whole form: ``msde run`` scores the array in place, and
``msde tune`` gathers its trials' rows and its final rows from it.
"""

from __future__ import annotations

import ast
import csv
import logging
import math
import os
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, FitError, LoadError, ShapeError

logger = logging.getLogger(__name__)

# Standard deviations below this are treated as constant columns and
# replaced by 1.0 so standardization passes them through unscaled.
STD_FLOOR = 1e-8

# Floats per row block when fit_standardizer sums the squared deviations
# and when an NPY file's values are checked finite: transients hold one
# block, not a copy of the rows.
ROW_BLOCK_FLOATS = 2**16


def default_row_ids(n: int, prefix: str = "row") -> tuple[str, ...]:
    """Positional identifiers used when a format carries no ids of its own."""
    return tuple(f"{prefix}_{i:06d}" for i in range(n))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension affine transform fitted on training rows only."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_standardizer(train: np.ndarray) -> Standardizer:
    """Column means and sample stds (divisor n-1) of the float64 ``(n, d)``
    train rows; stds are floored.

    Columns whose sample std falls below ``STD_FLOOR`` get std 1.0 so a
    constant feature passes through unscaled instead of dividing by ~0.

    The std is ``train.std(axis=0, ddof=1)`` byte for byte, without its n x d
    transient: the squared deviations are taken over blocks of about
    ``ROW_BLOCK_FLOATS`` floats of rows, each block reduced along the rows
    with the running column sums as its first row. numpy sums each column
    of a C-contiguous array over the rows in sequence, so this continues
    its sum; a single column it sums pairwise, so d = 1 keeps ``train.std``.
    """
    n, d = train.shape
    if n < 2:
        raise FitError(f"standardizer needs at least 2 training rows, got {n}")
    mean = train.mean(axis=0)
    if d == 1:
        std = train.std(axis=0, ddof=1)
    else:
        # Squares are never -0.0, so a sum that starts from +0.0 keeps them.
        block = max(1, ROW_BLOCK_FLOATS // d)
        work, std = np.empty((min(block, n) + 1, d)), np.zeros(d)
        for lo in range(0, n, block):
            rows = work[:min(block, n - lo) + 1]
            rows[0] = std
            squares = np.subtract(train[lo:lo + block], mean, out=rows[1:])
            squares *= squares
            np.add.reduce(rows, axis=0, out=std)
        std /= n - 1
        np.sqrt(std, out=std)
    std = np.where(std < STD_FLOOR, 1.0, std)
    return Standardizer(_readonly(mean), _readonly(std))


def apply_standardizer(s: Standardizer, rows: np.ndarray) -> None:
    """Standardize the float64 ``(n, d)`` array ``rows`` in place:
    ``(rows - mean) / std``."""
    if rows.shape[1] != s.dim:
        raise ShapeError(f"standardizer dim {s.dim} != data dim {rows.shape[1]}")
    rows -= s.mean
    rows /= s.std


@dataclass(frozen=True)
class SyntheticSpec:
    """Isotropic unit Gaussian blobs: normals at the origin, anomalies
    displaced by ``anomaly_offset`` along the first axis."""

    dim: int = 8
    n_train: int = 200
    n_test_normal: int = 50
    n_test_anomalous: int = 50
    anomaly_offset: float = 3.0

    def __post_init__(self):
        for name in ("dim", "n_train", "n_test_normal", "n_test_anomalous"):
            if getattr(self, name) < 1:
                raise ConfigError(f"synthetic spec: {name} must be >= 1")
        if not math.isfinite(self.anomaly_offset):
            raise ConfigError("synthetic spec: anomaly_offset must be finite")


def generate_synthetic(spec: SyntheticSpec, seed: int
                       ) -> tuple[np.ndarray, int, tuple[str, ...], np.ndarray]:
    """Deterministic blob dataset, a pure function of (spec, seed), in the
    form ``msde run`` loads: one writable C-contiguous float64 array of the
    train rows, then the test normals, then the anomalies; the train row
    count; the test rows' ids (``test_NNNNNN``) and labels."""
    n_test = spec.n_test_normal + spec.n_test_anomalous
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 1.0, size=(spec.n_train + n_test, spec.dim))
    rows[spec.n_train + spec.n_test_normal:, 0] += spec.anomaly_offset
    labels = np.zeros(n_test, dtype=np.int64)
    labels[spec.n_test_normal:] = 1
    return rows, spec.n_train, default_row_ids(n_test, "test"), labels


# ---------------------------------------------------------------------------
# File I/O: every text file msde reads or writes goes through
# read_csv_rows and write_lines.
# ---------------------------------------------------------------------------

def read_csv_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """Non-blank rows of a UTF-8 CSV file (LF or CRLF line ends, optional
    BOM), each with the file line it ends on, so errors can name the line a
    reader sees."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, row) for row in reader
                    if row and (len(row) > 1 or row[0].strip())]
    except UnicodeDecodeError as exc:
        raise LoadError(
            f"{path}: not UTF-8 text: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None


def write_lines(path: str | Path, lines) -> None:
    """Write ``lines`` as UTF-8 text, each followed by LF on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _parse_csv_matrix(path: Path) -> np.ndarray:
    rows = read_csv_rows(path)
    if not rows:
        raise LoadError(f"{path}: file is empty")

    def parse_row(cells, line_no):
        out = []
        for j, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                raise LoadError(
                    f"{path}: cell at line {line_no}, column {j + 1} is not a "
                    f"number: {cell.strip()!r}"
                ) from None
            if not math.isfinite(v):
                raise LoadError(
                    f"{path}: non-finite value {cell.strip()!r} at line "
                    f"{line_no}, column {j + 1}"
                )
            out.append(v)
        return out

    # Header auto-detection: first row is a header iff any cell fails to parse.
    start = 0
    try:
        [float(c) for c in rows[0][1]]
    except ValueError:
        start = 1
    if start == 1 and len(rows) == 1:
        raise LoadError(f"{path}: header only, no data rows")

    width = len(rows[start][1])
    data = []
    for line_no, cells in rows[start:]:
        if len(cells) != width:
            raise LoadError(
                f"{path}: line {line_no} has {len(cells)} fields, expected {width}"
            )
        data.append(parse_row(cells, line_no))
    return np.array(data, dtype=np.float64)


_NPY_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


@contextmanager
def _reading(path: Path):
    """Turn the errors reading ``path`` can raise into ``LoadError``."""
    try:
        yield
    except (OSError, ValueError, TypeError, SyntaxError, MemoryError,
            RecursionError) as exc:
        # Besides OSError: read_magic's bad magic (ValueError) and a
        # malformed header literal, whose parser also hits depth limits.
        raise LoadError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _npy_header(fh, path: Path) -> tuple[np.dtype, tuple[int, int]]:
    """Dtype and shape of the NPY v1.0 file ``fh`` holding a 2-D
    ``<f4``/``<f8`` C-order matrix, left positioned at its payload.

    The header is checked in full before a dtype is built. Its ``descr`` is
    looked up as a string and never reaches numpy's dtype parser, which
    kills the process with SIGFPE on ``'M8[s/0]'`` (numpy 2.4.6). The file
    must hold exactly the shape's payload bytes after the header.
    """
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise LoadError(f"{path}: NPY version {version[0]}.{version[1]} "
                        "unsupported, only 1.0 is accepted")
    text = fh.read(int.from_bytes(fh.read(2), "little")).decode("latin-1")
    header = ast.literal_eval(text.strip())
    if not (isinstance(header, dict)
            and header.keys() == {"descr", "fortran_order", "shape"}):
        raise LoadError(f"{path}: NPY header must have exactly descr/fortran_order/shape")
    descr, shape = header["descr"], header["shape"]
    if not isinstance(descr, str) or descr not in _NPY_DTYPES:
        raise LoadError(f"{path}: dtype {descr!r} unsupported, expected '<f4' or '<f8'")
    if header["fortran_order"] is not False:
        raise LoadError(f"{path}: fortran_order must be False (C order)")
    if (not isinstance(shape, tuple) or len(shape) != 2
            or any(type(s) is not int for s in shape)):
        raise LoadError(f"{path}: shape {shape!r} is not 2-D")
    if min(shape) < 1:
        raise LoadError(f"{path}: empty dimension in shape {shape}")
    dtype = _NPY_DTYPES[descr]
    expected = shape[0] * shape[1] * dtype.itemsize
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload != expected:
        raise LoadError(
            f"{path}: payload is {payload} bytes, shape {shape} needs {expected}")
    return dtype, shape


def _open_matrix(path: str | Path, files: ExitStack):
    """``(shape, fill)`` of the matrix in ``path`` (``.npy`` or ``.csv``, by
    suffix): ``fill(out)`` writes its rows into the float64 array ``out`` of
    that shape. A CSV is parsed here. An NPY file's header is checked here
    and its payload read by ``fill``, from the file ``files`` keeps open, so
    a large file is never held a second time as bytes; its values must be
    finite."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        values = _parse_csv_matrix(path)
        return values.shape, lambda out: np.copyto(out, values)
    if suffix != ".npy":
        raise LoadError(f"{path}: cannot infer format from suffix {suffix!r}")
    with _reading(path):
        fh = files.enter_context(open(path, "rb"))
        dtype, shape = _npy_header(fh, path)

    def fill(out):
        # straight into out for <f8, through one buffer of the file's size for <f4
        target = out if dtype == out.dtype else np.empty(shape, dtype)
        with _reading(path):
            got = fh.readinto(memoryview(target).cast("B"))
        if got != target.nbytes:
            raise LoadError(f"{path}: payload is {got} bytes, shape {shape} "
                            f"needs {target.nbytes}")
        if target is not out:
            out[...] = target
        block = max(1, ROW_BLOCK_FLOATS // shape[1])
        for lo in range(0, shape[0], block):
            finite = np.isfinite(out[lo:lo + block])
            if not finite.all():
                row, col = np.argwhere(~finite)[0]
                raise LoadError(f"{path}: non-finite value at row {lo + row}, "
                                f"column {col}")
    return shape, fill


def load_rows(train_path: str | Path, test_path: str | Path) -> tuple[np.ndarray, int]:
    """The rows of the train file then the test file, read into one
    writable C-contiguous float64 array, and the number of train rows.

    Each file is read by its suffix and checked as the module docstring
    says, straight into its row range, so no row is held twice; the two
    must have the same width.
    """
    with ExitStack() as files:
        (n_train, dim), fill_train = _open_matrix(train_path, files)
        (n_test, test_dim), fill_test = _open_matrix(test_path, files)
        if dim != test_dim:
            raise ShapeError(f"train dim {dim} != test dim {test_dim}")
        rows = np.empty((n_train + n_test, dim))
        fill_train(rows[:n_train])
        fill_test(rows[n_train:])
    return rows, n_train


def load_labels(path: str | Path) -> dict[str, int]:
    """Sidecar label file: ``row_id,label`` rows, optional header."""
    rows = read_csv_rows(path)
    if not rows:
        raise LoadError(f"{path}: label file is empty")
    if rows[0][1][0].strip().lower() == "row_id":
        rows = rows[1:]
    labels: dict[str, int] = {}
    for line_no, cells in rows:
        if len(cells) < 2:
            raise LoadError(f"{path}: line {line_no} needs row_id,label")
        rid = cells[0].strip()
        try:
            lab = int(cells[1])
        except ValueError:
            raise LoadError(
                f"{path}: label for {rid!r} is not an integer: {cells[1]!r}"
            ) from None
        if lab not in (0, 1):
            raise LoadError(f"{path}: label for {rid!r} must be 0 or 1, got {lab}")
        if rid in labels:
            raise LoadError(f"{path}: line {line_no}: duplicate row id {rid!r}")
        labels[rid] = lab
    return labels


def join_labels(row_ids, labels: dict[str, int]) -> np.ndarray:
    """Sidecar labels in ``row_ids`` order; the ids must match exactly."""
    missing = [r for r in row_ids if r not in labels]
    if missing:
        raise LoadError(
            f"label file is missing {len(missing)} row ids (first: {missing[0]!r})"
        )
    extra = set(labels) - set(row_ids)
    if extra:
        raise LoadError(
            f"label file has {len(extra)} unknown row ids (e.g. {sorted(extra)[0]!r})"
        )
    return np.array([labels[r] for r in row_ids], dtype=np.int64)


def save_scores(report, path: str | Path) -> None:
    """Write per-test-row scores as CSV, 17 significant digits.

    Header is ``row_id,label,raw_score,normalized_score``; row order matches
    the test matrix. 17 digits make the decimal round-trip bit-exact.
    """
    n = len(report.raw)
    if not (len(report.normalized) == len(report.labels) == len(report.row_ids) == n):
        raise ShapeError("score report fields disagree in length")
    if n == 0:
        warnings.warn("score report is empty; writing header-only file")
    write_lines(path, [
        "row_id,label,raw_score,normalized_score",
        *(f"{rid},{int(lab)},{raw:.17g},{norm:.17g}" for rid, lab, raw, norm
          in zip(report.row_ids, report.labels, report.raw, report.normalized)),
    ])
    logger.info("wrote %d scores to %s", n, path)


def load_scores(path: str | Path):
    """Read back a scores CSV into (row_ids, labels, raw, normalized); row
    ids must be unique."""
    rows = read_csv_rows(path)
    if not rows or rows[0][1] != ["row_id", "label", "raw_score", "normalized_score"]:
        raise LoadError(f"{path}: not a scores CSV (bad header)")
    row_ids, labels, raw, norm, seen = [], [], [], [], set()
    for line_no, cells in rows[1:]:
        if len(cells) != 4:
            raise LoadError(
                f"{path}: line {line_no} has {len(cells)} fields, expected 4")
        if cells[0] in seen:
            raise LoadError(f"{path}: line {line_no}: duplicate row id {cells[0]!r}")
        seen.add(cells[0])
        row_ids.append(cells[0])
        try:
            labels.append(int(cells[1]))
            raw.append(float(cells[2]))
            norm.append(float(cells[3]))
        except ValueError as exc:
            raise LoadError(f"{path}: line {line_no}: {exc}") from None
    return (
        tuple(row_ids),
        np.array(labels, dtype=np.int64),
        np.array(raw, dtype=np.float64),
        np.array(norm, dtype=np.float64),
    )
