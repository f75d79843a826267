"""The BENCH harness of ``studies/``: its sign test, and calls measured in
fresh interpreters that must import ``msde`` from their label's source."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "studies"))

import _bench  # noqa: E402
import bench_knn  # noqa: E402


def test_sign_test_on_fixed_counts():
    assert _bench.sign_test(7, 0) == _bench.sign_test(0, 7) == 0.015625
    assert _bench.sign_test(4, 3) == 1.0
    assert _bench.sign_test(0, 0) == 1.0


def test_ties_are_dropped_from_the_sign_test():
    got = _bench.compare([1.0, 2.0, 3.0, 5.0], [1.0, 3.0, 4.0, 5.0])
    assert got == {"wins": [2, 0], "ties": 2, "p": 0.5}


def test_children_give_the_in_process_digest():
    instance = {"call": "build_knn_graph", "rows": 40, "dim": 8, "k": 5}
    src = ROOT / "src"
    row = _bench.measure("bench_knn", instance, [("a", src), ("b", src)], pairs=1)
    fn, fn_args, digest = bench_knn.call(instance)
    expected = digest(fn(*fn_args))
    assert row["runs"]["a"]["sha256"] == row["runs"]["b"]["sha256"] == expected
    assert row["hashes_match"]
    assert row["runs"]["a"]["peak_mb"] > 0
    assert len(row["runs"]["b"]["pair_seconds"]) == 1
    assert set(row["sign_test"]) == {"a vs b"}


def test_child_whose_msde_is_from_outside_its_src_fails(tmp_path):
    # The bench module sits in SRC but puts another msde first on the path.
    (tmp_path / "stray_bench.py").write_text(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n\n\n"
        "def call(instance):\n    return len, ((),), str\n")
    with pytest.raises(RuntimeError, match="not from"):
        _bench.run_child("stray_bench", {}, tmp_path)
