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
    assert set(row["sign_test"]) == set(row["sign_test_ru_maxrss"]) == {"a vs b"}


def test_peak_rss_is_sign_tested_pair_by_pair(monkeypatch):
    # Seconds and ru_maxrss are tested on their own pairs: here a is the
    # faster label in every pair and the larger one in all but a tie.
    seconds = {"a": [1.0, 1.0, 1.0], "b": [2.0, 2.0, 2.0]}
    rss = {"a": [900, 800, 700], "b": [800, 800, 600]}
    calls = {"a": 0, "b": 0}

    def fake_child(module, instance, src, peak=False):
        label = src.name
        if peak:
            return {"seconds": 0.0, "minflt": 0, "sys_s": 0.0, "ru_maxrss": 0,
                    "peak_mb": 1.0, "sha256": "h"}
        i = calls[label]
        calls[label] += 1
        return {"seconds": seconds[label][i], "minflt": 0, "sys_s": 0.0,
                "ru_maxrss": rss[label][i], "sha256": "h"}

    monkeypatch.setattr(_bench, "run_child", fake_child)
    row = _bench.measure("m", {}, [("a", Path("a")), ("b", Path("b"))], pairs=3)
    assert row["sign_test"] == {"a vs b": {"wins": [3, 0], "ties": 0, "p": 0.25}}
    assert row["sign_test_ru_maxrss"] == {"a vs b": {"wins": [0, 2], "ties": 1, "p": 0.5}}
    assert row["runs"]["a"]["ru_maxrss"] == 800


def test_child_whose_msde_is_from_outside_its_src_fails(tmp_path):
    # The bench module sits in SRC but puts another msde first on the path.
    (tmp_path / "stray_bench.py").write_text(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n\n\n"
        "def call(instance):\n    return len, ((),), str\n")
    with pytest.raises(RuntimeError, match="not from"):
        _bench.run_child("stray_bench", {}, tmp_path)
