"""Tests of the benchmark's own code: span arithmetic, inputs and output checks.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

TINY = Workload("tiny", "run", 8, 120, 20, 20, (), 1)


def test_self_times_of_nested_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.child", 6.0, 8.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_times_count_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0),
             Span("y", 3.0, 7.0, parent=0), Span("z", 9.0, 12.0, parent=0)]
    # covered: [1, 7] and [9, 10] -> 7 of 10 seconds
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_self_time_with_fake_clock():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap_span("knn.build_knn_graph", lambda points, k, threads=1: None)
    outer = t.wrap_span("shift.run_shift", lambda: (inner(None, 1), inner(None, 1)))
    outer()
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("shift.run_shift", None), ("knn.build_knn_graph", 0),
                     ("knn.build_knn_graph", 0)]
    # outer 0..5, inner 1..2 and 3..4: outer self time 5 - 2
    assert self_times(t.spans) == pytest.approx([3.0, 1.0, 1.0])
    metrics = layer_metrics(t.spans, t.counts, e2e_s=6.0)
    assert metrics["knn.calls"] == 2
    assert metrics["knn.self_s"] == pytest.approx(2.0)
    assert metrics["untraced_s"] == pytest.approx(1.0)


def test_absent_function_reports_zero_calls():
    import msde.cli  # noqa: F401  (loads every msde module)
    t = Tracer()
    t.install(span_targets=[("msde.weights", "no_such_function", None)],
              count_targets=[("msde.parallel", "no_such_helper")])
    assert t._patched == []
    metrics = layer_metrics(t.spans, t.counts, e2e_s=1.0)
    assert metrics["weights.pairwise_s"] == 0
    assert metrics["parallel.calls"] == 0


def test_install_wraps_every_binding_and_uninstall_restores():
    import msde.shift
    import msde.weights
    original = msde.weights.build_knn_graph
    t = Tracer()
    t.install()
    try:
        assert msde.weights.build_knn_graph is not original
        assert msde.shift.build_knn_graph is msde.weights.build_knn_graph
    finally:
        t.uninstall()
    assert msde.weights.build_knn_graph is original
    assert msde.shift.build_knn_graph is original


def test_same_seed_gives_same_input_bytes(tmp_path):
    w = WORKLOADS["tune-d32"]
    make_inputs(w, 7, tmp_path / "a")
    make_inputs(w, 7, tmp_path / "b")
    make_inputs(w, 8, tmp_path / "c")
    for name in ("train.npy", "test.npy", "labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "train.npy").read_bytes() != (tmp_path / "c" / "train.npy").read_bytes()
    header = (tmp_path / "a" / "train.npy").read_bytes()[:8]
    assert header == b"\x93NUMPY\x01\x00"  # NPY version 1.0


def test_rank_auc_handles_ties():
    assert run.rank_auc([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1]) == 1.0
    assert run.rank_auc([0.5, 0.5], [0, 1]) == 0.5


@pytest.fixture(scope="module")
def tiny_call(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    make_inputs(TINY, 3, work / "inputs")
    call = run.run_call(TINY, work / "inputs", work / "out", False, run.child_env(), 120)
    assert call["ok"], call.get("error")
    return call, work / "out"


def test_digest_check_flags_a_tampered_output(tiny_call):
    call, out = tiny_call
    again = {"ok": True, "digests": run.output_digests(TINY, out)}
    run.check_digests(again, call["digests"])
    assert again["ok"]

    scores = out / "scores.csv"
    original = scores.read_bytes()
    try:
        scores.write_bytes(original.replace(b",0.", b",1.", 1))
        tampered = {"ok": True, "digests": run.output_digests(TINY, out)}
        run.check_digests(tampered, call["digests"])
        assert not tampered["ok"]
        assert "scores.csv" in tampered["error"]
    finally:
        scores.write_bytes(original)


def test_output_check_flags_a_wrong_auc(tiny_call):
    _, out = tiny_call
    metrics_path = out / "metrics.json"
    original = metrics_path.read_text()
    try:
        metrics = json.loads(original)
        metrics["auc"] = round(1.0 - metrics["auc"], 6) if metrics["auc"] != 0.5 else 0.25
        metrics_path.write_text(json.dumps(metrics))
        with pytest.raises(ValueError, match="auc"):
            run.check_run_outputs(TINY, out)
    finally:
        metrics_path.write_text(original)


def test_kdtree_route_follows_dimension():
    import numpy as np
    low = tracer._knn_attrs({"points": np.zeros((5, 32))}, None)
    high = tracer._knn_attrs({"points": np.zeros((5, 33))}, None)
    assert (low["route"], high["route"]) == ("kdtree", "scan")


def test_parallel_counts_only_fan_out_calls():
    from msde.parallel import map_row_blocks
    t = Tracer()
    wrapped = t.wrap_count("parallel", map_row_blocks)
    wrapped(lambda a, b: None, 10, 1)
    wrapped(lambda a, b: None, n_rows=10, threads=2)
    assert t.counts == {"parallel.calls": 1, "parallel.blocks": 2}
