"""Outside-in tracer: times calls into msde's public functions.

Nothing inside ``src/`` records spans. Instead ``Tracer.install`` replaces
each traced function, wherever a loaded ``msde`` module holds it (the
defining module and every ``from .x import f`` binding), with a wrapper
that records a span: name, start, end, parent span and a few attributes
read from the arguments and the result. A traced function that no longer
exists is skipped, so its layer reports zero calls. Spans stay in memory
until ``dump`` writes them out at the end of the run.

``layer_metrics`` turns the spans into the per-layer metrics. A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

KDTREE_MAX_DIM_DEFAULT = 32


def _rows(points) -> int:
    return int(getattr(points, "values", points).shape[0])


def _knn_attrs(args, result):
    values = getattr(args["points"], "values", args["points"])
    knn = sys.modules.get("msde.knn")
    max_dim = getattr(knn, "KDTREE_MAX_DIM", KDTREE_MAX_DIM_DEFAULT)
    # The route follows from the input dimension alone.
    route = "kdtree" if values.shape[1] <= max_dim else "scan"
    return {"rows": int(values.shape[0]), "route": route}


def _fuzzy_attrs(args, result):
    return {"nnz": int(result.memberships.nnz)}


def _pairwise_attrs(args, result):
    n = _rows(args["points"])
    return {"rows": n, "bytes_computed": n * n * 8}


def _shift_attrs(args, result):
    return {"rows": _rows(args["points"]),
            "iterations": int(result.trace.iterations_run)}


def _search_attrs(args, result):
    _, records, _ = result
    return {"trials": len(records),
            "failed_trials": sum(1 for r in records if r.val_auc == -1.0)}


# (module, function, attribute reader). Each becomes a span named
# "<module>.<function>" without the "msde." prefix.
SPAN_TARGETS = (
    ("msde.data", "load_embeddings", None),
    ("msde.data", "attach_labels", None),
    ("msde.data", "fit_standardizer", None),
    ("msde.data", "apply_standardizer", None),
    ("msde.data", "save_scores", None),
    ("msde.knn", "build_knn_graph", _knn_attrs),
    ("msde.weights", "compute_empirical_weights", None),
    ("msde.weights", "build_fuzzy_graph", _fuzzy_attrs),
    ("msde.weights", "pairwise_distances", _pairwise_attrs),
    ("msde.shift", "run_shift", _shift_attrs),
    ("msde.scoring", "score_pipeline", None),
    ("msde.scoring", "fit_pca", None),
    ("msde.scoring", "project", None),
    ("msde.scoring", "fit_gaussian", None),
    ("msde.scoring", "mahalanobis", None),
    ("msde.scoring", "normalize_scores", None),
    ("msde.metrics", "evaluate", None),
    ("msde.tune", "make_leakage_split", None),
    ("msde.tune", "random_search", _search_attrs),
)

# Counted, not timed: a span here would take self time from its callers.
COUNT_TARGETS = (("msde.parallel", "map_row_blocks"),)


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, self.clock(), parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int, attrs: dict) -> None:
        end = self.clock()
        self._stack().pop()
        span = self.spans[index]
        span.end = end
        span.attrs.update(attrs)

    def wrap_span(self, name: str, fn, attrs_fn=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, {"error": type(exc).__name__})
                raise
            self._close(index, {})
            if attrs_fn is not None:
                # Read after the span closed, so the reading is not timed. A
                # reader that no longer fits the function must not fail the run.
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[index].attrs.update(attrs_fn(bound.arguments, result))
                except (TypeError, KeyError, AttributeError, ValueError) as exc:
                    self.spans[index].attrs["attrs_error"] = repr(exc)
            return result
        return wrapper

    def wrap_count(self, name: str, fn):
        signature = inspect.signature(fn)
        parallel = sys.modules.get("msde.parallel")
        row_blocks = getattr(parallel, "row_blocks", None)

        def count(args, kwargs) -> None:
            try:
                bound = signature.bind(*args, **kwargs)
                n_rows, threads = bound.arguments["n_rows"], bound.arguments["threads"]
            except (TypeError, KeyError):
                return  # a changed signature leaves the counts at zero
            if row_blocks is not None:
                blocks = len(row_blocks(n_rows, threads))
            else:
                blocks = max(1, min(threads, n_rows))
            # Only calls that fan out to more than one block run in parallel.
            if threads > 1 and blocks > 1:
                with self._lock:
                    self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
                    self.counts[name + ".blocks"] = self.counts.get(name + ".blocks", 0) + blocks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, module_name: str, func_name: str, make) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, func_name, None)
        if original is None:
            return  # absent after a refactor: the layer reports zero calls
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "msde" or mod_name.startswith("msde.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> None:
        """Wrap every target that exists in the loaded msde modules."""
        for module_name, func_name, attrs_fn in span_targets:
            name = module_name.removeprefix("msde.") + "." + func_name
            self._replace_everywhere(
                module_name, func_name,
                lambda fn, name=name, attrs_fn=attrs_fn: self.wrap_span(name, fn, attrs_fn))
        for module_name, func_name in count_targets:
            name = module_name.removeprefix("msde.")
            self._replace_everywhere(
                module_name, func_name, lambda fn, name=name: self.wrap_count(name, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write one JSON line per span, then one line with the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def layer_metrics(spans: list[Span], counts: dict[str, int], e2e_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call that took ``e2e_s`` seconds."""
    selfs = self_times(spans)

    def pick(name, pred=lambda span: True):
        return [(s, t) for s, t in zip(spans, selfs) if s.name == name and pred(s)]

    def total(name, pred=lambda span: True):
        return sum(s.duration for s, _ in pick(name, pred))

    def self_total(name, pred=lambda span: True):
        return sum(t for _, t in pick(name, pred))

    def attr_sum(name, key, pred=lambda span: True):
        return sum(s.attrs.get(key, 0) for s, _ in pick(name, pred))

    knn = pick("knn.build_knn_graph")
    # Shift runs with max_iters=0 return at once; they are not shift work.
    stepped = lambda s: s.attrs.get("iterations", 0) > 0  # noqa: E731
    search_ids = {i for i, s in enumerate(spans) if s.name == "tune.random_search"}
    trials = attr_sum("tune.random_search", "trials")
    trial_spans = [s for s in spans
                   if s.name == "scoring.score_pipeline" and s.parent in search_ids]
    # random_search scores every trial, then the winner once more on the final split.
    trial_times = [s.duration for s in trial_spans[:trials]]
    top_level = sum(s.duration for s in spans if s.parent is None)
    return {
        "data.load_s": total("data.load_embeddings") + total("data.attach_labels"),
        "data.standardize_s": total("data.fit_standardizer") + total("data.apply_standardizer"),
        "data.write_s": total("data.save_scores"),
        "knn.calls": len(knn),
        "knn.rows": attr_sum("knn.build_knn_graph", "rows"),
        "knn.self_s": self_total("knn.build_knn_graph"),
        "knn.kdtree_calls": sum(1 for s, _ in knn if s.attrs.get("route") == "kdtree"),
        "knn.scan_calls": sum(1 for s, _ in knn if s.attrs.get("route") == "scan"),
        "weights.calls": len(pick("weights.compute_empirical_weights")),
        "weights.fuzzy_self_s": self_total("weights.build_fuzzy_graph"),
        "weights.fuzzy_nnz": attr_sum("weights.build_fuzzy_graph", "nnz"),
        "weights.pairwise_s": total("weights.pairwise_distances"),
        "weights.pairwise_bytes": attr_sum("weights.pairwise_distances", "bytes_computed"),
        "weights.radius_counts_s": self_total("weights.compute_empirical_weights"),
        "shift.calls": len(pick("shift.run_shift", stepped)),
        "shift.iterations": attr_sum("shift.run_shift", "iterations"),
        "shift.rows_stepped": sum(s.attrs.get("rows", 0) * s.attrs.get("iterations", 0)
                                  for s, _ in pick("shift.run_shift")),
        "shift.step_self_s": self_total("shift.run_shift", stepped),
        "scoring.pca_s": total("scoring.fit_pca"),
        "scoring.project_s": total("scoring.project"),
        "scoring.gaussian_s": total("scoring.fit_gaussian"),
        "scoring.mahalanobis_s": total("scoring.mahalanobis"),
        "scoring.normalize_s": total("scoring.normalize_scores"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "tune.trials": trials,
        "tune.failed_trials": attr_sum("tune.random_search", "failed_trials"),
        "tune.split_s": total("tune.make_leakage_split"),
        "tune.trial_s": statistics.median(trial_times) if trial_times else 0.0,
        "parallel.calls": counts.get("parallel.calls", 0),
        "parallel.blocks": counts.get("parallel.blocks", 0),
        "untraced_s": e2e_s - top_level,
    }
