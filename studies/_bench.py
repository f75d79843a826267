"""Shared plumbing of the ``bench_*.py`` scaling benchmarks.

Each benchmark measures one msde function on fixed seed-42 instances, for
one or more checkouts given as ``--run LABEL=SRC`` (``SRC`` is the
directory holding that checkout's ``msde`` package). Every checkout's
package is loaded into the one process under a name of its own, and on
each instance the labels' calls alternate, with the first label swapping
on every repeat, so drift on a shared machine falls on all of them alike.
The results are stored in a ``BENCH_*.json`` under each label, with the
machine it ran on. Other labels already in the file are kept, and
``hashes_match`` compares every pair of labels on the instances both ran.
BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _label_src(value: str) -> tuple[str, Path]:
    label, sep, src = value.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {value!r}")
    return label, Path(src).resolve()


def _load_package(src: Path, name: str):
    """The ``msde`` package under ``src``, imported as ``name`` with all
    the submodules its ``__init__`` imports."""
    init = src / "msde" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def setup(doc: str, out_name: str) -> argparse.Namespace:
    """Parse ``--run LABEL=SRC`` (repeatable), ``--max-rows`` and
    ``--out``, pin BLAS to one thread and load each checkout's package:
    ``args.packages`` maps each label to its ``msde``, in the given order."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--run", action="append", required=True, type=_label_src,
                        metavar="LABEL=SRC",
                        help="a label and the directory holding the msde package "
                             "it measures; give two or more to compare them")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="skip instances with more rows")
    parser.add_argument("--out", default=str(HERE / out_name))
    args = parser.parse_args()
    labels = [label for label, _ in args.run]
    if len(set(labels)) != len(labels):
        parser.error(f"each --run needs its own label, got {labels}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    args.packages = {label: _load_package(src, f"_msde_run{i}")
                     for i, (label, src) in enumerate(args.run)}
    return args


def measure(calls: dict, repeats: int = 1) -> dict:
    """Time ``fn(*fn_args)`` for every ``label: (fn, fn_args)`` of ``calls``,
    ``repeats`` times each: the labels alternate, and the first of them
    swaps on every repeat. Returns ``label: (result, timing)``, where
    timing holds ``seconds``, the median of the repeats,
    ``repeat_seconds``, each call's seconds in order (their spread shows
    how far the median can be trusted), ``repeat_minflt`` and
    ``repeat_sys_s``, each call's minor page faults and kernel seconds
    (``getrusage`` of the whole process, so threads included), with
    ``minflt`` and ``sys_s`` their medians, and ``peak_mb``, the
    tracemalloc peak in MB of one more call. The calls share one process's
    heap, so faults read lower than in a fresh process."""
    labels = list(calls)
    usage = {label: {"seconds": [], "minflt": [], "sys_s": []} for label in labels}
    results = {}
    for r in range(repeats):
        for label in labels[::-1] if r % 2 else labels:
            fn, fn_args = calls[label]
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            results[label] = fn(*fn_args)
            usage[label]["seconds"].append(time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_SELF)
            usage[label]["minflt"].append(after.ru_minflt - before.ru_minflt)
            usage[label]["sys_s"].append(after.ru_stime - before.ru_stime)
    out = {}
    for label in labels:
        fn, fn_args = calls[label]
        tracemalloc.start()
        try:
            fn(*fn_args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        timing = {}
        for name, values in usage[label].items():
            timing[name] = round(statistics.median(values), 4)
            timing[f"repeat_{name}"] = [round(v, 4) for v in values]
        out[label] = (results[label], {**timing, "peak_mb": round(peak / 2**20, 2)})
    return out


def _machine() -> dict:
    import numpy
    import scipy
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _hashes_match(runs: dict, key: tuple) -> dict:
    out = {}
    for a, b in itertools.combinations(sorted(runs), 2):
        left = {tuple(r.get(f) for f in key): r["sha256"] for r in runs[a]["results"]}
        both = [r for r in runs[b]["results"] if tuple(r.get(f) for f in key) in left]
        out[f"{a} vs {b}"] = {
            "compared": len(both),
            "equal": all(left[tuple(r.get(f) for f in key)] == r["sha256"] for r in both),
        }
    return out


def write_report(args: argparse.Namespace, header: dict, results: dict,
                 key: tuple) -> None:
    """Store each label's list of ``results`` in ``args.out``, noting the
    labels it alternated with; results of two labels are the same instance
    when they agree on the ``key`` fields."""
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    runs = report.get("runs", {})
    for label, rows in results.items():
        runs[label] = {"machine": _machine(),
                       "alternated_with": [other for other in results if other != label],
                       "results": rows}
    report = {**header, "runs": runs, "hashes_match": _hashes_match(runs, key)}
    out.write_text(json.dumps(report, indent=2) + "\n")
