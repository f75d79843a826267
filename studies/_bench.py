"""Shared plumbing of the ``bench_*.py`` scaling benchmarks.

Each benchmark measures one msde function on fixed seed-42 instances and
stores its results in a ``BENCH_*.json`` under a label (``parent``,
``change``, ...), with the machine it ran on. Other labels already in the
file are kept, and ``hashes_match`` compares every pair of labels on the
instances both ran. BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent


def setup(doc: str, out_name: str) -> argparse.Namespace:
    """Parse ``--label``, ``--src``, ``--max-rows`` and ``--out``, pin BLAS
    to one thread and put ``--src`` first on the import path."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(HERE.parent / "src"),
                        help="directory holding the msde package to measure")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="skip instances with more rows")
    parser.add_argument("--out", default=str(HERE / out_name))
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(Path(args.src).resolve()))
    return args


def measure(fn, *args, repeats: int = 1):
    """``fn(*args)`` and its timing: ``seconds``, the median of ``repeats``
    calls, ``repeat_seconds``, each call's seconds in order (their spread
    shows how far the median can be trusted), and ``peak_mb``, the
    tracemalloc peak in MB of one more call."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, {"seconds": round(statistics.median(seconds), 4),
                    "repeat_seconds": [round(t, 4) for t in seconds],
                    "peak_mb": round(peak / 2**20, 2)}


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


def write_report(args: argparse.Namespace, header: dict, results: list,
                 key: tuple) -> None:
    """Store ``results`` under ``args.label`` in ``args.out``; results of
    two labels are the same instance when they agree on the ``key`` fields."""
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    runs = report.get("runs", {})
    runs[args.label] = {"machine": _machine(), "results": results}
    report = {**header, "runs": runs, "hashes_match": _hashes_match(runs, key)}
    out.write_text(json.dumps(report, indent=2) + "\n")
