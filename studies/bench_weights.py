"""Scaling benchmark of the density weights, ``compute_empirical_weights``.

Runs fixed seed-42 standard-normal instances (600x512, 1000x512, 2000x512
and 4000x32; t_nbd 70, k_umap 15) at 1 and 2 threads. Each instance is
run once for wall time and once under tracemalloc for its peak. The
seconds, the peak, epsilon and the SHA-256 of the weights' bytes are
stored in ``studies/BENCH_weights.json`` under a label, with the machine
it ran on. Other labels already in the file are kept, and
``hashes_match`` compares every pair of labels on the instances both ran.
To compare a change with its parent checkout:

    python studies/bench_weights.py --label change
    python studies/bench_weights.py --label parent --src ../parent/src --max-rows 2000

BLAS is pinned to one thread, so ``threads`` is msde's only parallelism.
pytest does not collect this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
INSTANCES = ((600, 512), (1000, 512), (2000, 512), (4000, 32))
THREADS = (1, 2)
T_NBD, K_UMAP, SEED = 70, 15, 42


def _machine(np, scipy) -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _run(np, weights_fn, rows: int, dim: int, threads: int) -> dict:
    points = np.random.default_rng(SEED).standard_normal((rows, dim))
    start = time.perf_counter()
    dw = weights_fn(points, T_NBD, K_UMAP, threads=threads)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        weights_fn(points, T_NBD, K_UMAP, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"rows": rows, "dim": dim, "threads": threads,
            "seconds": round(seconds, 4), "peak_mb": round(peak / 2**20, 2),
            "epsilon": dw.schedule.epsilon,
            "sha256": hashlib.sha256(dw.weights.tobytes()).hexdigest()}


def _hashes_match(runs: dict) -> dict:
    out = {}
    for a, b in itertools.combinations(sorted(runs), 2):
        left = {(r["rows"], r["dim"], r["threads"]): r["sha256"]
                for r in runs[a]["results"]}
        both = [r for r in runs[b]["results"]
                if (r["rows"], r["dim"], r["threads"]) in left]
        out[f"{a} vs {b}"] = {
            "compared": len(both),
            "equal": all(left[(r["rows"], r["dim"], r["threads"])] == r["sha256"]
                         for r in both),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(HERE.parent / "src"),
                        help="directory holding the msde package to measure")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="skip instances with more rows")
    parser.add_argument("--out", default=str(HERE / "BENCH_weights.json"))
    args = parser.parse_args()

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    import scipy
    from msde.weights import compute_empirical_weights

    results = []
    for (rows, dim), threads in itertools.product(INSTANCES, THREADS):
        if args.max_rows is not None and rows > args.max_rows:
            continue
        results.append(_run(np, compute_empirical_weights, rows, dim, threads))
        print(json.dumps(results[-1]), flush=True)

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    runs = report.get("runs", {})
    runs[args.label] = {"machine": _machine(np, scipy), "results": results}
    report = {"t_nbd": T_NBD, "k_umap": K_UMAP, "seed": SEED, "runs": runs,
              "hashes_match": _hashes_match(runs)}
    out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
