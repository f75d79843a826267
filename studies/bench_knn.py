"""Scaling benchmark of exact k-NN: ``knn_neighbors`` and ``build_knn_graph``.

Runs fixed seed-42 standard-normal instances (600x512 k=50, 800x512 k=15,
500x32 k=15, 510x32 k=30, 2000x512 k=50 and 4000x32 k=15) through both
calls. Each call is timed as the median of five, then run once more under
tracemalloc for its peak. The seconds, the peak and the SHA-256 of the
output bytes (the neighbor lists of ``knn_neighbors``; the graph's
``neighbors`` and ``distances`` of ``build_knn_graph``) are stored in
``studies/BENCH_knn.json`` under a label, with the machine it ran on (see
``_bench.py``). A checkout without ``knn_neighbors`` is measured on
``build_knn_graph(points, k).neighbors`` in its place. To compare a change
with its parent checkout:

    python studies/bench_knn.py --label change
    python studies/bench_knn.py --label parent --src ../parent/src

BLAS is pinned to one thread; the scan itself runs on one thread.
pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib
import json

import _bench

INSTANCES = ((600, 512, 50), (800, 512, 15), (500, 32, 15), (510, 32, 30),
             (2000, 512, 50), (4000, 32, 15))
SEED, REPEATS = 42, 5


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_knn.json")
    import numpy as np
    from msde import knn

    neighbors = getattr(knn, "knn_neighbors",
                        lambda points, k: knn.build_knn_graph(points, k).neighbors)
    calls = (("knn_neighbors", neighbors, lambda out: out.tobytes()),
             ("build_knn_graph", knn.build_knn_graph,
              lambda out: out.neighbors.tobytes() + out.distances.tobytes()))
    results = []
    for rows, dim, k in INSTANCES:
        if args.max_rows is not None and rows > args.max_rows:
            continue
        points = np.random.default_rng(SEED).standard_normal((rows, dim))
        for call, fn, output_bytes in calls:
            out, seconds, peak_mb = _bench.measure(fn, points, k, repeats=REPEATS)
            results.append({"call": call, "rows": rows, "dim": dim, "k": k,
                            "seconds": seconds, "peak_mb": peak_mb,
                            "sha256": hashlib.sha256(output_bytes(out)).hexdigest()})
            print(json.dumps(results[-1]), flush=True)
    _bench.write_report(args, {"seed": SEED, "repeats": REPEATS}, results,
                        ("call", "rows", "dim", "k"))


if __name__ == "__main__":
    main()
