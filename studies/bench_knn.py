"""Scaling benchmark of the exact k-NN graph, ``build_knn_graph``.

Runs fixed seed-42 standard-normal instances (600x512 k=50, 800x512 k=15,
500x32 k=15, 510x32 k=30, 2000x512 k=50 and 4000x32 k=15). Each instance
is timed as the median of five calls, then run once more under
tracemalloc for its peak. The seconds, the peak and the SHA-256 of the
graph's ``neighbors`` and ``distances`` bytes are stored in
``studies/BENCH_knn.json`` under a label, with the machine it ran on (see
``_bench.py``). To compare a change with its parent checkout:

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
    from msde.knn import build_knn_graph

    results = []
    for rows, dim, k in INSTANCES:
        if args.max_rows is not None and rows > args.max_rows:
            continue
        points = np.random.default_rng(SEED).standard_normal((rows, dim))
        graph, seconds, peak_mb = _bench.measure(build_knn_graph, points, k,
                                                 repeats=REPEATS)
        digest = hashlib.sha256(graph.neighbors.tobytes() + graph.distances.tobytes())
        results.append({"rows": rows, "dim": dim, "k": k, "seconds": seconds,
                        "peak_mb": peak_mb, "sha256": digest.hexdigest()})
        print(json.dumps(results[-1]), flush=True)
    _bench.write_report(args, {"seed": SEED, "repeats": REPEATS}, results,
                        ("rows", "dim", "k"))


if __name__ == "__main__":
    main()
