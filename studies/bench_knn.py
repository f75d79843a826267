"""Scaling benchmark of exact k-NN: ``knn_neighbors`` and ``build_knn_graph``.

Runs fixed seed-42 standard-normal instances (600x512 k=50, 800x512 k=15,
500x32 k=15, 510x32 k=30, 2000x512 k=50 and 4000x32 k=15) through both
calls. Each call is timed as the median of five, alternating with the
other checkouts' calls, then run once more under tracemalloc for its peak.
The seconds, the peak and the SHA-256 of the output bytes (the neighbor
lists of ``knn_neighbors``; the graph's ``neighbors`` and ``distances`` of
``build_knn_graph``) are stored in ``studies/BENCH_knn.json`` under each
label, with the machine it ran on (see ``_bench.py``). A checkout without
``knn_neighbors`` is measured on ``build_knn_graph(points, k).neighbors``
in its place. To compare a change with its parent checkout:

    python studies/bench_knn.py --run parent=../parent/src --run change=src

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


def _calls(knn) -> dict:
    """Both calls of one checkout: name -> (function, its output's bytes)."""
    neighbors = getattr(knn, "knn_neighbors",
                        lambda points, k: knn.build_knn_graph(points, k).neighbors)
    return {"knn_neighbors": (neighbors, lambda out: out.tobytes()),
            "build_knn_graph": (knn.build_knn_graph, lambda out: out.neighbors.tobytes()
                                + out.distances.tobytes())}


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_knn.json")
    import numpy as np

    calls = {label: _calls(msde.knn) for label, msde in args.packages.items()}
    results = {label: [] for label in args.packages}
    for rows, dim, k in INSTANCES:
        if args.max_rows is not None and rows > args.max_rows:
            continue
        points = np.random.default_rng(SEED).standard_normal((rows, dim))
        for call in ("knn_neighbors", "build_knn_graph"):
            timed = _bench.measure({label: (fns[call][0], (points, k))
                                    for label, fns in calls.items()}, REPEATS)
            for label, (out, timing) in timed.items():
                digest = hashlib.sha256(calls[label][call][1](out)).hexdigest()
                results[label].append({"call": call, "rows": rows, "dim": dim, "k": k,
                                       **timing, "sha256": digest})
                print(json.dumps({"label": label, **results[label][-1]}), flush=True)
    _bench.write_report(args, {"seed": SEED, "repeats": REPEATS}, results,
                        ("call", "rows", "dim", "k"))


if __name__ == "__main__":
    main()
