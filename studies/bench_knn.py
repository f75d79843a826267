"""Scaling benchmark of exact k-NN: ``knn_neighbors`` and ``build_knn_graph``.

Runs fixed seed-42 standard-normal instances (600x512 k=50, 800x512 k=15,
500x32 k=15, 510x32 k=30, 2000x512 k=50 and 4000x32 k=15) through both
calls. Each call is made in a fresh interpreter per checkout, in
alternated pairs, then once more under tracemalloc (see ``_bench.py``).
The digest is the SHA-256 of the output bytes: the neighbor lists of
``knn_neighbors``; the graph's ``neighbors`` then ``distances`` of
``build_knn_graph``. The comparison is written to
``studies/BENCH_knn.json``. To compare a change with its parent checkout:

    python studies/bench_knn.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread; the scan itself runs on one thread.
pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib

import numpy as np

import _bench

INSTANCES = [{"call": call, "rows": rows, "dim": dim, "k": k}
             for rows, dim, k in ((600, 512, 50), (800, 512, 15), (500, 32, 15),
                                  (510, 32, 30), (2000, 512, 50), (4000, 32, 15))
             for call in ("knn_neighbors", "build_knn_graph")]
SEED = 42


def call(instance: dict) -> tuple:
    """(function, arguments, digest of its output) of one instance."""
    from msde import knn

    shape = instance["rows"], instance["dim"]
    points = np.random.default_rng(SEED).standard_normal(shape)
    if instance["call"] == "knn_neighbors":
        return (knn.knn_neighbors, (points, instance["k"]),
                lambda out: hashlib.sha256(out.tobytes()).hexdigest())
    return (knn.build_knn_graph, (points, instance["k"]),
            lambda out: hashlib.sha256(out.neighbors.tobytes()
                                       + out.distances.tobytes()).hexdigest())


if __name__ == "__main__":
    _bench.main(__doc__, __file__, INSTANCES, seed=SEED)
