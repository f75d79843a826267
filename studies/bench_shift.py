"""Scaling benchmark of one density-weighted mean-shift step, ``shift_step``.

Runs fixed seed-42 instances (600x512, 800x512 and 2500x512 with k=50, and
450x32 with k=60): standard-normal points, their ``knn_neighbors`` lists
and uniform weights in [0, 5) with a quarter of them set to zero, stepped
at the default eta of 0.33. Each step is made in a fresh interpreter per
checkout, in alternated pairs, then once more under tracemalloc (see
``_bench.py``); the inputs are built before the timer starts. The digest
is the SHA-256 of the new points' bytes, then the mean displacement as
float64. The comparison is written to ``studies/BENCH_shift.json``. To
compare a change with its parent checkout:

    python studies/bench_shift.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread. pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib

import numpy as np

import _bench

INSTANCES = [{"call": "shift_step", "rows": rows, "dim": dim, "k": k}
             for rows, dim, k in ((600, 512, 50), (800, 512, 50), (2500, 512, 50),
                                  (450, 32, 60))]
SEED, ETA, ZERO_FRACTION = 42, 0.33, 0.25


def call(instance: dict) -> tuple:
    """(function, arguments, digest of its output) of one instance."""
    from msde.knn import knn_neighbors
    from msde.shift import shift_step

    rows = instance["rows"]
    rng = np.random.default_rng(SEED)
    points = rng.standard_normal((rows, instance["dim"]))
    weights = rng.uniform(0.0, 5.0, size=rows)
    weights[rng.random(rows) < ZERO_FRACTION] = 0.0
    neighbors = knn_neighbors(points, instance["k"])
    return (shift_step, (points, neighbors, weights, ETA),
            lambda out: hashlib.sha256(out[0].tobytes()
                                       + np.float64(out[1]).tobytes()).hexdigest())


if __name__ == "__main__":
    _bench.main(__doc__, __file__, INSTANCES, seed=SEED, eta=ETA,
                zero_fraction=ZERO_FRACTION)
