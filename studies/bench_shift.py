"""Scaling benchmark of one density-weighted mean-shift step, ``shift_step``.

Runs fixed seed-42 instances (600x512, 800x512 and 2500x512 with k=50, and
450x32 with k=60): standard-normal points, their ``knn_neighbors`` lists
and uniform weights in [0, 5) with a quarter of them set to zero, stepped
at the default eta of 0.33. Each step is timed as the median of seven
calls, alternating with the other checkouts' calls, then run once more
under tracemalloc for its peak. The seconds, the peak and the SHA-256 of
the output (the new points' bytes, then the mean displacement as float64)
are stored in ``studies/BENCH_shift.json`` under each label, with the
machine it ran on (see ``_bench.py``). To compare a change with its parent
checkout:

    python studies/bench_shift.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread. pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib
import json

import _bench

INSTANCES = ((600, 512, 50), (800, 512, 50), (2500, 512, 50), (450, 32, 60))
SEED, REPEATS, ETA, ZERO_FRACTION = 42, 7, 0.33, 0.25


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_shift.json")
    import numpy as np

    results = {label: [] for label in args.packages}
    for rows, dim, k in INSTANCES:
        if args.max_rows is not None and rows > args.max_rows:
            continue
        calls = {}
        for label, msde in args.packages.items():
            rng = np.random.default_rng(SEED)
            points = rng.standard_normal((rows, dim))
            weights = rng.uniform(0.0, 5.0, size=rows)
            weights[rng.random(rows) < ZERO_FRACTION] = 0.0
            neighbors = msde.knn.knn_neighbors(points, k)
            calls[label] = (msde.shift.shift_step, (points, neighbors, weights, ETA))
        for label, ((new, delta), timing) in _bench.measure(calls, REPEATS).items():
            digest = hashlib.sha256(new.tobytes() + np.float64(delta).tobytes())
            results[label].append({"call": "shift_step", "rows": rows, "dim": dim,
                                   "k": k, **timing, "sha256": digest.hexdigest()})
            print(json.dumps({"label": label, **results[label][-1]}), flush=True)
    _bench.write_report(args, {"seed": SEED, "repeats": REPEATS, "eta": ETA,
                               "zero_fraction": ZERO_FRACTION},
                        results, ("call", "rows", "dim", "k"))


if __name__ == "__main__":
    main()
