"""Scaling benchmark of the density weights, ``compute_empirical_weights``.

Runs fixed seed-42 standard-normal instances (600x512, 1000x512, 2000x512
and 4000x32; t_nbd 70, k_umap 15). The weights run on one thread. Each
instance is timed as the median of three calls, alternating with the other
checkouts' calls, then run once more under tracemalloc for its peak. The
seconds, the peak, epsilon and the SHA-256 of the weights' bytes are
stored in ``studies/BENCH_weights.json`` under each label, with the
machine it ran on (see ``_bench.py``). To compare a change with its parent
checkout:

    python studies/bench_weights.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread. pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib
import json

import _bench

INSTANCES = ((600, 512), (1000, 512), (2000, 512), (4000, 32))
T_NBD, K_UMAP, SEED, REPEATS = 70, 15, 42, 3


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_weights.json")
    import numpy as np

    results = {label: [] for label in args.packages}
    for rows, dim in INSTANCES:
        if args.max_rows is not None and rows > args.max_rows:
            continue
        points = np.random.default_rng(SEED).standard_normal((rows, dim))
        timed = _bench.measure(
            {label: (msde.weights.compute_empirical_weights, (points, T_NBD, K_UMAP))
             for label, msde in args.packages.items()}, REPEATS)
        for label, (dw, timing) in timed.items():
            results[label].append({"rows": rows, "dim": dim, **timing,
                                   "epsilon": dw.schedule.epsilon,
                                   "sha256": hashlib.sha256(dw.weights.tobytes()).hexdigest()})
            print(json.dumps({"label": label, **results[label][-1]}), flush=True)
    _bench.write_report(args, {"t_nbd": T_NBD, "k_umap": K_UMAP, "seed": SEED,
                               "repeats": REPEATS}, results, ("rows", "dim"))


if __name__ == "__main__":
    main()
