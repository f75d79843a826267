"""Scaling benchmark of the density weights, ``compute_empirical_weights``.

Runs fixed seed-42 standard-normal instances (600x512, 1000x512, 2000x512
and 4000x32; t_nbd 70, k_umap 15). The weights run on one thread. Each
instance is run once for wall time and once under tracemalloc for its
peak. The seconds, the peak, epsilon and the SHA-256 of the weights'
bytes are stored in ``studies/BENCH_weights.json`` under a label, with
the machine it ran on (see ``_bench.py``). To compare a change with its
parent checkout:

    python studies/bench_weights.py --label change
    python studies/bench_weights.py --label parent --src ../parent/src

BLAS is pinned to one thread. pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib
import json

import _bench

INSTANCES = ((600, 512), (1000, 512), (2000, 512), (4000, 32))
T_NBD, K_UMAP, SEED = 70, 15, 42


def _run(np, weights_fn, rows: int, dim: int) -> dict:
    points = np.random.default_rng(SEED).standard_normal((rows, dim))
    dw, timing = _bench.measure(weights_fn, points, T_NBD, K_UMAP)
    return {"rows": rows, "dim": dim, **timing,
            "epsilon": dw.schedule.epsilon,
            "sha256": hashlib.sha256(dw.weights.tobytes()).hexdigest()}


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_weights.json")
    import numpy as np
    from msde.weights import compute_empirical_weights

    results = []
    for rows, dim in INSTANCES:
        if args.max_rows is not None and rows > args.max_rows:
            continue
        results.append(_run(np, compute_empirical_weights, rows, dim))
        print(json.dumps(results[-1]), flush=True)
    _bench.write_report(args, {"t_nbd": T_NBD, "k_umap": K_UMAP, "seed": SEED},
                        results, ("rows", "dim"))


if __name__ == "__main__":
    main()
