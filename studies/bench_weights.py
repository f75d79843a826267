"""Scaling benchmark of the density weights, ``compute_empirical_weights``.

Runs fixed seed-42 standard-normal instances (600x512, 1000x512, 2000x512
and 4000x32; t_nbd 70, k_umap 15). The weights run on one thread. Each
instance is run in a fresh interpreter per checkout, in alternated pairs,
then once more under tracemalloc (see ``_bench.py``). The digest is the
SHA-256 of the weights' bytes. The comparison is written to
``studies/BENCH_weights.json``. To compare a change with its parent
checkout:

    python studies/bench_weights.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread. pytest does not collect this directory.
"""

from __future__ import annotations

import hashlib

import numpy as np

import _bench

INSTANCES = [{"rows": rows, "dim": dim}
             for rows, dim in ((600, 512), (1000, 512), (2000, 512), (4000, 32))]
T_NBD, K_UMAP, SEED = 70, 15, 42


def call(instance: dict) -> tuple:
    """(function, arguments, digest of its output) of one instance."""
    from msde.weights import compute_empirical_weights

    shape = instance["rows"], instance["dim"]
    points = np.random.default_rng(SEED).standard_normal(shape)
    return (compute_empirical_weights, (points, T_NBD, K_UMAP),
            lambda dw: hashlib.sha256(dw.weights.tobytes()).hexdigest())


if __name__ == "__main__":
    _bench.main(__doc__, __file__, INSTANCES, t_nbd=T_NBD, k_umap=K_UMAP, seed=SEED)
