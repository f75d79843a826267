"""The shapes at which the blocked PCA rotation or the blocked Mahalanobis
solve differs from one product or one solve.

``python tests/_rotation_bytes.py`` prints one ``rotate d r n`` per line for
which ``project`` (a new output array), ``scoring._rotate`` written into
the rows it consumes or ``scoring._rotate`` written into the front of
another, larger array (both as ``score_shifted`` uses it) differs in any
byte from ``centered @ components.T`` taken in one product, and one
``solve r n`` per line for which ``mahalanobis`` differs from one
``cho_solve`` over all ``n`` rows. It prints nothing when every shape
matches. The bytes are pinned at one BLAS thread, so run it with
``OPENBLAS_NUM_THREADS=1``; more threads split the rows of each product
differently and can change the bytes of either form.
"""

import numpy as np
from scipy.linalg import cho_solve

from msde.scoring import (GaussianScorer, PcaBasis, _front, _rotate,
                          mahalanobis, project)

DIMS = (2, 3, 32, 512)
ROWS = (1023, 1024, 2047, 2049, 4097)
SOLVE_DIMS = (1, 2, 3, 32, 256)
SOLVE_ROWS = (1, 255, 256, 257, 1023, 2049, 4097)


def rotation_mismatches():
    rng = np.random.default_rng(31)
    for d in DIMS:
        for n in ROWS:
            x = rng.normal(size=(n, d))
            center = x.mean(axis=0)
            for r in sorted({min(v, d) for v in (1, 2, 3, d // 2, d)}):
                components = rng.normal(size=(r, d))
                basis = PcaBasis(center=center, components=components,
                                 explained_variance=np.ones(r))
                centered = x - center
                expected = (centered @ components.T).tobytes()
                copied = project(basis, x)
                elsewhere = _rotate(basis, centered,
                                    _front(np.empty((n + 7, d)), n, r))
                in_place = _rotate(basis, centered, _front(centered, n, r))
                if any(z.tobytes() != expected
                       for z in (copied, elsewhere, in_place)):
                    yield "rotate", d, r, n


def solve_mismatches():
    rng = np.random.default_rng(35)
    for r in SOLVE_DIMS:
        z = rng.normal(size=(2 * r + 2, r))
        mu = z.mean(axis=0)
        sigma = (z - mu).T @ (z - mu) / (len(z) - 1) + 0.3 * np.eye(r)
        scorer = GaussianScorer(mu=mu, sigma=sigma)
        for n in SOLVE_ROWS:
            rows = rng.normal(size=(n, r))
            diff = rows - mu
            sq = np.einsum("ij,ji->i", diff, cho_solve(scorer.factor(), diff.T))
            expected = np.sqrt(np.maximum(sq, 0.0)).tobytes()
            if mahalanobis(scorer, rows).tobytes() != expected:
                yield "solve", r, n


if __name__ == "__main__":
    for shape in (*rotation_mismatches(), *solve_mismatches()):
        print(*shape)
