"""The shapes at which the blocked PCA rotation differs from one product.

``python tests/_rotation_bytes.py`` prints one ``(d, r, n)`` per line for
which ``project`` (a new output array) or ``scoring._rotate`` written into
the rows it consumes (as ``score_shifted`` uses it) differs in any byte
from ``centered @ components.T`` taken in one product. It prints nothing
when every shape matches. The bytes are pinned at one BLAS thread, so run
it with ``OPENBLAS_NUM_THREADS=1``; more threads split the rows of each
product differently and can change the bytes of either form.
"""

import numpy as np

from msde.scoring import PcaBasis, _front, _rotate, project

DIMS = (2, 3, 32, 512)
ROWS = (1023, 1024, 2047, 2049, 4097)


def mismatches():
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
                in_place = _rotate(basis, centered, _front(centered, r))
                if (copied.tobytes() != expected
                        or in_place.tobytes() != expected):
                    yield d, r, n


if __name__ == "__main__":
    for shape in mismatches():
        print(*shape)
