"""Inputs shared by the property tests that hold a fast path to its oracle."""

import warnings

import numpy as np
from hypothesis import strategies as st


@st.composite
def point_sets(draw, max_rows: int):
    """2 to ``max_rows`` points: Gaussian rows, an integer grid (ties), a few
    distinct rows repeated (duplicates) or Gaussian rows far from the origin,
    where a Gram screen loses most digits to cancellation."""
    n = draw(st.integers(2, max_rows))
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "grid", "duplicates", "offset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("random", "offset"):
        return rng.normal(size=(n, dim)) + (1e7 if kind == "offset" else 0.0)
    if kind == "grid":
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    distinct = rng.normal(size=(draw(st.integers(1, max(1, n // 2))), dim))
    return distinct[rng.integers(0, len(distinct), size=n)]


def recorded(fn, *args):
    """``fn(*args)`` and the messages of the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]
