"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture()
def peak_bytes():
    """Return ``measure(fn, *args)``: the peak bytes traced while ``fn`` runs.

    NumPy reports its data buffers to tracemalloc, so the peak includes
    every array ``fn`` allocates, its result among them.
    """
    def measure(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
