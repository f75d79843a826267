"""Thread fan-out over row blocks, capped at the number of CPUs.

Its one caller is shift's solo || joint fan-out (two one-row blocks).
Each block's result is a pure function of immutable inputs, so results
are identical for any thread count. Results are read in block order (the
first block's exception wins) and the pool is joined before returning.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable


def row_blocks(n_rows: int, n_blocks: int) -> list[tuple[int, int]]:
    n_blocks = max(1, min(n_blocks, n_rows)) if n_rows else 1
    bounds = [round(i * n_rows / n_blocks) for i in range(n_blocks + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def map_row_blocks(worker: Callable[[int, int], None], n_rows: int, threads: int) -> None:
    """Run ``worker(start, stop)`` over a partition of ``range(n_rows)``."""
    threads = min(threads, os.cpu_count() or 1)
    blocks = row_blocks(n_rows, threads)
    if threads <= 1 or len(blocks) <= 1:
        for start, stop in blocks:
            worker(start, stop)
        return
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        futures = [pool.submit(worker, start, stop) for start, stop in blocks]
        for f in futures:
            f.result()
