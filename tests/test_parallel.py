"""Row-block threading: the partition and the thread cap."""

import threading

from msde.parallel import map_row_blocks


def test_threads_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    blocks, workers = [], set()

    def worker(start, stop):
        blocks.append((start, stop))
        workers.add(threading.get_ident())

    map_row_blocks(worker, 1000, threads=64)
    assert sorted(blocks) == [(0, 500), (500, 1000)]
    assert len(workers) <= 2


def test_unknown_cpu_count_runs_serially(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: None)
    blocks = []
    map_row_blocks(lambda a, b: blocks.append((a, b)), 10, threads=8)
    assert blocks == [(0, 10)]
