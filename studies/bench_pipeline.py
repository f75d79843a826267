"""End-to-end benchmark of the pipeline at paper scale and of ``msde tune``.

Runs three fixed seed-42 synthetic instances (``generate_synthetic``,
default config at 1 and at 2 threads; the test rows are half normal, half
anomalous): ``score_rows`` on 2000x512 train rows plus 500 test rows,
and ``random_search`` (seed 0) with 8 and with 80 trials (the CLI default:
up to 78 distinct ``t_nbd`` share one preparation) on 500x32 train rows
plus 200 test rows, the shape of acceptance criterion 7. At 2 threads the
solo and joint shift runs of each scoring pass run concurrently, so two
working sets are live in the peak. Each is run in a fresh interpreter per
checkout, in alternated pairs, then once more under tracemalloc (see
``_bench.py``), so each call pays the allocator churn of a fresh process,
as an ``msde`` command does. The digest is the SHA-256 of the raw test
scores, or of the trial records and final metrics as ``msde tune`` writes
them. The comparison is written to ``studies/BENCH_pipeline.json``. To
compare a change with its parent checkout:

    python studies/bench_pipeline.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread, so ``threads`` is msde's only parallelism.
pytest does not collect this directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import _bench

INSTANCES = [{"call": call, "rows": rows, "test_rows": test_rows, "dim": dim,
              "trials": trials, "threads": threads}
             for call, rows, test_rows, dim, trials in (
                 ("score_rows", 2000, 500, 512, None),
                 ("random_search", 500, 200, 32, 8),
                 ("random_search", 500, 200, 32, 80))
             for threads in (1, 2)]
SEED, SEARCH_SEED = 42, 0


def _search_digest(result) -> str:
    """SHA-256 of the trial records and final metrics, one JSON line each."""
    _, records, final = result
    lines = [json.dumps({"trial_index": r.trial_index,
                         "params": dataclasses.asdict(r.params),
                         "val_auc": r.val_auc, "val_ap": r.val_ap,
                         "seed": r.seed}) for r in records]
    lines.append(json.dumps(dataclasses.asdict(final)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def call(instance: dict) -> tuple:
    """(function, arguments, digest of its output) of one instance."""
    from msde.config import MsdeConfig
    from msde.data import SyntheticSpec, generate_synthetic
    from msde.scoring import score_rows
    from msde.tune import SearchSpace, random_search

    config = MsdeConfig(threads=instance["threads"])
    half = instance["test_rows"] // 2
    spec = SyntheticSpec(dim=instance["dim"], n_train=instance["rows"],
                         n_test_normal=half, n_test_anomalous=half)
    data = generate_synthetic(spec, SEED)
    if instance["call"] == "score_rows":
        return (score_rows, (*data, config),
                lambda report: hashlib.sha256(report.raw.tobytes()).hexdigest())
    search = (*data, SearchSpace(), instance["trials"], SEARCH_SEED, config)
    return random_search, search, _search_digest


if __name__ == "__main__":
    _bench.main(__doc__, __file__, INSTANCES, seed=SEED, search_seed=SEARCH_SEED)
