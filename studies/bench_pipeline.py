"""End-to-end benchmark of the pipeline at paper scale and of ``msde tune``.

Runs two fixed seed-42 synthetic instances (``generate_synthetic``, default
config at 1 and at 2 threads): ``score_pipeline`` on 2000x512 train rows
plus 500 test rows, and an 8-trial ``random_search`` (seed 0) on 500x32
train rows plus 200 test rows, the shape of acceptance criterion 7. At 2
threads the solo and joint shift runs of each scoring pass run
concurrently, so two working sets are live in the peak. Each is timed as
the median of three calls, then run once more under tracemalloc for its
peak. The median, each call's seconds, the peak and a SHA-256 (of the raw
test scores, or of the trial records and final metrics as ``msde tune``
writes them) are stored in ``studies/BENCH_pipeline.json`` under a label,
with the machine it ran on (see ``_bench.py``). To compare a change with
its parent checkout:

    python studies/bench_pipeline.py --label change
    python studies/bench_pipeline.py --label parent --src ../parent/src

BLAS is pinned to one thread, so ``threads`` is msde's only parallelism.
pytest does not collect this directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import _bench

# (call, train rows, test normals, test anomalies, dim)
INSTANCES = (("score_pipeline", 2000, 250, 250, 512),
             ("random_search", 500, 100, 100, 32))
THREADS = (1, 2)
SEED, SEARCH_SEED, TRIALS, REPEATS = 42, 0, 8, 3


def _search_digest(result) -> str:
    """SHA-256 of the trial records and final metrics, one JSON line each."""
    _, records, final = result
    lines = [json.dumps({"trial_index": r.trial_index,
                         "params": dataclasses.asdict(r.params),
                         "val_auc": r.val_auc, "val_ap": r.val_ap,
                         "seed": r.seed}) for r in records]
    lines.append(json.dumps(dataclasses.asdict(final)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_pipeline.json")
    from msde.config import MsdeConfig
    from msde.data import SyntheticSpec, generate_synthetic
    from msde.scoring import score_pipeline
    from msde.tune import SearchSpace, random_search

    results = []
    for (call, rows, normal, anomalous, dim), threads in itertools.product(
            INSTANCES, THREADS):
        if args.max_rows is not None and rows > args.max_rows:
            continue
        config = MsdeConfig(threads=threads)
        split = generate_synthetic(
            SyntheticSpec(dim=dim, n_train=rows, n_test_normal=normal,
                          n_test_anomalous=anomalous), SEED)
        if call == "score_pipeline":
            report, timing = _bench.measure(
                score_pipeline, split, config, repeats=REPEATS)
            digest = hashlib.sha256(report.raw.tobytes()).hexdigest()
        else:
            result, timing = _bench.measure(
                random_search, split, SearchSpace(), TRIALS, SEARCH_SEED, config,
                repeats=REPEATS)
            digest = _search_digest(result)
        results.append({"call": call, "rows": rows, "test_rows": normal + anomalous,
                        "dim": dim, "threads": threads, **timing, "sha256": digest})
        print(json.dumps(results[-1]), flush=True)
    _bench.write_report(args, {"seed": SEED, "search_seed": SEARCH_SEED,
                               "trials": TRIALS, "repeats": REPEATS},
                        results, ("call", "rows", "dim", "threads"))


if __name__ == "__main__":
    main()
