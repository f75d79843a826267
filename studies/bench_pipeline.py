"""End-to-end benchmark of the pipeline at paper scale and of ``msde tune``.

Runs three fixed seed-42 synthetic instances (``generate_synthetic``,
default config at 1 and at 2 threads): ``score_pipeline`` on 2000x512 train
rows plus 500 test rows, and ``random_search`` (seed 0) with 8 and with 80
trials (the CLI default: up to 78 distinct ``t_nbd`` share one
preparation) on 500x32 train rows plus 200 test rows, the shape of
acceptance criterion 7. At 2
threads the solo and joint shift runs of each scoring pass run
concurrently, so two working sets are live in the peak. Each is timed as
the median of three calls, alternating with the other checkouts' calls,
then run once more under tracemalloc for its peak. The median, each call's
seconds, the peak and a SHA-256 (of the raw test scores, or of the trial
records and final metrics as ``msde tune`` writes them) are stored in
``studies/BENCH_pipeline.json`` under each label, with the machine it ran
on (see ``_bench.py``). To compare a change with its parent checkout:

    python studies/bench_pipeline.py --run parent=../parent/src --run change=src

BLAS is pinned to one thread, so ``threads`` is msde's only parallelism.
pytest does not collect this directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import _bench

# (call, train rows, test normals, test anomalies, dim, trials)
INSTANCES = (("score_pipeline", 2000, 250, 250, 512, None),
             ("random_search", 500, 100, 100, 32, 8),
             ("random_search", 500, 100, 100, 32, 80))
THREADS = (1, 2)
SEED, SEARCH_SEED, REPEATS = 42, 0, 3


def _search_digest(result) -> str:
    """SHA-256 of the trial records and final metrics, one JSON line each."""
    _, records, final = result
    lines = [json.dumps({"trial_index": r.trial_index,
                         "params": dataclasses.asdict(r.params),
                         "val_auc": r.val_auc, "val_ap": r.val_ap,
                         "seed": r.seed}) for r in records]
    lines.append(json.dumps(dataclasses.asdict(final)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _call(msde, call: str, rows: int, normal: int, anomalous: int, dim: int,
          trials: int | None, threads: int) -> tuple:
    """One checkout's (function, arguments, digest of its result)."""
    config = msde.config.MsdeConfig(threads=threads)
    split = msde.data.generate_synthetic(
        msde.data.SyntheticSpec(dim=dim, n_train=rows, n_test_normal=normal,
                                n_test_anomalous=anomalous), SEED)
    if call == "score_pipeline":
        return (msde.scoring.score_pipeline, (split, config),
                lambda report: hashlib.sha256(report.raw.tobytes()).hexdigest())
    return (msde.tune.random_search,
            (split, msde.tune.SearchSpace(), trials, SEARCH_SEED, config), _search_digest)


def main() -> None:
    args = _bench.setup(__doc__, "BENCH_pipeline.json")
    results = {label: [] for label in args.packages}
    for (call, rows, normal, anomalous, dim, trials), threads in itertools.product(
            INSTANCES, THREADS):
        if args.max_rows is not None and rows > args.max_rows:
            continue
        calls = {label: _call(msde, call, rows, normal, anomalous, dim, trials, threads)
                 for label, msde in args.packages.items()}
        timed = _bench.measure({label: (fn, fn_args) for label, (fn, fn_args, _)
                                in calls.items()}, REPEATS)
        for label, (result, timing) in timed.items():
            results[label].append({"call": call, "rows": rows,
                                   "test_rows": normal + anomalous, "dim": dim,
                                   "trials": trials, "threads": threads, **timing,
                                   "sha256": calls[label][2](result)})
            print(json.dumps({"label": label, **results[label][-1]}), flush=True)
    _bench.write_report(args, {"seed": SEED, "search_seed": SEARCH_SEED,
                               "repeats": REPEATS},
                        results, ("call", "rows", "dim", "trials", "threads"))


if __name__ == "__main__":
    main()
