"""Shared driver of the ``bench_*.py`` scaling benchmarks.

Each benchmark measures one msde call on fixed seed-42 instances, for one
or more checkouts given as ``--run LABEL=SRC`` (``SRC`` is the directory
holding that checkout's ``msde`` package). Every measured call runs in a
fresh interpreter, ``python _bench.py MODULE INSTANCE_JSON [peak]``, whose
``PYTHONPATH`` is its label's ``SRC`` alone. The child pins BLAS to one
thread before numpy loads, builds the call with ``MODULE.call(instance)``
(untimed), refuses to go on unless ``msde`` was imported from ``SRC``,
makes the call once and prints one JSON line: ``seconds``; ``minflt`` and
``sys_s``, the call's minor page faults and kernel seconds (``getrusage``
of the whole child, threads included); ``ru_maxrss``, the child's peak RSS
in KB; ``sha256``, the digest of the output; and with ``peak``,
``peak_mb``, the call's tracemalloc peak in MB.

On each instance every label makes ``PAIRS`` calls, alternating, with the
first label swapping on every pair (ABAB...), then one more call under
tracemalloc. ``BENCH_*.json`` holds this one comparison and nothing from
earlier runs: per instance and label the medians, each pair's values, the
peak and the digest; per two labels ``a vs b``, the pairs each was faster
in (``wins``, a's first), the ``ties`` and the two-sided sign-test ``p``
(``sign_test``), and the same for the pairs each had the smaller
``ru_maxrss`` in (``sign_test_ru_maxrss``), so a memory claim rests on
pairs as a speed claim does.
``hashes_match`` is true when every call on an instance gave one digest,
and the file's when every instance's is.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Even, so each label leads in half the pairs; with 10, a label faster in 9
# of 10 pairs reads p = 0.021, so one lost pair does not hide a real gain.
PAIRS = 10


def run_child(module: str, instance: dict, src: Path, peak: bool = False) -> dict:
    """``module.call(instance)`` measured in a fresh interpreter that
    imports ``msde`` from ``src``; returns the child's JSON line."""
    cmd = [sys.executable, str(HERE / "_bench.py"), module, json.dumps(instance)]
    proc = subprocess.run(cmd + ["peak"] * peak, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if proc.returncode != 0:
        raise RuntimeError(f"{module} {instance} from {src}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``."""
    tail = sum(math.comb(wins + losses, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** (wins + losses))


def compare(a: list, b: list) -> dict:
    """Pair by pair, how often ``a`` and ``b`` had the smaller value (fewer
    seconds, a lower peak); ties are left out of the sign test."""
    wins = [sum(x < y for x, y in zip(a, b)), sum(y < x for x, y in zip(a, b))]
    return {"wins": wins, "ties": len(a) - sum(wins), "p": sign_test(*wins)}


def measure(module: str, instance: dict, runs: list, pairs: int = PAIRS) -> dict:
    """One instance's row for the ``(label, src)`` ``runs``: ``pairs``
    alternated calls per label, then one under tracemalloc."""
    calls = {label: [] for label, _ in runs}
    for p in range(pairs):
        for label, src in runs[::-1] if p % 2 else runs:
            calls[label].append(run_child(module, instance, src))
    row, seen = {**instance, "runs": {}}, set()
    fields = ("seconds", "minflt", "sys_s", "ru_maxrss")
    for label, src in runs:
        peak = run_child(module, instance, src, peak=True)
        digests = sorted({c["sha256"] for c in calls[label] + [peak]})
        seen.update(digests)
        row["runs"][label] = {
            **{name: round(statistics.median(c[name] for c in calls[label]), 6)
               for name in fields},
            **{f"pair_{name}": [c[name] for c in calls[label]] for name in fields},
            "peak_mb": peak["peak_mb"],
            "sha256": digests[0] if len(digests) == 1 else digests}
    for name, key in (("seconds", "sign_test"), ("ru_maxrss", "sign_test_ru_maxrss")):
        pairs = {label: run[f"pair_{name}"] for label, run in row["runs"].items()}
        row[key] = {f"{a} vs {b}": compare(pairs[a], pairs[b])
                    for a, b in itertools.combinations(pairs, 2)}
    row["hashes_match"] = len(seen) == 1
    return row


def _label_src(value: str) -> tuple[str, Path]:
    label, sep, src = value.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {value!r}")
    return label, Path(src).resolve()


def _machine() -> dict:
    import importlib.metadata
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            **{name: importlib.metadata.version(name) for name in ("numpy", "scipy")}}


def main(doc: str, file: str, instances: list, **header) -> None:
    """Parse ``--run LABEL=SRC`` (repeatable), ``--max-rows`` and
    ``--out``, measure every instance of the script ``file`` and write its
    BENCH file: ``header``, ``PAIRS``, the labels, the machine, the rows."""
    module = Path(file).stem
    out = HERE / f"BENCH_{module.removeprefix('bench_')}.json"
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--run", action="append", required=True, type=_label_src,
                        metavar="LABEL=SRC",
                        help="a label and the directory holding the msde package "
                             "it measures; give two or more to compare them")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="skip instances with more rows")
    parser.add_argument("--out", default=str(out))
    args = parser.parse_args()
    labels = [label for label, _ in args.run]
    if len(set(labels)) != len(labels):
        parser.error(f"each --run needs its own label, got {labels}")
    rows = []
    for instance in instances:
        if args.max_rows is None or instance["rows"] <= args.max_rows:
            rows.append(measure(module, instance, args.run))
            print(json.dumps(rows[-1]), flush=True)
    report = {**header, "pairs": PAIRS, "labels": labels, "machine": _machine(),
              "hashes_match": all(row["hashes_match"] for row in rows), "results": rows}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


def _child(module: str, instance: str, *mode: str) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    fn, fn_args, digest = importlib.import_module(module).call(json.loads(instance))
    import msde
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(msde.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"msde comes from {msde.__file__}, not from {src}")
    peak = mode == ("peak",)
    if peak:
        tracemalloc.start()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    out = fn(*fn_args)
    seconds = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    line = {"seconds": round(seconds, 6), "minflt": after.ru_minflt - before.ru_minflt,
            "sys_s": round(after.ru_stime - before.ru_stime, 4),
            "ru_maxrss": after.ru_maxrss}
    if peak:
        line["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        tracemalloc.stop()
    print(json.dumps({**line, "sha256": digest(out)}))


if __name__ == "__main__":
    _child(*sys.argv[1:])
