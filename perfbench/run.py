"""msde benchmark: one workload, seeded inputs, checked outputs, one JSON line.

    python3 perfbench/run.py --workload run-d512 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --record-digests

Run from the root of a source checkout; msde is imported from ``src/``.
Each CLI call (``msde.cli.main``) runs in a fresh child interpreter
(``child.py``) with OpenBLAS/OpenMP pinned to one thread. Calls repeat
until ``--seconds`` of calls have been measured.

``--trace 0`` reports the end-to-end metrics: e2e_s (median seconds of one
call), rows_per_s (train+test rows per median call second), setup_s
(median seconds from starting a call's interpreter until it has imported
msde.cli), peak_rss_mb
(median peak RSS of the call's process) and ok_frac (1 - failed/attempted
operations). ``--trace 1`` alternates untraced and traced calls and reports
the per-layer metrics of tracer.py, plus untraced_s, trace_overhead_frac
and metrics.auc (the AUC the call writes).

Every call's outputs are checked: the AUC is recomputed from scores.csv
(run) or the trial log (tune); at the default seed the output bytes must
match ``digests.json``, and at any seed every call must write the same
bytes. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``. ``--record-digests``
rewrites ``digests.json`` from one call per workload at the default seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Workload, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"

# A run must end within 180 s: no call starts that would likely end past
# RUN_BUDGET_S, and none may run past RUN_DEADLINE_S.
RUN_BUDGET_S = 150.0
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"e2e_s": "s", "rows_per_s": "rows/s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_EXTRA_UNITS = {"weights.pairwise_bytes": "B-computed",
                     "trace_overhead_frac": "ratio", "metrics.auc": "ratio"}


def layer_unit(name: str) -> str:
    if name in LAYER_EXTRA_UNITS:
        return LAYER_EXTRA_UNITS[name]
    return "s" if name.endswith("_s") else "count"


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken checkout)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rank_auc(scores, labels) -> float:
    """Mann-Whitney AUC with tied scores sharing their average rank."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_run_outputs(w: Workload, out: Path) -> tuple[float, int, int]:
    """(auc, trials, failed trials) of a run call; raises ValueError if wrong."""
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["row_id", "label", "raw_score", "normalized_score"]:
        raise ValueError(f"scores.csv header {rows[0]}")
    n_test = w.n_test_normal + w.n_test_anomalous
    want_labels = [0] * w.n_test_normal + [1] * w.n_test_anomalous
    if len(rows) != n_test + 1:
        raise ValueError(f"scores.csv has {len(rows) - 1} rows, want {n_test}")
    if [r[0] for r in rows[1:]] != [f"test_{i:06d}" for i in range(n_test)]:
        raise ValueError("scores.csv row ids out of order")
    if [int(r[1]) for r in rows[1:]] != want_labels:
        raise ValueError("scores.csv labels differ from the inputs")
    raw = [float(r[2]) for r in rows[1:]]
    norm = [float(r[3]) for r in rows[1:]]
    if not all(math.isfinite(v) for v in raw) or not all(0.0 <= v <= 1.0 for v in norm):
        raise ValueError("scores.csv has a non-finite or out-of-range score")
    metrics = json.loads((out / "metrics.json").read_text())
    if (metrics["n_pos"], metrics["n_neg"]) != (w.n_test_anomalous, w.n_test_normal):
        raise ValueError(f"metrics.json counts {metrics['n_pos']}/{metrics['n_neg']}")
    auc = rank_auc(raw, want_labels)
    if abs(auc - metrics["auc"]) > 5.1e-7:  # metrics.json prints six decimals
        raise ValueError(f"metrics.json auc {metrics['auc']} != recomputed {auc:.7f}")
    return metrics["auc"], 0, 0


def check_tune_outputs(w: Workload, out: Path) -> tuple[float, int, int]:
    """(auc, trials, failed trials) of a tune call; raises ValueError if wrong."""
    lines = [json.loads(x) for x in (out / "trials.jsonl").read_text().splitlines()]
    *trials, summary = lines
    n_trials = int(w.flags[w.flags.index("--trials") + 1])
    if len(trials) != n_trials or not summary.get("summary"):
        raise ValueError(f"trials.jsonl has {len(trials)} trials, want {n_trials}")
    if [t["trial_index"] for t in trials] != list(range(n_trials)):
        raise ValueError("trials.jsonl trial indices out of order")
    failed = sum(1 for t in trials if t["val_auc"] == -1.0)
    metrics = json.loads((out / "final_metrics.json").read_text())
    # The final test set keeps every normal and the anomalies not used for validation.
    want_pos = w.n_test_anomalous - w.n_test_anomalous // 10
    if (metrics["n_pos"], metrics["n_neg"]) != (want_pos, w.n_test_normal):
        raise ValueError(f"final_metrics.json counts {metrics['n_pos']}/{metrics['n_neg']}")
    if abs(summary["final_auc"] - metrics["auc"]) > 5.1e-7:
        raise ValueError("final_metrics.json auc disagrees with trials.jsonl")
    best = max(trials, key=lambda t: (t["val_auc"], -t["trial_index"]))
    if summary["best_trial"] != best["trial_index"]:
        raise ValueError("trials.jsonl best_trial is not the best validation AUC")
    return metrics["auc"], n_trials, failed


def run_call(w: Workload, inputs: Path, out: Path, trace: bool, env: dict,
             timeout: float) -> dict:
    """One CLI call in a fresh child; returns its result with checks applied."""
    shutil.rmtree(out, ignore_errors=True)
    result_path = out.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           "1" if trace else "0", str(out.with_suffix(".spans.jsonl")), "--",
           *w.argv(inputs, out)]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s", "trace": trace}
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "trace": trace,
                "error": f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(result_path.read_text())
    result["trace"] = trace
    result["setup_s"] = result.pop("imported_at") - spawned_at
    if result["exit"] != 0:
        result.update(ok=False, error=f"msde exit {result['exit']}: {proc.stderr.strip()[-500:]}")
        return result
    check = check_run_outputs if w.command == "run" else check_tune_outputs
    try:
        result["auc"], result["trials"], result["failed_trials"] = check(w, out)
        result["digests"] = output_digests(w, out)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        result.update(ok=False, error=f"bad output: {exc!r}")
        return result
    result["ok"] = True
    return result


def output_digests(w: Workload, out: Path) -> dict:
    return {name: sha256(out / name) for name in w.outputs()}


def check_digests(call: dict, reference: dict | None) -> None:
    """Mark ``call`` failed if its output bytes differ from ``reference``."""
    if not call["ok"] or reference is None or call["digests"] == reference:
        return
    bad = sorted(name for name in reference if call["digests"].get(name) != reference[name])
    call.update(ok=False, error=f"output bytes differ from the reference: {', '.join(bad)}")


def expected_digests(w: Workload, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["workloads"].get(w.name)


def measure(w: Workload, seed: int, seconds: float, trace: bool, env: dict,
            work: Path, run_start: float) -> list[dict]:
    """Calls until ``seconds`` of calls are measured; trace runs alternate."""
    inputs = work / "inputs"
    # Recorded bytes at the default seed; otherwise the first good call's.
    reference = expected_digests(w, seed)
    calls: list[dict] = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        enough = now - start >= seconds and (not trace or len(calls) >= 2)
        last = calls[-1].get("e2e_s", 0.0) if calls else 0.0
        if calls and (enough or now - run_start + 1.5 * last > RUN_BUDGET_S):
            return calls
        traced = trace and len(calls) % 2 == 1
        timeout = max(1.0, RUN_DEADLINE_S - (now - run_start))
        call = run_call(w, inputs, work / f"out{len(calls)}", traced, env, timeout)
        check_digests(call, reference)
        if reference is None and call["ok"]:
            reference = call["digests"]
        calls.append(call)


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def tally(calls: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations: every CLI call plus every tune trial."""
    attempted = len(calls) + sum(c.get("trials", 0) for c in calls)
    failed = (sum(1 for c in calls if not c["ok"])
              + sum(c.get("failed_trials", 0) for c in calls))
    return attempted, failed


def e2e_metrics(w: Workload, calls: list[dict]) -> dict:
    good = [c for c in calls if c["ok"]]
    e2e = median([c["e2e_s"] for c in good])
    attempted, failed = tally(calls)
    return {
        "e2e_s": e2e,
        "rows_per_s": w.n_rows / e2e,
        "setup_s": median([c["setup_s"] for c in good]),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in good]),
        "ok_frac": 1.0 - failed / attempted,
    }


def trace_metrics(calls: list[dict]) -> dict:
    traced = [c for c in calls if c["ok"] and c["trace"]]
    untraced = [c for c in calls if c["ok"] and not c["trace"]]
    out = {name: median([c["layers"][name] for c in traced])
           for name in layer_metrics([], {}, 0.0)}
    out["trace_overhead_frac"] = (median([c["e2e_s"] for c in traced])
                                  / median([c["e2e_s"] for c in untraced]) - 1.0)
    out["metrics.auc"] = traced[0]["auc"] if traced else float("nan")
    return out


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "msde" / "cli.py").is_file():
        raise BenchError(f"no msde sources under {ROOT / 'src'}")
    run_start = time.perf_counter()
    w = WORKLOADS[workload]
    work = WORK_DIR / w.name
    shutil.rmtree(work, ignore_errors=True)
    make_inputs(w, seed, work / "inputs")
    calls = measure(w, seed, seconds, trace, child_env(), work, run_start)
    attempted, failed = tally(calls)
    if trace:
        values, units = trace_metrics(calls), layer_unit
    else:
        values, units = e2e_metrics(w, calls), E2E_UNITS.get
    report = {
        "workload": w.name, "seed": seed, "trace": trace,
        "environment": environment(),
        "e2e_samples_s": [c.get("e2e_s") for c in calls if not c["trace"]],
        "setup_samples_s": [c.get("setup_s") for c in calls],
        "errors": [c["error"] for c in calls if not c["ok"]],
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in (json.dumps(report["environment"]),
                 *(f"error: {e}" for e in report["errors"])):
        print(line)
    samples = report["e2e_samples_s"]
    tail = high_percentile(samples) if samples else None
    print(f"e2e_s: {len(samples)} untraced calls"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ""))
    aucs = sorted({c["auc"] for c in calls if c["ok"]})
    print(f"auc {aucs} (as written by the call); fail_frac {failed}/{attempted}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units(name)}")
    return {
        "correct": failed == 0 and len(calls) > 0,
        "attempted": attempted,
        "failed": failed,
        # A run whose calls all failed has no value to report (null, not NaN).
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units(name)}
                    for name, value in values.items()},
    }


def record_digests() -> None:
    table = {}
    env = child_env()
    for w in WORKLOADS.values():
        work = WORK_DIR / w.name
        shutil.rmtree(work, ignore_errors=True)
        make_inputs(w, DEFAULT_SEED, work / "inputs")
        call = run_call(w, work / "inputs", work / "out0", False, env, RUN_DEADLINE_S)
        if not call["ok"]:
            raise BenchError(f"{w.name}: {call['error']}")
        table[w.name] = call["digests"]
        print(w.name, call["digests"])
    DIGESTS.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "environment": environment(), "workloads": table},
        indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
