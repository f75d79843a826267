"""Workload definitions and their seeded input generator.

Inputs are made here, not with ``msde.generate_synthetic``, so a change to
``msde.data`` cannot change what the benchmark measures. Each workload is a
pure function of (workload, seed): normal rows are standard Gaussian,
anomalies are standard Gaussian rows offset by ``ANOMALY_OFFSET`` along
axis 0. Files are NPY v1.0 float64 plus a ``row_id,label`` CSV whose ids
match the ones ``msde run``/``msde tune`` assign to the test rows on load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANOMALY_OFFSET = 2.5
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # "run" or "tune"
    dim: int
    n_train: int
    n_test_normal: int
    n_test_anomalous: int
    flags: tuple[str, ...]    # extra CLI flags after the input paths
    threads: int              # msde --threads, clamped to nproc at run time

    @property
    def n_rows(self) -> int:
        return self.n_train + self.n_test_normal + self.n_test_anomalous

    def outputs(self) -> tuple[str, ...]:
        """Output files whose bytes are the run's result (digest-checked)."""
        if self.command == "run":
            return ("scores.csv", "metrics.json")
        return ("trials.jsonl", "final_metrics.json")

    def argv(self, inputs: Path, out: Path) -> list[str]:
        threads = max(1, min(self.threads, os.cpu_count() or 1))
        return [self.command,
                "--train", str(inputs / "train.npy"),
                "--test", str(inputs / "test.npy"),
                "--labels", str(inputs / "labels.csv"),
                "--out", str(out),
                *self.flags, "--threads", str(threads)]


WORKLOADS = {
    w.name: w for w in (
        # Paper-shaped 512-d input at the largest n the cubic weights allow
        # in a repeatable run: dense graph-space distances, the blocked-scan
        # k-NN route and the shift-step gather dominate. Single-threaded.
        Workload("run-d512", "run", 512, 600, 100, 100, (), 1),
        # Many small pipelines on the KD-tree route; repeats trial-invariant
        # work and is the only workload that reaches parallel.py.
        Workload("tune-d32", "tune", 32, 500, 100, 100,
                 ("--trials", "8", "--seed", "0"), 2),
        # The paper's no-shift ablation at a larger n: weights, k-NN and the
        # shift do no work, so loading, standardizing and scoring carry it.
        Workload("run-noshift", "run", 512, 8000, 1000, 1000, ("--no-shift",), 1),
    )
}


def make_inputs(workload: Workload, seed: int, out: Path) -> None:
    """Write train.npy, test.npy and labels.csv for ``workload`` at ``seed``."""
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((workload.n_train, workload.dim))
    normals = rng.standard_normal((workload.n_test_normal, workload.dim))
    anomalies = rng.standard_normal((workload.n_test_anomalous, workload.dim))
    anomalies[:, 0] += ANOMALY_OFFSET
    out.mkdir(parents=True, exist_ok=True)
    for name, values in (("train.npy", train),
                         ("test.npy", np.vstack([normals, anomalies]))):
        with open(out / name, "wb") as fh:
            np.lib.format.write_array(fh, np.ascontiguousarray(values, "<f8"),
                                      version=(1, 0), allow_pickle=False)
    labels = [0] * workload.n_test_normal + [1] * workload.n_test_anomalous
    with open(out / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("row_id,label\n")
        for i, label in enumerate(labels):
            fh.write(f"test_{i:06d},{label}\n")
