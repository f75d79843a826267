"""End-to-end walkthrough on synthetic blobs.

Generates a one-class dataset (normals at the origin, anomalies displaced
along the first axis), scores it with the full pipeline, and compares the
result against the no-shift baseline (plain PCA + Gaussian scoring on the
same embeddings). The dataset comes in the form ``msde run`` loads its
files into: one array of the train rows then the test rows, the train row
count, the test ids and labels. ``score_rows`` takes that array over
(standardizing and centering it in place), so each run scores its own
copy.

Run:  python demos/01_end_to_end.py
"""

import warnings

import numpy as np

from msde import (
    MsdeConfig,
    ShiftParams,
    SyntheticSpec,
    generate_synthetic,
    score_rows,
)

spec = SyntheticSpec(
    dim=32,
    n_train=300,
    n_test_normal=80,
    n_test_anomalous=80,
    anomaly_offset=2.5,
)
rows, n_train, test_ids, labels = generate_synthetic(spec, seed=0)
print(f"train: {n_train} x {rows.shape[1]}")
print(f"test:  {len(test_ids)} rows, {int(labels.sum())} anomalous")

# The defaults are the fixed universal hyperparameters; pca_dim clamps
# automatically on small inputs (a warning is emitted, silenced here).
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    shifted = score_rows(rows.copy(), n_train, test_ids, labels, MsdeConfig())
    baseline = score_rows(rows, n_train, test_ids, labels,
                          MsdeConfig(shift=ShiftParams(max_iters=0)))

print("\nwith density shift:")
print(f"  AUC {shifted.metrics.auc:.4f}   AP {shifted.metrics.ap:.4f}")
print(f"  solo run: {shifted.solo_trace.iterations_run} iterations, "
      f"final mean displacement {shifted.solo_trace.deltas[-1]:.4f}")

print("no-shift baseline:")
print(f"  AUC {baseline.metrics.auc:.4f}   AP {baseline.metrics.ap:.4f}")

gain = shifted.metrics.auc - baseline.metrics.auc
print(f"\nshift gain: {gain:+.4f} AUC")

# Normalized scores are a monotone transform of the raw Mahalanobis
# distances, so the ranking (and hence AUC/AP) is unchanged.
order_raw = np.argsort(shifted.raw)
order_norm = np.argsort(shifted.normalized)
print("raw and normalized rankings identical:",
      bool(np.array_equal(order_raw, order_norm)))
