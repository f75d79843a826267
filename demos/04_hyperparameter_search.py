"""Zero-leakage random search over the shift hyperparameters.

Carves a validation set out of the training normals (20%) and the test
anomalies (10%), scores random parameter draws on it, and only then
evaluates the winner once on the untouched remainder of the test set.

Run:  python demos/04_hyperparameter_search.py
"""

import warnings

import numpy as np

from msde import (
    MsdeConfig,
    SearchSpace,
    SyntheticSpec,
    generate_synthetic,
    make_leakage_split,
    random_search,
)

spec = SyntheticSpec(dim=8, n_train=150, n_test_normal=60,
                     n_test_anomalous=60, anomaly_offset=2.0)
# one array of the train rows then the test rows, the train row count, the
# test ids and labels: the form msde tune loads its files into
rows, n_train, test_ids, labels = generate_synthetic(spec, seed=3)

lk = make_leakage_split(n_train, labels, seed=3)
print("partitions (row indices into the train and the test rows):")
print(f"  fit train      {lk.fit_train.size}")
print(f"  val normals    {lk.val_normals.size}")
print(f"  val anomalies  {lk.val_anomalies.size}")
print(f"  final test     {lk.final_test.size}")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    best, records, final = random_search(
        rows, n_train, test_ids, labels, SearchSpace(), n_trials=12, seed=3,
        base_config=MsdeConfig(pca_dim=8),
    )

print("\ntrial  k  t_nbd   eta  iters      tol   val AUC")
for r in records:
    p = r.params
    print(f"{r.trial_index:5d} {p.k:2d} {p.t_nbd:6d} {p.eta:5.2f} "
          f"{p.max_iters:6d} {p.tol:8.5f} {r.val_auc:9.4f}")

print(f"\nbest trial: {best.trial_index} (val AUC {best.val_auc:.4f})")
print(f"final test metrics with the winning parameters, retrained on all "
      f"training normals:")
print(f"  AUC {final.auc:.4f}   AP {final.ap:.4f}")

val_aucs = np.array([r.val_auc for r in records])
print(f"\nvalidation AUC spread across trials: "
      f"{val_aucs.min():.3f} .. {val_aucs.max():.3f}")
