"""A tour of the empirical density weights.

The weights are computed in "graph space": every sample's coordinate is
its row of the symmetrized fuzzy k-NN membership matrix, and its weight
is the average number of other rows strictly inside four nested radii.
Distances between membership rows measure how much two samples' fuzzy
neighborhoods overlap, so the weights capture neighborhood coherence
rather than raw Euclidean density.

Run:  python demos/02_density_weights.py
"""

import numpy as np

from msde import build_fuzzy_graph, compute_empirical_weights
from msde.knn import count_within_radius

rng = np.random.default_rng(1)
values = rng.normal(0.0, 1.0, size=(200, 2))

fuzzy = build_fuzzy_graph(values, k_umap=15)
G = fuzzy.memberships
print(f"fuzzy graph: {G.shape[0]} nodes, {G.nnz} nonzero memberships")
print(f"membership range [{G.data.min():.3f}, {G.data.max():.3f}]")
print(f"nearest-neighbor distances rho: median {np.median(fuzzy.rho):.4f}")

dw = compute_empirical_weights(values, t_nbd=30, k_umap=15)
print(f"\nbase radius epsilon = {dw.schedule.epsilon:.4f} "
      f"(binary search, 30% of rows must have >= 30 strict neighbors)")
print("four shrinking radii:", [f"{r:.4f}" for r in dw.schedule.radii])
print(f"fraction of rows meeting the threshold at epsilon: "
      f"{dw.satisfied_fraction:.2f}")

w = dw.weights
print(f"\nweights are multiples of 0.25: "
      f"{bool(np.all(w * 4 == np.round(w * 4)))}")
print(f"weight range: {w.min()} .. {w.max()}, mean {w.mean():.2f}")

# each weight is exactly the mean of the four strict-radius counts
coords = G.toarray()
i = int(np.argmax(w))
counts = [count_within_radius(coords, i, r) for r in dw.schedule.radii]
print(f"\nsample {i}: strict counts per radius {counts} "
      f"-> weight {sum(counts) / 4.0} (recorded {w[i]})")

# Graph-space counts track membership-profile overlap: points whose
# neighbor sets concentrate on the same region score high even if they
# sit on the geometric fringe.
radius = np.linalg.norm(values, axis=1)
corr = np.corrcoef(w, radius)[0, 1]
print(f"\ncorr(weight, distance from cloud center) = {corr:+.2f} "
      f"(overlap structure, not raw spatial density)")
