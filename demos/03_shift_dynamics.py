"""Watching the refinement loop contract a noisy manifold.

Runs the density-weighted shift on two overlapping rings, printing the
mean displacement per iteration and the point-set spread before and
after. If matplotlib is available, saves a before/after scatter to
shift_dynamics.png.

Run:  python demos/03_shift_dynamics.py
"""

import numpy as np

from msde import ShiftParams, run_shift

rng = np.random.default_rng(2)


def ring(n, radius, noise):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return pts + rng.normal(0.0, noise, size=pts.shape)


values = np.vstack([ring(200, 3.0, 0.25), ring(100, 1.0, 0.25)])

params = ShiftParams(k=12, eta=0.33, max_iters=10, tol=1e-3, t_nbd=20, k_umap=15)
out = run_shift(values, params)

print("iteration  mean displacement")
for i, delta in enumerate(out.trace.deltas, start=1):
    print(f"{i:9d}  {delta:.6f}")
print("converged:" if out.trace.converged else "stopped at max iterations:",
      out.trace.iterations_run, "iterations")


def ring_thickness(pts):
    radii = np.linalg.norm(pts, axis=1)
    return radii.std()


before, after = values, out.values
print(f"\nouter ring thickness: {ring_thickness(before[:200]):.4f} -> "
      f"{ring_thickness(after[:200]):.4f}")
print(f"inner ring thickness: {ring_thickness(before[200:]):.4f} -> "
      f"{ring_thickness(after[200:]):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 4.5), sharex=True, sharey=True)
    for ax, pts, title in ((axes[0], before, "before"), (axes[1], after, "after")):
        ax.scatter(pts[:, 0], pts[:, 1], s=6, alpha=0.6)
        ax.set_title(title)
        ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("shift_dynamics.png", dpi=120)
    print("\nsaved shift_dynamics.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the scatter plot")
