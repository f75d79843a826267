"""Mean-shift mechanics: single steps, full runs, joint train+test runs."""

import warnings

import numpy as np
import pytest

from msde import (
    ShiftParams,
    build_knn_graph,
    joint_shift,
    run_shift,
    shift_step,
)
import msde.shift as shift_module
from msde.exceptions import ConfigError
from msde.knn import NeighborGraph, brute_force_knn


def _matrix(values):
    return np.atleast_2d(np.asarray(values, dtype=float))


def _manual_weights(w):
    return np.asarray(w, dtype=float)


def _chain_graph(neighbors, points):
    neighbors = np.asarray(neighbors, dtype=np.int64)
    distances = np.array([
        [np.linalg.norm(points[j] - points[i]) for j in row]
        for i, row in enumerate(neighbors)
    ])
    return NeighborGraph(neighbors.shape[1], neighbors, distances)


class TestShiftStep:
    def test_weighted_average_arithmetic(self):
        # x1 at the origin with neighbors (2,0) weight 3 and (0,0) weight 1:
        # target (1.5, 0); with eta=0.33 the new x1 is (0.495, 0)
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        m = _matrix(pts)
        graph = _chain_graph([[1, 2], [0, 2], [0, 1]], pts)
        weights = _manual_weights([1.0, 3.0, 1.0])
        shifted, delta = shift_step(m, graph.neighbors, weights, eta=0.33)
        np.testing.assert_allclose(shifted[0], [0.495, 0.0], atol=1e-15)
        assert delta > 0

    def test_coincident_neighborhood_is_fixed_point(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        m = _matrix(pts)
        graph = _chain_graph([[1, 2], [0, 2], [0, 1]], pts)
        shifted, delta = shift_step(m, graph.neighbors, _manual_weights([2.0, 5.0, 1.0]),
                                    eta=0.7)
        np.testing.assert_array_equal(shifted, pts)
        assert delta == 0.0

    def test_uniform_weights_reduce_to_centroid(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 3))
        m = _matrix(pts)
        graph = build_knn_graph(m, 3)
        shifted, _ = shift_step(m, graph.neighbors, _manual_weights(np.ones(6)), eta=1.0)
        for i in range(6):
            centroid = pts[graph.neighbors[i]].mean(axis=0)
            np.testing.assert_allclose(shifted[i], centroid, atol=1e-12)

    def test_zero_weight_neighborhood_falls_back_to_uniform(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        m = _matrix(pts)
        graph = _chain_graph([[1, 2], [0, 2], [0, 1]], pts)
        shifted, _ = shift_step(m, graph.neighbors, _manual_weights([0.0, 0.0, 0.0]),
                                eta=1.0)
        np.testing.assert_allclose(shifted[0], [(1.0 + 3.0) / 2.0])

    def test_eta_one_lands_on_weighted_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
        m = _matrix(pts)
        graph = _chain_graph([[1, 2], [0, 2], [0, 1]], pts)
        w = _manual_weights([1.0, 3.0, 1.0])
        shifted, _ = shift_step(m, graph.neighbors, w, eta=1.0)
        np.testing.assert_allclose(shifted[0], [1.5, 1.0], atol=1e-15)

    def test_displacement_bounded_by_eta_times_radius(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(40, 4))
        m = _matrix(pts)
        graph = build_knn_graph(m, 7)
        w = _manual_weights(rng.uniform(0.0, 5.0, size=40))
        for eta in (0.1, 0.5, 1.0):
            shifted, _ = shift_step(m, graph.neighbors, w, eta=eta)
            moved = np.linalg.norm(shifted - pts, axis=1)
            radius = graph.distances.max(axis=1)
            assert np.all(moved <= eta * radius + 1e-12)

    @pytest.mark.parametrize("eta", [0.33, 1.0])
    def test_block_size_does_not_change_step(self, monkeypatch, eta):
        # Each row's sum is reduced on its own, so the gather block height
        # must not change a single bit; zero weights (and one all-zero
        # neighborhood) exercise the fallback inside and across blocks.
        rng = np.random.default_rng(11)
        n = 53
        pts = rng.normal(size=(n, 6))
        graph = build_knn_graph(_matrix(pts), 5)
        w = rng.uniform(0.0, 5.0, size=n)
        w[rng.random(n) < 0.3] = 0.0
        w[graph.neighbors[20]] = 0.0
        results = []
        for rows in (1, 7, n + 1):
            monkeypatch.setattr(shift_module, "STEP_BLOCK_ROWS", rows)
            results.append(shift_step(pts, graph.neighbors, w, eta))
        for new, delta in results[1:]:
            assert new.tobytes() == results[0][0].tobytes()
            assert delta == results[0][1]

    def test_invalid_eta(self):
        pts = np.array([[0.0], [1.0]])
        graph = _chain_graph([[1], [0]], pts)
        with pytest.raises(ConfigError):
            shift_step(_matrix(pts), graph.neighbors, _manual_weights([1.0, 1.0]),
                       eta=0.0)


def _quiet_params(**kw):
    defaults = dict(k=5, t_nbd=5, k_umap=5, max_iters=4, eta=0.33, tol=0.01)
    defaults.update(kw)
    return ShiftParams(**defaults)


class TestRunShift:
    def test_tiny_eta_converges_immediately(self):
        rng = np.random.default_rng(1)
        m = _matrix(rng.normal(size=(30, 3)))
        out = run_shift(m, _quiet_params(eta=1e-12, tol=1e-6))
        np.testing.assert_allclose(out.values, m, atol=1e-9)
        assert out.trace.iterations_run == 1
        assert out.trace.converged

    def test_max_iters_one(self):
        rng = np.random.default_rng(2)
        m = _matrix(rng.normal(size=(25, 2)))
        out = run_shift(m, _quiet_params(max_iters=1, tol=1e-12))
        assert out.trace.iterations_run == 1
        assert not out.trace.converged

    def test_max_iters_zero_is_identity_baseline(self):
        rng = np.random.default_rng(3)
        m = _matrix(rng.normal(size=(10, 2)))
        out = run_shift(m, _quiet_params(max_iters=0))
        np.testing.assert_array_equal(out.values, m)
        assert out.trace.iterations_run == 0
        assert out.weights_used is None

    def test_blobs_contract_while_centroids_hold(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.1, size=(30, 2))
        b = rng.normal(0.0, 0.1, size=(30, 2)) + [10.0, 0.0]
        m = _matrix(np.vstack([a, b]))
        out = run_shift(m, _quiet_params(k=5, max_iters=8, tol=1e-6))
        v = out.values

        def diameter(x):
            from scipy.spatial.distance import pdist
            return pdist(x).max()

        assert diameter(v[:30]) < diameter(a)
        assert diameter(v[30:]) < diameter(b)
        assert np.linalg.norm(v[:30].mean(axis=0) - a.mean(axis=0)) < 0.5
        assert np.linalg.norm(v[30:].mean(axis=0) - b.mean(axis=0)) < 0.5

    def test_weights_computed_once_on_input_points(self):
        # the graph is rebuilt every iteration but weights are always those
        # of the unshifted input
        rng = np.random.default_rng(5)
        m = _matrix(rng.normal(size=(30, 2)))
        out = run_shift(m, _quiet_params(max_iters=3, tol=1e-9))
        from msde import compute_empirical_weights
        fresh = compute_empirical_weights(m, 5, 5)
        np.testing.assert_array_equal(out.weights_used.weights, fresh.weights)

    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        m = _matrix(rng.normal(size=(20, 3)))
        out = run_shift(m, _quiet_params(max_iters=2))
        assert out.values.shape == m.shape

    @pytest.mark.parametrize("kind", ["grid", "random"])
    def test_neighbor_order_equals_oracle_order(self, monkeypatch, kind):
        # The step sums each neighborhood in list order, so the loop's
        # neighbor lists must match the oracle's order, ties included, for
        # the shifted points to keep every bit. The grid sits 1e8 from the
        # origin, where tied columns screen at different values.
        rng = np.random.default_rng(8)
        if kind == "grid":
            points = rng.integers(0, 5, size=(200, 3)) + 1e8
        else:
            points = rng.normal(size=(200, 64))
        params = _quiet_params(k=8, t_nbd=10, k_umap=8, max_iters=4, tol=1e-9)
        out = run_shift(points, params)
        monkeypatch.setattr(shift_module, "knn_neighbors",
                            lambda values, k: brute_force_knn(values, k).neighbors)
        oracle = run_shift(points, params)
        assert out.values.tobytes() == oracle.values.tobytes()
        assert out.trace == oracle.trace

    def test_permutation_equivariance_synchronous_update(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(24, 3))
        perm = rng.permutation(24)
        inv = np.argsort(perm)
        out = run_shift(_matrix(values), _quiet_params(max_iters=2, tol=1e-9))
        outp = run_shift(_matrix(values[perm]), _quiet_params(max_iters=2, tol=1e-9))
        np.testing.assert_allclose(outp.values[inv], out.values,
                                   atol=1e-12)


class TestJointShift:
    def test_empty_test_equals_solo(self):
        rng = np.random.default_rng(10)
        train = _matrix(rng.normal(size=(20, 2)))
        solo, joint, shifted_test = joint_shift(train, np.empty((0, 2)),
                                                _quiet_params(max_iters=2))
        assert shifted_test.shape == (0, 2)
        reference = run_shift(train, _quiet_params(max_iters=2))
        np.testing.assert_array_equal(solo.values, reference.values)
        np.testing.assert_array_equal(joint.values, reference.values)

    def test_no_shift_passes_rows_through(self):
        rng = np.random.default_rng(13)
        train = _matrix(rng.normal(size=(20, 2)))
        test = rng.normal(size=(5, 2))
        solo, joint, test_joint = joint_shift(train, test, _quiet_params(max_iters=0))
        assert test_joint is test
        assert solo.values is train and joint is solo
        assert joint.trace.iterations_run == 0

    def test_extracted_test_rows_come_from_joint_run(self):
        rng = np.random.default_rng(11)
        train = _matrix(rng.normal(size=(25, 3)))
        test = rng.normal(size=(6, 3))
        _, _, shifted_test = joint_shift(train, test, _quiet_params(max_iters=3))
        union = np.vstack([train, test])
        reference = run_shift(union, _quiet_params(max_iters=3))
        np.testing.assert_array_equal(shifted_test,
                                      reference.values[train.shape[0]:])

    def test_duplicated_test_rows_track_train_rows(self):
        # With complete neighborhoods (k = n-1) the k-th boundary never cuts
        # between a train row and its duplicate, so the pair stays exactly
        # coincident through the whole joint run. Smaller k can split ties
        # at the neighborhood boundary by index and let the twins drift.
        rng = np.random.default_rng(11)
        train = rng.normal(size=(12, 3))
        test = train[:4].copy()
        params = ShiftParams(k=15, eta=0.33, max_iters=3, tol=1e-9,
                             t_nbd=5, k_umap=15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k clamps to n-1
            _, joint, test_joint = joint_shift(train, test, params)
        np.testing.assert_array_equal(joint.values[:4], test_joint)
