"""Mean-shift mechanics: single steps, full runs, joint train+test runs."""

import threading
import warnings

import numpy as np
import pytest

from _inputs import recorded
from _oracles import brute_force_knn
from msde import (
    ShiftParams,
    ShiftTrace,
    SyntheticSpec,
    build_fuzzy_graph,
    build_knn_graph,
    generate_synthetic,
    joint_shift,
    prepare_joint,
    run_shift,
    shift_step,
)
import msde.knn as knn_module
import msde.shift as shift_module
from msde.exceptions import ConfigError, GraphError, NumericError
from msde.knn import NeighborGraph


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
    @pytest.mark.parametrize("d, k", [(1, 60), (2, 60), (3, 17), (32, 60), (512, 50)])
    def test_step_sums_each_row_in_neighbor_order(self, d, k, eta):
        # Byte for byte against a per-row sequential sum. At d = 512 the
        # 130 rows span three row blocks.
        pts, neighbors, w = _step_instance(d, k)
        new, delta = shift_step(pts, neighbors, w, eta)
        expected, expected_delta = _sequential_step(pts, neighbors, w, eta)
        assert new.tobytes() == expected.tobytes()
        assert delta == expected_delta
        if eta == 1.0:
            assert np.signbit(new[7]).all()

    @pytest.mark.parametrize("eta", [0.33, 1.0])
    @pytest.mark.parametrize("d, k", [(3, 17), (32, 60)])
    def test_scratch_gives_the_same_bytes(self, d, k, eta):
        # The scaled rows and the displacements live in the scratch, which
        # starts poisoned and keeps the previous step's values; at eta = 1
        # the sign of row 7's zero sums is read back from the scaled rows.
        pts, neighbors, w = _step_instance(d, k)
        expected, expected_delta = shift_step(pts, neighbors, w, eta)
        scratch = knn_module.scan_scratch(len(pts), pts.size)
        scratch.floats.fill(np.nan)
        for _ in range(2):
            new, delta = shift_step(pts, neighbors, w, eta, scratch)
            assert new.tobytes() == expected.tobytes()
            assert delta == expected_delta
        if eta == 1.0:
            assert np.signbit(new[7]).all()

    def test_zero_sums_keep_their_list_order_sign(self):
        # A sum of -0.0 terms alone is -0.0; one +0.0 term, or terms that
        # cancel exactly, make it +0.0. Column 0 of rows 0-2 sums to each.
        pts = _matrix([[-0.0, 1.0], [0.0, 2.0], [3.0, -1.0], [-3.0, 4.0]])
        neighbors = np.array([[0, 0], [0, 1], [2, 3], [3, 2]])
        w = _manual_weights([1.0, 2.0, 1.0, 1.0])
        new, delta = shift_step(pts, neighbors, w, eta=1.0)
        expected, expected_delta = _sequential_step(pts, neighbors, w, 1.0)
        assert new.tobytes() == expected.tobytes()
        assert delta == expected_delta
        assert list(np.signbit(new[:3, 0])) == [True, False, False]

    def test_invalid_eta(self):
        pts = np.array([[0.0], [1.0]])
        graph = _chain_graph([[1], [0]], pts)
        with pytest.raises(ConfigError):
            shift_step(_matrix(pts), graph.neighbors, _manual_weights([1.0, 1.0]),
                       eta=0.0)

    @pytest.mark.parametrize("neighbors", [
        np.zeros((4, 2)),
        np.zeros(4, dtype=np.int64),
        np.zeros((3, 2), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
    ], ids=["float", "1-D", "wrong-n", "k=0"])
    def test_malformed_neighbor_lists_raise(self, neighbors):
        with pytest.raises(GraphError):
            shift_step(np.zeros((4, 2)), neighbors, np.ones(4), eta=0.5)

    @pytest.mark.parametrize("index", [4, -1])
    def test_neighbor_index_out_of_range_raises(self, index):
        neighbors = np.array([[1, 2], [0, 2], [0, 1], [0, index]])
        with pytest.raises(GraphError):
            shift_step(np.zeros((4, 2)), neighbors, np.ones(4), eta=0.5)

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
    def test_weights_of_wrong_shape_raise(self, shape):
        neighbors = np.array([[1, 2], [0, 2], [0, 1], [0, 1]])
        with pytest.raises(GraphError):
            shift_step(np.zeros((4, 2)), neighbors, np.ones(shape), eta=0.5)


def _step_instance(d, k):
    """130 rows with their lists and weights. Rows 0-4 are -0.0 vectors and
    row 7's list holds only them, so the sign of a zero sum is pinned too;
    row 20's neighborhood weighs zero and falls back."""
    rng = np.random.default_rng(d * 100 + k)
    n = 130
    pts = rng.normal(size=(n, d))
    pts[rng.random((n, d)) < 0.1] = -0.0
    pts[:5] = -0.0
    neighbors = rng.integers(5, n, size=(n, k))
    neighbors[7] = np.resize(np.arange(5), k)
    w = rng.uniform(0.0, 5.0, size=n)
    w[5:][rng.random(n - 5) < 0.3] = 0.0
    w[:5] = rng.uniform(1.0, 2.0, size=5)
    w[neighbors[20]] = 0.0
    return pts, neighbors, w


def _sequential_step(values, neighbors, weights, eta):
    """Oracle step: each row adds w_j * x_j in the order of its list."""
    new = np.empty_like(values)
    for i, row in enumerate(neighbors):
        acc = weights[row[0]] * values[row[0]]
        for j in row[1:]:
            acc = acc + weights[j] * values[j]
        wsum = weights[row].sum()
        target = values[row].mean(axis=0) if wsum == 0.0 else acc / wsum
        new[i] = target if eta == 1.0 else values[i] + eta * (target - values[i])
    moved = new - values
    return new, float(np.sqrt(np.einsum("ij,ij->i", moved, moved)).mean())


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
        # The loop passes its scratch to every scan through this one name.
        monkeypatch.setattr(shift_module, "knn_neighbors",
                            lambda values, k, scratch:
                            brute_force_knn(values, k).neighbors)
        oracle = run_shift(points, params)
        assert out.values.tobytes() == oracle.values.tobytes()
        assert out.trace == oracle.trace

    def test_run_allocates_its_scratch_once(self, monkeypatch):
        # Eight iterations: one allocation, handed to all 7 scans and 8 steps.
        allocated, used = [], []
        scan_scratch = shift_module.scan_scratch
        knn_neighbors, step = shift_module.knn_neighbors, shift_module.shift_step

        def allocate(*args):
            allocated.append(scan_scratch(*args))
            return allocated[-1]

        def scan(values, k, scratch):
            used.append(("scan", scratch))
            return knn_neighbors(values, k, scratch)

        def stepping(values, neighbors, weights, eta, scratch):
            used.append(("step", scratch))
            return step(values, neighbors, weights, eta, scratch)

        monkeypatch.setattr(shift_module, "scan_scratch", allocate)
        monkeypatch.setattr(shift_module, "knn_neighbors", scan)
        monkeypatch.setattr(shift_module, "shift_step", stepping)
        points = np.random.default_rng(15).normal(size=(300, 8))
        out = run_shift(points, _quiet_params(max_iters=8, tol=1e-12))
        assert out.trace.iterations_run == 8
        assert len(allocated) == 1
        assert [kind for kind, _ in used] == ["step"] + ["scan", "step"] * 7
        assert all(scratch is allocated[0] for _, scratch in used)

    def test_permutation_equivariance_synchronous_update(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(24, 3))
        perm = rng.permutation(24)
        inv = np.argsort(perm)
        out = run_shift(_matrix(values), _quiet_params(max_iters=2, tol=1e-9))
        outp = run_shift(_matrix(values[perm]), _quiet_params(max_iters=2, tol=1e-9))
        np.testing.assert_allclose(outp.values[inv], out.values,
                                   atol=1e-12)


class TestPrepareShift:
    @pytest.mark.parametrize("ks, k_umap", [((12, 20), 8), ((15,), 15), ((5, 3), 25),
                                            ((10,), 60), ((45,), 12)])
    def test_one_scan_gives_the_fuzzy_graph_and_the_lists(self, monkeypatch,
                                                          ks, k_umap):
        # On 40 points: k_umap below, equal to and above the largest k, and
        # k_umap or k past n - 1. The one scan's lists give the fuzzy graph
        # of build_fuzzy_graph byte for byte, with the same clamp warning,
        # and the iteration-1 lists of the largest k.
        points = np.random.default_rng(30).normal(size=(40, 3))
        scans, graphs = [], []
        knn_scan, fuzzy_from_knn = shift_module._knn_scan, shift_module._fuzzy_from_knn

        def scan(values, k):
            scans.append(k)
            return knn_scan(values, k)

        def fuzzy(graph):
            graphs.append(fuzzy_from_knn(graph))
            return graphs[-1]

        monkeypatch.setattr(shift_module, "_knn_scan", scan)
        monkeypatch.setattr(shift_module, "_fuzzy_from_knn", fuzzy)
        params = [_quiet_params(k=k, k_umap=k_umap) for k in ks]
        prepared, caught = recorded(shift_module.prepare_shift, points, params)
        expected, expected_caught = recorded(build_fuzzy_graph, points, k_umap)
        assert len(scans) == 1 and len(graphs) == 1
        assert caught == expected_caught
        assert graphs[0].rho.tobytes() == expected.rho.tobytes()
        assert graphs[0].sigma.tobytes() == expected.sigma.tobytes()
        for part in ("data", "indices", "indptr"):
            got = getattr(graphs[0].memberships, part)
            assert got.tobytes() == getattr(expected.memberships, part).tobytes()
        lists = brute_force_knn(points, min(max(ks), 39)).neighbors
        assert np.ascontiguousarray(prepared.neighbors).tobytes() == lists.tobytes()


def _prepare(train, test, params, threads=1):
    return prepare_joint(np.concatenate([train, test]), len(train), params, threads)


def _joint_shift(train, test, params):
    return joint_shift(_prepare(train, test, [params]), params)


class TestJointShift:
    def test_empty_test_equals_solo(self):
        rng = np.random.default_rng(10)
        train = _matrix(rng.normal(size=(20, 2)))
        solo, joint, shifted_test = _joint_shift(train, np.empty((0, 2)),
                                                _quiet_params(max_iters=2))
        assert shifted_test.shape == (0, 2)
        reference = run_shift(train, _quiet_params(max_iters=2))
        np.testing.assert_array_equal(solo.values, reference.values)
        np.testing.assert_array_equal(joint.values, reference.values)

    def test_params_not_prepared_for_are_refused(self):
        rng = np.random.default_rng(12)
        train, test = rng.normal(size=(20, 2)), rng.normal(size=(5, 2))
        prepared = _prepare(train, test, [_quiet_params(k=5, t_nbd=5)])
        for params in (_quiet_params(k=6), _quiet_params(t_nbd=6),
                       _quiet_params(k_umap=6)):
            with pytest.raises(ConfigError, match="not prepared"):
                joint_shift(prepared, params)
        unshifted = _prepare(train, test, [_quiet_params(max_iters=0)])
        with pytest.raises(ConfigError, match="not prepared"):
            joint_shift(unshifted, _quiet_params())

    def test_no_shift_passes_rows_through(self):
        # Both runs return their points unmoved, so the test rows are a view
        # of the prepared rows, and each run has a trace of 0 iterations.
        rng = np.random.default_rng(13)
        train = _matrix(rng.normal(size=(20, 2)))
        test = rng.normal(size=(5, 2))
        params = _quiet_params(max_iters=0)
        prepared = _prepare(train, test, [params])
        solo, joint, test_joint = joint_shift(prepared, params)
        assert solo.values is prepared.train and joint.values is prepared.rows
        assert test_joint.base is prepared.rows
        assert test_joint.tobytes() == test.tobytes()
        assert solo.trace == joint.trace == ShiftTrace(0, (), False)
        assert solo.weights_used is None and joint.weights_used is None

    def test_joint_run_shifts_the_one_stacked_copy(self, monkeypatch):
        # prepare_joint takes over the one array of train then test rows,
        # uncopied: both are views of it, and the joint run's points are the
        # array itself.
        rng = np.random.default_rng(14)
        train, test = rng.normal(size=(30, 3)), rng.normal(size=(8, 3))
        params = _quiet_params(max_iters=2)
        stacked = np.concatenate([train, test])
        prepared = prepare_joint(stacked, len(train), [params])
        assert prepared.rows is stacked and not stacked.flags.writeable
        assert prepared.train.base is stacked and prepared.test.base is stacked
        assert prepared.train.tobytes() == train.tobytes()
        assert prepared.test.tobytes() == test.tobytes()
        runs = []
        apply_shift = shift_module.apply_shift

        def recording(points, prepared_input, p):
            runs.append(points)
            return apply_shift(points, prepared_input, p)

        monkeypatch.setattr(shift_module, "apply_shift", recording)
        joint_shift(prepared, params)
        solo_points, joint_points = runs
        assert joint_points is stacked
        assert solo_points is prepared.train

    def test_extracted_test_rows_come_from_joint_run(self):
        rng = np.random.default_rng(11)
        train = _matrix(rng.normal(size=(25, 3)))
        test = rng.normal(size=(6, 3))
        _, _, shifted_test = _joint_shift(train, test, _quiet_params(max_iters=3))
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
            _, joint, test_joint = _joint_shift(train, test, params)
        np.testing.assert_array_equal(joint.values[:4], test_joint)


def _run_fingerprint(run):
    weights = run.weights_used
    return (run.values.tobytes(), weights.weights.tobytes(),
            weights.schedule, weights.satisfied_fraction, run.trace)


class TestSoloJointFanOut:
    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        # The thread cap must not turn the fan-out off on a small machine.
        monkeypatch.setattr("os.cpu_count", lambda: 4)

    @pytest.mark.parametrize("instance", ["criterion_07", "clamped"])
    def test_outputs_do_not_depend_on_threads(self, instance, monkeypatch):
        if instance == "criterion_07":
            spec = SyntheticSpec(dim=32, n_train=500, n_test_normal=100,
                                 n_test_anomalous=100, anomaly_offset=2.5)
            rows, n_train, _, _ = generate_synthetic(spec, 42)
            train, test = rows[:n_train], rows[n_train:]
            params = ShiftParams()
        else:
            # 7 solo and 10 joint rows: k, t_nbd and k_umap all clamp.
            rng = np.random.default_rng(31)
            train, test = rng.normal(size=(7, 3)), rng.normal(size=(3, 3))
            params = ShiftParams(max_iters=3)
        idents = []
        apply_shift = shift_module.apply_shift

        def recording(*args):
            idents.append(threading.get_ident())
            return apply_shift(*args)

        monkeypatch.setattr(shift_module, "apply_shift", recording)
        runs = {}
        for threads in (1, 2, 4):
            idents.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # clamps
                prepared = _prepare(train, test, [params], threads)
                solo, joint, test_values = joint_shift(prepared, params, threads)
            runs[threads] = (_run_fingerprint(solo), _run_fingerprint(joint),
                             test_values.tobytes())
            main_thread = threading.get_ident()
            assert len(idents) == 2
            assert (main_thread in idents) == (threads == 1)
        assert runs[1] == runs[2] == runs[4]

    @pytest.mark.parametrize("failing", [("solo",), ("solo", "joint")],
                             ids=["solo", "both"])
    def test_failure_raises_as_in_order_and_joins_the_pool(self, failing,
                                                           monkeypatch):
        rng = np.random.default_rng(32)
        train, test = rng.normal(size=(30, 3)), rng.normal(size=(10, 3))
        params = _quiet_params()
        prepared = _prepare(train, test, [params])
        apply_shift = shift_module.apply_shift

        def failing_run(points, prepared_input, p):
            half = "solo" if len(points) == len(train) else "joint"
            if half in failing:
                error = NumericError if half == "solo" else GraphError
                raise error(f"injected {half} failure")
            return apply_shift(points, prepared_input, p)

        monkeypatch.setattr(shift_module, "apply_shift", failing_run)
        baseline = threading.active_count()
        raised = []
        for threads in (1, 2):
            with pytest.raises(Exception) as info:
                joint_shift(prepared, params, threads)
            raised.append((type(info.value), str(info.value)))
            assert threading.active_count() == baseline
        assert raised == [(NumericError, "injected solo failure")] * 2
