"""Fuzzy graph construction, radius search, multi-scale density weights."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msde import (
    RadiusSchedule,
    build_fuzzy_graph,
    build_knn_graph,
    compute_empirical_weights,
    pairwise_distances,
)
from msde.exceptions import GraphError
from msde.knn import count_within_radius, distances_from
from msde.weights import (
    PAIRWISE_BLOCK_ROWS,
    SIGMA_BISECTION_STEPS,
    _bisect_radius,
    _solve_bandwidths,
    _weights_from_coords,
)

RHO_SATURATION_TARGET = math.log2(15)


def _matrix(values):
    return np.atleast_2d(np.asarray(values, dtype=float))


def _solve_bandwidth_reference(dists, rho, target):
    """One row's bisection as a scalar loop; the oracle for
    ``_solve_bandwidths``."""
    lo = 1e-10
    hi = max(dists[-1] if dists.size else 0.0, lo) * 1e3
    gaps = np.maximum(dists - rho, 0.0)
    for _ in range(SIGMA_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if np.exp(-gaps / mid).sum() > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _per_row_fuzzy_graph(points, k_umap):
    """The fuzzy graph built one row at a time with the scalar bisection."""
    graph = build_knn_graph(points, k_umap)
    n, k = graph.neighbors.shape
    target = math.log2(k) if k > 1 else 0.0
    rho = graph.distances[:, 0].copy()
    sigma = np.empty(n)
    vals = np.empty((n, k))
    for i in range(n):
        d = graph.distances[i]
        sigma[i] = _solve_bandwidth_reference(d[1:], rho[i], target)
        vals[i] = np.exp(-np.maximum(d - rho[i], 0.0) / sigma[i])
    directed = sp.csr_matrix(
        (vals.ravel(), (np.repeat(np.arange(n), k), graph.neighbors.ravel())),
        shape=(n, n),
    )
    transpose = directed.T.tocsr()
    combined = (directed + transpose - directed.multiply(transpose)).tocsr()
    np.clip(combined.data, 0.0, 1.0, out=combined.data)
    combined.eliminate_zeros()
    return combined, rho, sigma


@st.composite
def _bandwidth_rows(draw):
    """Sorted neighbor distances per row: the nearest one (rho) and the
    k-1 past it. Integer grids give ties and, through zeros, rho = 0 with
    zero gaps; 0 columns is the k = 1 case."""
    n = draw(st.integers(1, 6))
    cols = draw(st.integers(0, 300))
    if draw(st.booleans()):
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(0.0, 1e3, allow_subnormal=False)
    d = np.sort(draw(arrays(np.float64, (n, cols + 1), elements=elements)), axis=1)
    return d[:, 1:], d[:, 0].copy()


class TestFuzzyGraph:
    def test_two_points_saturate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k_umap clamp
            fg = build_fuzzy_graph(_matrix([[0.0], [3.7]]), 2)
        G = fg.memberships.toarray()
        assert fg.rho[0] == 3.7 and fg.rho[1] == 3.7
        assert G[0, 1] == 1.0 and G[1, 0] == 1.0
        assert G[0, 0] == 0.0 and G[1, 1] == 0.0

    def test_equilateral_triangle_symmetric(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
        fg = build_fuzzy_graph(_matrix(pts), 2)
        G = fg.memberships.toarray()
        off = G[~np.eye(3, dtype=bool)]
        assert np.all(off == off[0])

    def test_row_sums_hit_bisection_target(self):
        # Directed memberships sum to log2(k) beyond the nearest neighbor,
        # plus 1 from the saturated nearest neighbor itself. Verified with
        # an independent per-row summation against the recomputed target.
        rng = np.random.default_rng(7)
        m = _matrix(rng.uniform(size=(50, 2)))
        fg = build_fuzzy_graph(m, 15)
        g = build_knn_graph(m, 15)
        for i in range(50):
            d = g.distances[i]
            memberships = np.exp(-np.maximum(d - fg.rho[i], 0.0) / fg.sigma[i])
            assert memberships.sum() == pytest.approx(
                RHO_SATURATION_TARGET + 1.0, abs=1e-6
            )

    def test_symmetrization_identity(self):
        # G_ij = a_ij + a_ji - a_ij * a_ji for every pair
        rng = np.random.default_rng(20)
        m = _matrix(rng.normal(size=(40, 3)))
        fg = build_fuzzy_graph(m, 10)
        g = build_knn_graph(m, 10)
        directed = np.zeros((40, 40))
        for i in range(40):
            vals = np.exp(-np.maximum(g.distances[i] - fg.rho[i], 0.0) / fg.sigma[i])
            directed[i, g.neighbors[i]] = vals
        expected = directed + directed.T - directed * directed.T
        np.testing.assert_allclose(fg.memberships.toarray(), expected, atol=1e-12)

    def test_graph_invariants(self):
        rng = np.random.default_rng(5)
        fg = build_fuzzy_graph(_matrix(rng.normal(size=(60, 4))), 12)
        G = fg.memberships.toarray()
        assert np.abs(G - G.T).max() <= 1e-12
        assert G.min() >= 0.0 and G.max() <= 1.0
        assert np.all(np.diag(G) == 0.0)
        assert np.all(fg.sigma > 0.0)

    def test_needs_two_points(self):
        with pytest.raises(GraphError):
            build_fuzzy_graph(_matrix([[0.0]]), 2)

    def test_bandwidth_solver_hits_target(self):
        rng = np.random.default_rng(1)
        d = np.sort(rng.uniform(1.0, 3.0, size=14))
        target = math.log2(15)
        sigma = _solve_bandwidths(d[None, :], np.array([0.5]), target)[0]
        total = np.exp(-np.maximum(d - 0.5, 0.0) / sigma).sum()
        assert total == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("n, k_umap, grid", [(2, 2, False), (3, 2, False),
                                                 (150, 15, False), (150, 15, True)])
    def test_equals_per_row_construction_bytewise(self, n, k_umap, grid):
        rng = np.random.default_rng(n)
        if grid:
            points = rng.integers(0, 3, size=(n, 4)).astype(float)
        else:
            points = rng.normal(size=(n, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k_umap clamp at n = 2
            fg = build_fuzzy_graph(points, k_umap)
            memberships, rho, sigma = _per_row_fuzzy_graph(points, k_umap)
        assert fg.rho.tobytes() == rho.tobytes()
        assert fg.sigma.tobytes() == sigma.tobytes()
        for part in ("data", "indices", "indptr"):
            got = getattr(fg.memberships, part)
            assert got.tobytes() == getattr(memberships, part).tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_bandwidth_rows())
@example((np.zeros((3, 4)), np.zeros(3)))
@example((np.empty((2, 0)), np.array([0.0, 1.5])))
def test_bandwidths_equal_per_row_bisection_bytewise(rows):
    dists, rho = rows
    target = math.log2(dists.shape[1] + 1) if dists.shape[1] else 0.0
    sigma = _solve_bandwidths(dists, rho, target)
    reference = np.array([_solve_bandwidth_reference(d, r, target)
                          for d, r in zip(dists, rho)])
    assert sigma.tobytes() == reference.tobytes()


class TestSearchRadius:
    def test_collinear_converges_to_one_from_above(self):
        # points 0,1,2,3 with t_nbd=2 and 30% of 4 -> 2 rows needed: only at
        # radii > 1 do rows 1 and 2 each see two strict neighbors.
        m = _matrix([[0.0], [1.0], [2.0], [3.0]])
        schedule = _weights_from_coords(m, t_nbd=2, threads=1).schedule
        assert schedule.epsilon > 1.0
        assert schedule.epsilon == pytest.approx(1.0, rel=1e-5)
        # independent confirmation of the limit by fine grid scan
        grid = np.linspace(0.5, 3.0, 2501)
        satisfied = [
            sum(count_within_radius(m, i, eps) >= 2 for i in range(4)) >= 2
            for eps in grid
        ]
        first = grid[int(np.argmax(satisfied))]
        assert abs(first - 1.0) <= (3.0 - 0.5) / 2500 + 1e-12

    def test_all_points_coincident(self):
        m = _matrix([[2.0, 2.0]] * 6)
        schedule = _weights_from_coords(m, t_nbd=3, threads=1).schedule
        assert 0.0 < schedule.epsilon <= 2e-12

    def test_impossible_t_nbd_clamped(self):
        rng = np.random.default_rng(3)
        m = _matrix(rng.normal(size=(10, 2)))
        with pytest.warns(UserWarning, match="clamped"):
            schedule = _weights_from_coords(m, t_nbd=10, threads=1).schedule
        assert schedule.epsilon > 0.0

    def test_predicate_monotone_in_radius(self):
        # grid scan: the number of rows meeting the threshold never
        # decreases as the radius grows
        rng = np.random.default_rng(17)
        m = _matrix(rng.normal(size=(40, 2)))
        grid = np.linspace(0.0, 6.0, 200)
        counts = [
            sum(count_within_radius(m, i, eps) >= 3 for i in range(40))
            for eps in grid
        ]
        assert np.all(np.diff(counts) >= 0)

    def test_returned_radius_satisfies_target(self):
        rng = np.random.default_rng(23)
        values = rng.normal(size=(60, 3))
        m = _matrix(values)
        schedule = _weights_from_coords(m, t_nbd=5, threads=1).schedule
        satisfied = sum(
            count_within_radius(m, i, schedule.epsilon) >= 5 for i in range(60)
        )
        assert satisfied >= math.ceil(0.3 * 60)


class TestRadiusSchedule:
    def test_four_decreasing_radii(self):
        s = RadiusSchedule(epsilon=2.0)
        assert s.delta == pytest.approx((2.0 - 1e-6) / 4.0, abs=0)
        assert len(s.radii) == 4
        assert s.radii[0] == 2.0
        assert np.all(np.diff(s.radii) < 0)
        assert s.radii[-1] == pytest.approx((2.0 + 3e-6) / 4.0)
        assert s.radii[-1] > 0


class TestEmpiricalWeights:
    def test_two_points_symmetric(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamps on tiny n
            dw = compute_empirical_weights(_matrix([[0.0], [1.0]]), t_nbd=1, k_umap=2)
        assert dw.weights[0] == dw.weights[1]

    def test_graph_space_two_points_distance(self):
        # rows of G are [0,1] and [1,0]; their separation is sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fg = build_fuzzy_graph(_matrix([[0.0], [1.0]]), 2)
        D = pairwise_distances(fg.memberships.toarray())
        assert D[0, 1] == pytest.approx(math.sqrt(2.0), abs=0)

    def test_weights_match_direct_counting_oracle(self):
        rng = np.random.default_rng(8)
        m = _matrix(rng.normal(size=(31, 2)))
        dw = compute_empirical_weights(m, t_nbd=5, k_umap=10)
        # direct counting oracle on the graph-space coordinates
        fg = build_fuzzy_graph(m, 10)
        coords = fg.memberships.toarray()
        oracle = np.zeros(31)
        for radius in dw.schedule.radii:
            oracle += [count_within_radius(coords, i, radius) for i in range(31)]
        oracle /= 4.0
        np.testing.assert_array_equal(dw.weights, oracle)

    def test_graph_space_outlier_gets_lowest_weight(self):
        # counting stage alone: a dense cluster of 30 near-coincident
        # graph-space coordinates plus one far coordinate
        rng = np.random.default_rng(8)
        cluster = rng.normal(0.0, 1e-3, size=(30, 4))
        outlier = np.full((1, 4), 25.0)
        coords = np.ascontiguousarray(np.vstack([cluster, outlier]))
        dw = _weights_from_coords(coords, t_nbd=25, threads=1)
        oracle = np.zeros(31)
        for radius in dw.schedule.radii:
            oracle += [count_within_radius(coords, i, radius) for i in range(31)]
        oracle /= 4.0
        np.testing.assert_array_equal(dw.weights, oracle)
        assert dw.weights[30] < dw.weights[:30].min()

    def test_mean_of_four_counts(self):
        # a point with strict counts {8, 6, 5, 3} across the radii averages 5.5
        assert (8 + 6 + 5 + 3) / 4.0 == 5.5

    def test_weights_are_quarter_multiples_in_range(self):
        rng = np.random.default_rng(31)
        m = _matrix(rng.normal(size=(50, 3)))
        dw = compute_empirical_weights(m, t_nbd=8, k_umap=10)
        scaled = dw.weights * 4.0
        np.testing.assert_array_equal(scaled, np.round(scaled))
        assert dw.weights.min() >= 0.0
        assert dw.weights.max() <= 49.0

    def test_counts_nonincreasing_across_scales(self):
        rng = np.random.default_rng(41)
        m = _matrix(rng.normal(size=(45, 2)))
        dw = compute_empirical_weights(m, t_nbd=6, k_umap=10)
        fg = build_fuzzy_graph(m, 10)
        coords = fg.memberships.toarray()
        per_scale = np.array([
            [count_within_radius(coords, i, r) for i in range(45)]
            for r in dw.schedule.radii
        ])
        assert np.all(np.diff(per_scale, axis=0) <= 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(55)
        values = rng.normal(size=(40, 3))
        perm = rng.permutation(40)
        a = compute_empirical_weights(_matrix(values), t_nbd=5, k_umap=8)
        b = compute_empirical_weights(_matrix(values[perm]), t_nbd=5, k_umap=8)
        np.testing.assert_array_equal(a.weights[perm], b.weights)

    def test_bitwise_reproducible_across_runs_and_threads(self):
        rng = np.random.default_rng(66)
        m = _matrix(rng.normal(size=(80, 4)))
        a = compute_empirical_weights(m, t_nbd=10, k_umap=12, threads=1)
        b = compute_empirical_weights(m, t_nbd=10, k_umap=12, threads=1)
        c = compute_empirical_weights(m, t_nbd=10, k_umap=12, threads=4)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.weights, c.weights)
        assert a.schedule.epsilon == b.schedule.epsilon == c.schedule.epsilon

    def test_satisfied_fraction_reported(self):
        rng = np.random.default_rng(77)
        m = _matrix(rng.normal(size=(50, 2)))
        dw = compute_empirical_weights(m, t_nbd=5, k_umap=10)
        assert dw.satisfied_fraction >= 0.3


class TestPairwiseDistances:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["random", "integer_ties"])
    def test_equals_whole_row_kernel_bytewise(self, kind, threads):
        # 150 rows: column slices of 64, 64 and 22.
        assert 2 * PAIRWISE_BLOCK_ROWS < 150 < 3 * PAIRWISE_BLOCK_ROWS
        rng = np.random.default_rng(12)
        if kind == "random":
            values = rng.normal(size=(150, 20))
        else:
            values = rng.integers(0, 3, size=(150, 20)).astype(float)
        D = pairwise_distances(values, threads=threads)
        oracle = np.array([distances_from(values, i) for i in range(150)])
        assert D.tobytes() == oracle.tobytes()

    def test_peak_memory_has_no_n_by_n_temporaries(self, peak_bytes):
        rng = np.random.default_rng(13)
        coords = np.ascontiguousarray(
            build_fuzzy_graph(rng.normal(size=(300, 8)), 15).memberships.toarray()
        )
        output_bytes = 300 * 300 * 8
        assert peak_bytes(pairwise_distances, coords) < 2 * output_bytes


class TestBisectRadiusInternals:
    def test_two_points_clamp_and_bracket_extension(self):
        # With a single pairwise distance, strict counting fails everywhere
        # in [d_min, d_max]; the degenerate bracket extends past d_max so
        # the search lands just above it.
        D = pairwise_distances(np.array([[0.0], [4.0]]))
        with pytest.warns(UserWarning, match="clamped"):
            eps, t_used, _ = _bisect_radius(D, t_nbd=70)
        assert 4.0 < eps <= 4.0 * (1.0 + 2e-6)
        assert t_used == 1
