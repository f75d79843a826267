"""Neighbor search: oracle equivalence, tie rule, radius counts."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _inputs import point_sets, recorded
from _oracles import brute_force_knn, count_within_radius
from msde import build_knn_graph
from msde import knn as knn_module
from msde.exceptions import GraphError
from msde.knn import SCAN_BLOCK_ROWS, knn_neighbors


def _matrix(values):
    return np.atleast_2d(np.asarray(values, dtype=float))


COLLINEAR = _matrix([[0.0], [1.0], [2.0], [10.0]])


class TestBuildKnnGraph:
    def test_collinear(self):
        g = build_knn_graph(COLLINEAR, 2)
        np.testing.assert_array_equal(g.neighbors[0], [1, 2])
        np.testing.assert_array_equal(g.distances[0], [1.0, 2.0])

    def test_two_points_mutual(self):
        g = build_knn_graph(_matrix([[0.0], [5.0]]), 1)
        np.testing.assert_array_equal(g.neighbors[:, 0], [1, 0])
        np.testing.assert_array_equal(g.distances[:, 0], [5.0, 5.0])

    def test_k_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            g = build_knn_graph(_matrix([[0.0], [1.0], [2.0]]), 10)
        assert g.k == 2

    def test_single_point_rejected(self):
        with pytest.raises(GraphError):
            build_knn_graph(_matrix([[0.0]]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("search", [build_knn_graph, brute_force_knn])
    def test_non_finite_points_rejected(self, search, bad):
        m = np.random.default_rng(0).normal(size=(20, 3))
        m[3, 1] = bad
        with pytest.raises(GraphError, match="finite"):
            search(m, 4)

    def test_overflowing_squares_rejected(self):
        # |x|^2 = inf would let every column, self included, pass the screen.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GraphError, match="overflow"):
                build_knn_graph(_matrix([[0.0], [1.0], [1e200]]), 1)

    def test_peak_memory_two_blocks(self, peak_bytes):
        # The scan's scratch is two SCAN_BLOCK_ROWS x n float buffers and a
        # bool mask, allocated once per call; at n=1200 that is 0.45 of one
        # n x n float64.
        n = 1200
        points = np.random.default_rng(0).normal(size=(n, 32))
        assert peak_bytes(build_knn_graph, points, 15) < 0.55 * n * n * 8

    def test_no_self_loops_and_sorted_rows(self):
        rng = np.random.default_rng(0)
        g = build_knn_graph(_matrix(rng.normal(size=(50, 3))), 8)
        for i in range(50):
            assert i not in g.neighbors[i]
            assert np.all(np.diff(g.distances[i]) >= 0)
            assert np.all(g.distances[i] >= 0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_matches_brute_force(self, dim):
        # Exact index and distance equality on random instances, from one
        # dimension up to dim 64.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 120))
            k = int(rng.integers(1, 12))
            m = _matrix(rng.normal(size=(n, dim)))
            fast = build_knn_graph(m, k)
            slow = brute_force_knn(m, k)
            np.testing.assert_array_equal(fast.neighbors, slow.neighbors)
            np.testing.assert_array_equal(fast.distances, slow.distances)

    def test_matches_on_gridded_ties(self):
        # Integer grids force many exactly-tied distances.
        rng = np.random.default_rng(99)
        m = _matrix(rng.integers(0, 4, size=(60, 2)).astype(float))
        fast = build_knn_graph(m, 6)
        slow = brute_force_knn(m, 6)
        np.testing.assert_array_equal(fast.neighbors, slow.neighbors)
        np.testing.assert_array_equal(fast.distances, slow.distances)

    @pytest.mark.parametrize("spacing", [1, 2])
    @pytest.mark.parametrize("dim", [2, 40])
    def test_scan_sub_blocks_match_brute_force_on_ties(self, dim, spacing):
        # More rows than one scan block, on an integer grid full of exact
        # distance ties (in 2-d, duplicate points too); the blocked scan
        # must still equal the oracle at either grid spacing.
        assert 600 > SCAN_BLOCK_ROWS
        rng = np.random.default_rng(5)
        grid = rng.integers(0, 3, size=(600, dim)) * spacing
        m = _matrix(grid.astype(float))
        fast = build_knn_graph(m, 12)
        slow = brute_force_knn(m, 12)
        np.testing.assert_array_equal(fast.neighbors, slow.neighbors)
        np.testing.assert_array_equal(fast.distances, slow.distances)


@st.composite
def _knn_inputs(draw):
    """Points and k: n goes past SCAN_BLOCK_ROWS so rows span several
    blocks, and k up to n + 2 so the clamp is reached."""
    points = draw(point_sets(600))
    return points, draw(st.integers(1, len(points) + 2))


def _far_duplicates():
    """32 distinct 512-d rows 30 sigma from the origin, repeated to 400 rows
    (7 to 27 copies each). At k=12 many rows' k-th screened value is 0,
    where no relative widening of it helps."""
    rng = np.random.default_rng(0)
    distinct = rng.normal(size=(32, 512)) + 30.0
    return distinct[rng.integers(0, 32, size=400)]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_knn_inputs())
@example((np.array([[0.0], [4.0]]), 3))
@example((np.zeros((9, 2)), 4))
@example((np.random.default_rng(0).integers(0, 3, size=(600, 2)).astype(float), 12))
@example((_far_duplicates(), 12))
def test_blocked_scan_equals_brute_force_bytewise(inputs):
    # Every block height, from one row per block to one block for all rows,
    # and one kernel pair per chunk.
    points, k = inputs
    n = len(points)
    oracle, expected = recorded(brute_force_knn, points, k)
    for height, budget in ((1, knn_module.RERANK_CHUNK_FLOATS), (7, 1),
                           (n + 1, knn_module.RERANK_CHUNK_FLOATS)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knn_module, "SCAN_BLOCK_ROWS", height)
            mp.setattr(knn_module, "RERANK_CHUNK_FLOATS", budget)
            graph, caught = recorded(build_knn_graph, points, k)
            neighbors, _ = recorded(knn_neighbors, points, k)
        assert graph.k == oracle.k
        assert neighbors.tobytes() == oracle.neighbors.tobytes()
        assert graph.neighbors.tobytes() == oracle.neighbors.tobytes()
        assert graph.distances.tobytes() == oracle.distances.tobytes()
        assert caught == expected


@pytest.mark.parametrize("offset", [1e7, 1e8])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_offset_grid_ties_break_by_column_index(dim, offset):
    # Integer grids far from the origin, full of exact kernel ties. At 1e7
    # every Gram product is an integer below 2**53, so the screen is exact;
    # at 1e8 it rounds, and tied columns screen at values that differ by
    # rounding alone. Only the column index may order them, never the
    # screened order.
    rng = np.random.default_rng(dim)
    for _ in range(12):
        points = rng.integers(0, 5, size=(int(rng.integers(8, 60)), dim)) + offset
        k = int(rng.integers(1, 7))
        oracle = brute_force_knn(points, k)
        graph = build_knn_graph(points, k)
        assert knn_neighbors(points, k).tobytes() == oracle.neighbors.tobytes()
        assert graph.neighbors.tobytes() == oracle.neighbors.tobytes()
        assert graph.distances.tobytes() == oracle.distances.tobytes()


@pytest.mark.parametrize("height", [SCAN_BLOCK_ROWS, 7, 1])
def test_exact_k_rows_and_boundary_ties_in_one_block(height, monkeypatch):
    # One 256-row block: most rows have exactly k screen candidates, sorted
    # as an (m, k) array, but rows 0, 100 and 200 have a duplicate of their
    # k-th neighbor tied at the k-th boundary, which sends the block to the
    # global sort. At heights 7 and 1 most blocks take the (m, k) sort and
    # the blocks of those rows the global one, in the same call.
    rng = np.random.default_rng(3)
    k = 6
    points = rng.normal(size=(256, 8))
    kth = brute_force_knn(points, k).neighbors[:, k - 1]
    for row, copy in ((0, 250), (100, 251), (200, 252)):
        points[copy] = points[kth[row]]
    distances = brute_force_knn(points, k + 1).distances
    tied = np.flatnonzero(distances[:, k - 1] == distances[:, k])
    assert set(tied) >= {0, 100, 200} and len(tied) < 20
    monkeypatch.setattr(knn_module, "SCAN_BLOCK_ROWS", height)
    oracle = brute_force_knn(points, k).neighbors
    assert knn_neighbors(points, k).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("sparse", [False, True])
def test_screen_blocks_are_c_contiguous(sparse, out):
    # The scan reads each block through d2.ravel(), which would copy a
    # block of any other layout. A CSR matrix need not be square or
    # symmetric; each block holds squared kernel distances within the
    # slack, and an inf diagonal.
    rng = np.random.default_rng(8)
    dense = rng.uniform(size=(40, 30)) * (rng.random((40, 30)) < 0.3)
    screen = knn_module._GramScreen(sp.csr_matrix(dense) if sparse else dense)
    given = np.empty((12, 40)) if out else None
    d2 = screen.block(slice(5, 17), out=given)
    assert d2.flags.c_contiguous and d2.shape == (12, 40)
    assert d2 is given or not out
    rows, cols = np.divmod(np.arange(12 * 40), 40)
    exact = screen.distances(5 + rows, cols).reshape(12, 40) ** 2
    assert np.all(np.isinf(d2[np.arange(12), np.arange(5, 17)]))
    off = np.arange(12)[:, None] + 5 != np.arange(40)
    assert np.all(np.abs(d2 - exact)[off] <= np.repeat(screen.slack[5:17], 39))


@pytest.mark.parametrize("kind", ["grid", "random"])
def test_neighbor_lists_are_prefix_closed(kind):
    # Exact lists with lower-index tie-breaks: the first k columns of a
    # larger build are the k-list, ties at every boundary included (on the
    # 8^3 grid, 6 neighbors at distance 1, 12 at sqrt 2, 8 at sqrt 3).
    if kind == "grid":
        axes = np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij")
        points = np.stack(axes, axis=-1).reshape(-1, 3)
    else:
        points = np.random.default_rng(14).normal(size=(300, 16))
    full = knn_neighbors(points, 40)
    for k in (1, 5, 6, 7, 18, 20, 26, 27, 39, 40):
        assert full[:, :k].tobytes() == knn_neighbors(points, k).tobytes()


@pytest.mark.parametrize("kind", ["grid", "random"])
def test_reused_scratch_gives_the_oracle_lists(kind):
    # One scratch through several scans of different points of the same n,
    # as the shift loop passes it. It starts poisoned (NaN, all-true mask)
    # and then holds the previous scan's values, so a read before a write
    # would change the lists. 300 rows span a full and a partial block; the
    # grid sits 1e8 from the origin, where tied columns screen apart.
    rng = np.random.default_rng(17)
    n, k = 300, 9
    scratch = knn_module.scan_scratch(n, n * 64)
    scratch.floats.fill(np.nan)
    scratch.mask.fill(True)
    for _ in range(4):
        if kind == "grid":
            points = rng.integers(0, 5, size=(n, 3)) + 1e8
        else:
            points = rng.normal(size=(n, 64))
        oracle = brute_force_knn(points, k).neighbors
        assert knn_neighbors(points, k, scratch).tobytes() == oracle.tobytes()


class TestBruteForce:
    def test_coincident_pair(self):
        g = brute_force_knn(_matrix([[1.0, 1.0], [1.0, 1.0]]), 1)
        np.testing.assert_array_equal(g.neighbors[:, 0], [1, 0])
        np.testing.assert_array_equal(g.distances[:, 0], [0.0, 0.0])

    def test_tie_broken_by_lower_index(self):
        g = brute_force_knn(_matrix([[0.0], [1.0], [-1.0]]), 1)
        assert g.neighbors[0, 0] == 1  # rows 1 and 2 both at distance 1

    def test_permutation_equivariance(self):
        # Inverse-permuting the permuted graph recovers the original on
        # tie-free random data.
        rng = np.random.default_rng(21)
        values = rng.normal(size=(40, 5))
        perm = rng.permutation(40)
        inv = np.argsort(perm)
        g = brute_force_knn(_matrix(values), 6)
        gp = brute_force_knn(_matrix(values[perm]), 6)
        np.testing.assert_array_equal(perm[gp.neighbors[inv]], g.neighbors)
        np.testing.assert_array_equal(gp.distances[inv], g.distances)


class TestCountWithinRadius:
    def test_strict_inequality(self):
        m = _matrix([[0.0], [1.0], [2.0]])
        assert count_within_radius(m, 0, 1.0) == 0
        assert count_within_radius(m, 0, 1.5) == 1
        assert count_within_radius(m, 1, 1.5) == 2

    def test_index_out_of_range(self):
        with pytest.raises(GraphError):
            count_within_radius(_matrix([[0.0], [1.0]]), 5, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        m = _matrix([[0.0], [1.0], [bad]])
        with pytest.raises(GraphError, match="finite"):
            count_within_radius(m, 0, 1.0)

    def test_negative_radius(self):
        with pytest.raises(GraphError):
            count_within_radius(_matrix([[0.0], [1.0]]), 0, -1.0)
