"""Neighbor search: oracle equivalence, tie rule, radius counts."""

import numpy as np
import pytest

from msde import build_knn_graph
from msde.exceptions import GraphError
from msde.knn import SCAN_BLOCK_ROWS, brute_force_knn, count_within_radius


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

    def test_negative_radius(self):
        with pytest.raises(GraphError):
            count_within_radius(_matrix([[0.0], [1.0]]), 0, -1.0)
