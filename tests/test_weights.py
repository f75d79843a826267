"""Fuzzy graph construction, radius search, multi-scale density weights."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _inputs import point_sets, recorded
from _oracles import _kth_neighbor_distance, count_within_radius, pairwise_distances
from msde import (
    DensityWeights,
    RadiusSchedule,
    build_fuzzy_graph,
    build_knn_graph,
    compute_empirical_weights,
)
from msde import weights as weights_module
from msde.exceptions import ConfigError, GraphError
from msde.knn import _GramScreen
from msde.weights import (
    HEAD_MAX_WIDTH,
    HEAD_PER_RANK,
    SIGMA_BISECTION_STEPS,
    _bisect_radius,
    _Bracketed,
    _below,
    _clamped_t_nbd,
    _count_sorted,
    _pass_one,
    _solve_bandwidths,
    _weights_from_coords,
    apply_weights,
    prepare_weights,
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


def _exact(values):
    """Known order statistics in the form the radius search reads."""
    return _Bracketed(None, values, values.copy(), None)


def _dense_weights(coords, t_nbd):
    """The dense oracle: the full distance matrix's extremes and order
    statistics fed to the radius bisection, then direct strict counts.
    Returns (weights, epsilon, satisfied_fraction) and emits the search's
    warnings."""
    dist = pairwise_distances(coords)
    n = len(dist)
    d_max = float(dist.max())
    np.fill_diagonal(dist, np.inf)
    kth = {t: _exact(_kth_neighbor_distance(dist, t))
           for t in (t_nbd, _clamped_t_nbd(n)) if t <= n - 1}
    eps, _, fraction, notes = _bisect_radius(n, kth, float(dist.min()), d_max, t_nbd)
    for note in notes:
        warnings.warn(note)
    counts = np.zeros(n)
    for radius in RadiusSchedule(eps).radii:
        counts += np.count_nonzero(dist < radius, axis=1)
    return counts / 4.0, eps, fraction


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

    @pytest.mark.parametrize("kind", ["random", "grid"])
    def test_memberships_equal_their_transpose_bytewise(self, kind):
        # The probabilistic union A + A^T - A*A^T is symmetric bit for bit.
        rng = np.random.default_rng(23)
        if kind == "random":
            points = rng.normal(size=(150, 5))
        else:
            points = rng.integers(0, 3, size=(150, 3)).astype(float)
        G = build_fuzzy_graph(points, 15).memberships
        T = G.T.tocsr()
        for name in ("indptr", "indices", "data"):
            left, right = getattr(G, name), getattr(T, name)
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()

    def test_needs_two_points(self):
        with pytest.raises(GraphError):
            build_fuzzy_graph(_matrix([[0.0]]), 2)

    def test_k_umap_below_two_is_config_error(self):
        # As ShiftParams and --k-umap refuse it: one neighbour leaves no
        # membership for sigma to calibrate.
        points = np.random.default_rng(0).normal(size=(10, 3))
        for build in (lambda: build_fuzzy_graph(points, 1),
                      lambda: compute_empirical_weights(points, 5, 1)):
            with pytest.raises(ConfigError, match="k_umap must be >= 2"):
                build()

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


@st.composite
def _weight_inputs(draw):
    """Points for the fuzzy graph; t_nbd goes up to n + 4 so the clamp and
    the unsatisfiable radius are reached."""
    points = draw(point_sets(260))
    return points, draw(st.integers(2, 20)), draw(st.integers(1, len(points) + 4))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_weight_inputs())
@example((np.array([[0.0], [4.0]]), 2, 6))
@example((np.zeros((9, 2)), 3, 4))
@example((np.array([[1.0], [2], [0], [1], [2], [0], [0], [2], [1]]), 2, 13))
@example((np.random.default_rng(0).normal(size=(260, 3)), 15, 70))
def test_screened_weights_equal_dense_oracle_bytewise(inputs):
    # The fuzzy graph's CSR rows at every block height, and the points
    # themselves (dense coordinates) once.
    points, k_umap, t_nbd = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k_umap clamp
        memberships = build_fuzzy_graph(points, k_umap).memberships
    n = len(points)
    for coords, dense, runs in (
        (memberships, memberships.toarray(), [1, 7, n + 1]),
        (points, points, [weights_module.SCREEN_BLOCK_ROWS]),
    ):
        (weights, eps, fraction), expected = recorded(_dense_weights, dense, t_nbd)
        for height in runs:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(weights_module, "SCREEN_BLOCK_ROWS", height)
                dw, caught = recorded(_weights_from_coords, coords, t_nbd)
            assert dw.weights.tobytes() == weights.tobytes()
            assert dw.schedule.epsilon == eps
            assert dw.satisfied_fraction == fraction
            assert caught == expected


def _instance(kind, n=150):
    """Gaussian rows, an integer grid (ties), Gaussian rows each repeated
    three times (zero distances) or three equidistant rows repeated, where
    no row has more than n / 3 - 1 neighbors closer than the largest
    distance, so the radius search is unsatisfiable."""
    rng = np.random.default_rng(21)
    if kind == "random":
        return rng.normal(size=(n, 5))
    if kind == "grid":
        return rng.integers(0, 3, size=(n, 3)).astype(float)
    if kind == "duplicates":
        return np.repeat(rng.normal(size=(-(-n // 3), 5)), 3, axis=0)[:n]
    return np.eye(3)[np.arange(n) % 3]


def _coords(kind, sparse, n=150):
    """The instance's fuzzy graph (CSR rows) or its own dense coordinates,
    with the dense matrix the oracle reads."""
    points = _instance(kind, n)
    if sparse:
        memberships = build_fuzzy_graph(points, 15).memberships
        return memberships, memberships.toarray()
    return points, points


def _assert_each_t_nbd_equals_oracle(coords, dense, t_nbds):
    """One preparation for ``t_nbds``: each one's weights, epsilon, fraction
    and warnings equal, byte for byte, those of a preparation for it alone
    and of the dense oracle. Returns the preparation and the messages of
    the warnings its lookups gave."""
    prepared, caught = recorded(prepare_weights, coords, t_nbds)
    assert caught == []
    messages = []
    for t in t_nbds:
        dw, caught = recorded(apply_weights, prepared, t)
        (weights, eps, fraction), expected = recorded(_dense_weights, dense, t)
        alone, caught_alone = recorded(_weights_from_coords, coords, t)
        for ref, ref_caught in ((alone, caught_alone),
                                (DensityWeights(weights, RadiusSchedule(eps), fraction),
                                 expected)):
            assert dw.weights.tobytes() == ref.weights.tobytes()
            assert dw.schedule.epsilon == ref.schedule.epsilon
            assert dw.satisfied_fraction == ref.satisfied_fraction
            assert caught == ref_caught
        messages += caught
    return prepared, messages


@pytest.mark.parametrize("kind", ["random", "grid"])
def test_pass_one_order_statistics_do_not_depend_on_the_rank_set(kind, monkeypatch):
    # One pass 1 serves every t_nbd of a tuning study: each rank's exact
    # values over the study's rank set and head width are byte-equal to a
    # pass over that rank alone at the width its own preparation takes, and
    # to the dense oracle's.
    memberships = build_fuzzy_graph(_instance(kind), 15).memberships
    n = memberships.shape[0]
    t_nbds = [3, 10, 25, 26, 70, 149, 200]
    requested = []

    def recording(screen, ranks, head):
        requested.append((ranks, head.shape))
        return _pass_one(screen, ranks, head)

    monkeypatch.setattr(weights_module, "_pass_one", recording)
    prepare_weights(memberships, t_nbds)
    assert requested == [(sorted({1, n - 1, _clamped_t_nbd(n)} | {
        t for t in t_nbds if t <= n - 1}), (n, n - 1))]

    # Also at a head of 12, where most ranks' windows lie past the head.
    dist = pairwise_distances(memberships.toarray())
    np.fill_diagonal(dist, np.inf)
    screen = _GramScreen(memberships)
    ranks = requested[0][0]
    for width in (n - 1, 12):
        together = _pass_one(screen, ranks, np.empty((n, width)))
        for t, stat in together.items():
            head = np.empty((n, min(n - 1, HEAD_MAX_WIDTH, HEAD_PER_RANK * t)))
            alone = _pass_one(screen, [t], head)[t]
            for values in (stat, alone):
                values.settle(np.ones(n, dtype=bool))
                assert values.lo.tobytes() == values.hi.tobytes()
            assert stat.hi.tobytes() == alone.hi.tobytes()
            assert stat.hi.tobytes() == _kth_neighbor_distance(dist, t).tobytes()


@pytest.mark.parametrize("kind", ["random", "grid", "clusters"])
@pytest.mark.parametrize("sparse", [True, False])
def test_one_preparation_serves_every_t_nbd(kind, sparse):
    # A duplicate t_nbd, the t > n-1 clamp and (on the clusters' own
    # coordinates) the unsatisfiable radius: each t_nbd's weights,
    # epsilon, fraction and warnings equal those of a preparation for it
    # alone and the dense oracle's, byte for byte.
    coords, dense = _coords(kind, sparse)
    prepared, messages = _assert_each_t_nbd_equals_oracle(coords, dense,
                                                          [3, 10, 10, 25, 149, 200])
    assert any("clamped" in m for m in messages)
    if kind == "clusters" and not sparse:
        assert any("unsatisfiable even at the maximum" in m for m in messages)
    with pytest.raises(ConfigError, match="not prepared"):
        apply_weights(prepared, 11)


def _screened_again(monkeypatch):
    """The rows of every ``_GramScreen.block`` call made on a row subset:
    rows pass 2 screens again and rows whose brackets settle."""
    rows = []
    block = _GramScreen.block

    def recording(self, which, out=None):
        if not isinstance(which, slice):
            rows.extend(np.asarray(which).tolist())
        return block(self, which, out)

    monkeypatch.setattr(_GramScreen, "block", recording)
    return rows


@pytest.mark.parametrize("kind", ["random", "grid", "duplicates", "clusters"])
@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("width", [None, 8])
def test_heads_give_the_dense_oracle_bytewise(kind, sparse, width, monkeypatch):
    # Pass 2 counts from each row's head of screened values. With the
    # module's widths, and with every head cut to 8 values, so that most
    # rows end inside a window and are screened again and most order
    # statistics lie past the head: the weights, epsilon, fraction and
    # warnings of every t_nbd are the dense oracle's, byte for byte.
    coords, dense = _coords(kind, sparse)
    if width is not None:
        monkeypatch.setattr(weights_module, "HEAD_MAX_WIDTH", width)
    again = _screened_again(monkeypatch)
    _assert_each_t_nbd_equals_oracle(coords, dense, [3, 10, 25, 40])
    if width is not None:
        assert len(again) > 150


@pytest.mark.parametrize("sparse", [True, False])
def test_t_nbd_above_the_head_cap_gives_the_dense_oracle(sparse, monkeypatch):
    # 600 rows and a t_nbd past HEAD_MAX_WIDTH: the heads stay capped, the
    # rank lies past every head and the rows that reach past their heads
    # are screened again.
    assert HEAD_MAX_WIDTH < 540 < 600
    coords, dense = _coords("random", sparse, n=600)
    widths = []
    pass_one = weights_module._pass_one

    def recording(screen, ranks, head):
        widths.append(head.shape[1])
        return pass_one(screen, ranks, head)

    monkeypatch.setattr(weights_module, "_pass_one", recording)
    again = _screened_again(monkeypatch)
    _assert_each_t_nbd_equals_oracle(coords, dense, [70, 540])
    assert max(widths) == HEAD_MAX_WIDTH
    assert again


@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("sparse", [True, False])
def test_the_studys_t_nbds_prepared_at_once_give_the_dense_oracle(kind, sparse):
    # The 80-trial study prepares up to 78 distinct t_nbd (3..80) at once.
    coords, dense = _coords(kind, sparse)
    _assert_each_t_nbd_equals_oracle(coords, dense, list(range(3, 81)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 40), st.booleans(), st.data())
def test_row_searches_equal_searchsorted(rows, width, grid, data):
    # The batched binary search and the window tally against np.searchsorted
    # and direct comparisons, row by row; integer values give ties.
    elements = (st.integers(0, 4).map(float) if grid
                else st.floats(0.0, 10.0, allow_subnormal=False))
    s = np.sort(data.draw(arrays(np.float64, (rows, width), elements=elements)), axis=1)
    queries = data.draw(arrays(np.float64, (rows, 3), elements=elements))
    which = np.repeat(np.arange(rows), 3)
    for right in (False, True):
        got = _count_sorted(s, which, queries.ravel(), right)
        side = "right" if right else "left"
        expected = [np.searchsorted(s[r], x, side=side) for r, x in zip(which, queries.ravel())]
        assert got.tolist() == expected
    lows = np.sort(queries[0])
    highs = lows + data.draw(st.sampled_from([0.0, 0.5, 3.0]))
    counts, near = _below(s, lows, highs)
    assert counts.tolist() == [[int(np.sum(row < low)) for low in lows] for row in s]
    held = (s[:, :, None] >= lows) & (s[:, :, None] <= highs)
    assert near.tolist() == held.any(axis=2).tolist()


def test_pass_one_evaluates_few_pairs_with_the_kernel(monkeypatch):
    # Pass 1 keeps an order statistic screened until the radius search
    # asks about a value inside its bracket; pass 2 evaluates only pairs
    # within the slack of a radius. Together they send far fewer pairs to
    # the kernel than one per row and rank.
    memberships = build_fuzzy_graph(np.random.default_rng(4).normal(size=(300, 8)),
                                    15).memberships
    n, t_nbds = memberships.shape[0], [3, 10, 25, 70]
    ranks = {1, n - 1, _clamped_t_nbd(n)} | set(t_nbds)
    pairs = []
    distances = _GramScreen.distances

    def counting(self, rows, cols):
        pairs.append(len(rows))
        return distances(self, rows, cols)

    monkeypatch.setattr(_GramScreen, "distances", counting)
    prepare_weights(memberships, t_nbds)
    assert sum(pairs) <= n * len(ranks) // 20


class TestSearchRadius:
    def test_collinear_converges_to_one_from_above(self):
        # points 0,1,2,3 with t_nbd=2 and 30% of 4 -> 2 rows needed: only at
        # radii > 1 do rows 1 and 2 each see two strict neighbors.
        m = _matrix([[0.0], [1.0], [2.0], [3.0]])
        schedule = _weights_from_coords(m, t_nbd=2).schedule
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
        schedule = _weights_from_coords(m, t_nbd=3).schedule
        assert 0.0 < schedule.epsilon <= 2e-12

    def test_impossible_t_nbd_clamped(self):
        rng = np.random.default_rng(3)
        m = _matrix(rng.normal(size=(10, 2)))
        with pytest.warns(UserWarning, match="clamped"):
            schedule = _weights_from_coords(m, t_nbd=10).schedule
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
        schedule = _weights_from_coords(m, t_nbd=5).schedule
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
        dw = _weights_from_coords(coords, t_nbd=25)
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
        # The weights run on one thread; thread counts are checked on the
        # solo || joint fan-out (test_shift.TestSoloJointFanOut).
        a = compute_empirical_weights(m, t_nbd=10, k_umap=12)
        b = compute_empirical_weights(m, t_nbd=10, k_umap=12)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.schedule.epsilon == b.schedule.epsilon

    @pytest.mark.parametrize("t_nbd", [70, 1000])
    def test_peak_memory_below_one_n_by_n(self, peak_bytes, t_nbd):
        # G stays sparse, the screen works a block of rows at a time and the
        # heads are at most HEAD_MAX_WIDTH wide, whatever t_nbd asks:
        # neither a dense G nor a distance matrix is ever formed.
        n = 1200
        points = np.random.default_rng(14).normal(size=(n, 8))
        assert peak_bytes(compute_empirical_weights, points, t_nbd, 15) < n * n * 8

    def test_satisfied_fraction_reported(self):
        rng = np.random.default_rng(77)
        m = _matrix(rng.normal(size=(50, 2)))
        dw = compute_empirical_weights(m, t_nbd=5, k_umap=10)
        assert dw.satisfied_fraction >= 0.3


class TestBisectRadiusInternals:
    def test_two_points_clamp_and_bracket_extension(self):
        # With a single pairwise distance (4), strict counting fails
        # everywhere in [d_min, d_max]; the degenerate bracket extends past
        # d_max so the search lands just above it.
        eps, t_used, _, notes = _bisect_radius(2, {1: _exact(np.array([4.0, 4.0]))},
                                               4.0, 4.0, t_nbd=70)
        assert any("clamped" in note for note in notes)
        assert 4.0 < eps <= 4.0 * (1.0 + 2e-6)
        assert t_used == 1
