"""k-NN graph construction and attention/fusion against loop-based oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossreg.errors import ChannelMismatchError
from crossreg.graph import (
    KNN_BLOCK_ENTRIES,
    GraphAttentionParams,
    KnnGraph,
    build_knn_graph,
    gated_fusion,
    knn_indices,
    light_gat_forward,
    stable_sigmoid,
)


def brute_force_knn(points: np.ndarray, k: int) -> list[list[int]]:
    """Oracle: per-point sort of (distance, index) pairs, self excluded."""
    n = len(points)
    out = []
    for i in range(n):
        ranked = sorted(
            (float(np.linalg.norm(points[i] - points[j])), j)
            for j in range(n)
            if j != i
        )
        out.append([j for _, j in ranked[: min(k, n - 1)]])
    return out


def argsort_knn(points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the full stable argsort of every squared-distance row.

    Same distance blocks as knn_indices, read from the same constant:
    BLAS may round a dot product differently for another call shape, so
    only equal blocks give comparable distance bytes. Each row is sorted
    completely, so ties go to the smaller index by stability.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    k_eff = min(k, n - 1)
    idx = np.empty((n, k_eff), dtype=np.int64)
    dst = np.empty((n, k_eff))
    sq = np.einsum("nd,nd->n", pts, pts)
    chunk = max(1, KNN_BLOCK_ENTRIES // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (pts[start:stop] @ pts.T)
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(start, stop)
        d2[rows - start, rows] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
        idx[start:stop] = order
        dst[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return idx, dst


def assert_matches_argsort(points, k: int) -> None:
    got_idx, got_dst = knn_indices(points, k, return_distances=True)
    want_idx, want_dst = argsort_knn(points, k)
    np.testing.assert_array_equal(got_idx, want_idx)
    assert got_dst.tobytes() == want_dst.tobytes()


@st.composite
def point_sets(draw, min_n: int = 2, max_n: int = 60):
    """(N, d) points, d in 1..3, from one of several tie-heavy layouts."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    layout = draw(st.sampled_from(["uniform", "int_grid", "duplicates", "all_equal"]))
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        return rng.uniform(-1.0, 1.0, (n, d))
    if layout == "int_grid":
        # few grid values per axis: many exactly equal distances
        side = draw(st.integers(2, 6))
        return rng.integers(0, side, (n, d)).astype(np.float64)
    if layout == "duplicates":
        base = rng.uniform(-1.0, 1.0, (draw(st.integers(1, n)), d))
        return base[rng.integers(0, base.shape[0], n)]
    return np.full((n, d), rng.uniform(-1.0, 1.0))


@st.composite
def bound_stress_sets(draw, min_n: int = 2, max_n: int = 300):
    """(N, d) points, d in 1..3, laid out to defeat the k-th distance bound.

    knn_indices keeps only the entries under a bound taken from Morton-order
    neighbours plus a rounding margin; each layout attacks one of the two.
    """
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(
        st.sampled_from(["far_offset", "clusters", "ulp_duplicates", "cauchy", "grid_split"])
    )
    if layout == "far_offset":
        # the dot form's rounding, about eps * offset^2, dwarfs the spread
        offset = 10.0 ** draw(st.floats(0.0, 7.0))
        spread = 10.0 ** draw(st.floats(-6.0, 0.0))
        return offset * rng.choice([-1.0, 1.0], d) + rng.uniform(-spread, spread, (n, d))
    if layout == "clusters":
        # far-apart clusters and scattered outliers: some Morton windows
        # straddle two clusters, and an outlier's window is all far away
        centers = rng.uniform(-1e3, 1e3, (draw(st.integers(1, 6)), d))
        pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 0.1, (n, d))
        outliers = rng.random(n) < 0.05
        pts[outliers] = rng.uniform(-3e3, 3e3, (int(outliers.sum()), d))
        return pts
    if layout == "ulp_duplicates":
        base = rng.uniform(-1.0, 1.0, (draw(st.integers(1, max(1, n // 4))), d))
        pts = base[rng.integers(0, len(base), n)]
        return pts + rng.integers(-3, 4, (n, d)) * np.spacing(pts)
    if layout == "cauchy":
        return rng.standard_cauchy((n, d))
    # an even number of grid lines puts the first Morton split between
    # the middle two, so grid neighbours across it sit far apart in order;
    # the offset makes the dot form round their tied distances
    side = 2 * draw(st.integers(1, 5))
    offset = draw(st.sampled_from([0.0, 2.0**20, 2.0**26]))
    return rng.integers(0, side, (n, d)).astype(np.float64) + offset


class TestKnn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(1, 12))
            pts = rng.uniform(-1, 1, (n, 3))
            got = knn_indices(pts, k)
            expected = brute_force_knn(pts, k)
            assert got.shape == (n, min(k, n - 1))
            for i in range(n):
                assert list(got[i]) == expected[i], f"trial {trial}, node {i}"

    def test_ties_prefer_smaller_index(self):
        pts = np.zeros((5, 2))  # all identical: every distance ties at 0
        got = knn_indices(pts, 3)
        assert list(got[0]) == [1, 2, 3]
        assert list(got[2]) == [0, 1, 3]
        assert list(got[4]) == [0, 1, 2]

    def test_neighbor_count_clamped(self):
        pts = np.random.default_rng(0).uniform(0, 1, (4, 3))
        assert knn_indices(pts, 10).shape == (4, 3)

    def test_distances_returned_sorted(self):
        pts = np.random.default_rng(1).uniform(0, 1, (30, 3))
        idx, dst = knn_indices(pts, 5, return_distances=True)
        assert np.all(np.diff(dst, axis=1) >= 0)
        np.testing.assert_allclose(
            dst[3], [np.linalg.norm(pts[3] - pts[j]) for j in idx[3]], atol=1e-12
        )

    def test_graph_invariants(self):
        pts = np.random.default_rng(2).uniform(0, 1, (50, 3))
        graph = build_knn_graph(pts, 6)
        assert graph.node_count == 50
        assert graph.neighbor_count == 6
        assert not np.any(graph.neighbor_indices == np.arange(50)[:, None])

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            KnnGraph(np.zeros((3, 2)), np.array([[0], [0], [1]]))

    @given(points=point_sets(), k=st.integers(1, 12))
    def test_matches_argsort_oracle(self, points, k):
        assert_matches_argsort(points, k)

    @given(points=point_sets(max_n=12), extra=st.integers(0, 4))
    def test_k_at_or_above_n_minus_1(self, points, extra):
        k = points.shape[0] - 1 + extra
        assert_matches_argsort(points, k)
        assert knn_indices(points, k).shape == (points.shape[0], points.shape[0] - 1)

    @given(points=point_sets(min_n=2, max_n=2), k=st.integers(1, 3))
    def test_two_points(self, points, k):
        assert_matches_argsort(points, k)
        np.testing.assert_array_equal(knn_indices(points, k), [[1], [0]])

    @pytest.mark.parametrize("d", [4, 10, 63, 70])
    def test_many_dimensions(self, d):
        # past 63 axes the Morton code has no bits left, and the bound
        # still holds with every point in one cell
        rng = np.random.default_rng(d)
        for pts in (rng.normal(size=(300, d)), rng.integers(0, 3, (300, d)).astype(np.float64)):
            assert_matches_argsort(pts, 5)

    def test_pixel_grid_ties(self):
        # lifted-pixel layout: a dense integer grid where every interior
        # point has four neighbors tied at distance 1 and four at sqrt 2
        vs, us = np.mgrid[0:20, 0:30]
        pixels = np.column_stack([us.ravel(), vs.ravel()]).astype(np.float64)
        for k in (3, 4, 5, 8, 9):
            assert_matches_argsort(pixels, k)

    def test_overflowing_squares_are_rejected(self):
        # near 1e200 the squared distances are inf - inf = NaN, which once
        # listed points as their own neighbors
        pts = np.array([[1e200, 0.0], [1e200, 1.0], [1e200, 2.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            for call in (knn_indices, build_knn_graph):
                with pytest.raises(ValueError, match="overflow"):
                    call(pts, 1)

    def test_largest_safe_coordinates_pass(self):
        # 4 * |p|^2 just below the float64 maximum still ranks exactly
        big = math.sqrt(np.finfo(np.float64).max / 4.0) / math.sqrt(2.0) * 0.999
        pts = np.array([[big, big], [-big, -big], [0.0, 0.0]])
        assert_matches_argsort(pts, 2)

    @settings(max_examples=4)
    @given(points=point_sets(min_n=2001, max_n=2600), k=st.integers(1, 9))
    def test_multi_chunk_path(self, points, k):
        # a block holds fewer rows than points, so many blocks are built
        assert KNN_BLOCK_ENTRIES // points.shape[0] < points.shape[0]
        assert_matches_argsort(points, k)

    @given(points=bound_stress_sets(), k=st.integers(1, 20))
    def test_bound_stress_matches_argsort_oracle(self, points, k):
        assert_matches_argsort(points, k)

    @settings(max_examples=5)
    @given(points=bound_stress_sets(min_n=2001, max_n=2600), k=st.integers(1, 20))
    def test_bound_stress_multi_block(self, points, k):
        assert_matches_argsort(points, k)

    # the block row count equals n at n = isqrt(KNN_BLOCK_ENTRIES)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("layout", ["uniform", "int_grid"])
    def test_block_boundaries(self, offset, layout):
        n = math.isqrt(KNN_BLOCK_ENTRIES) + offset
        rows = KNN_BLOCK_ENTRIES // n
        # one block with rows to spare, one exactly full, or a full block
        # and a partial last block of 2 rows
        assert (rows > n, rows == n, n % rows == 2) == (offset < 0, offset == 0, offset > 0)
        rng = np.random.default_rng(n)
        if layout == "uniform":
            pts = rng.uniform(-1.0, 1.0, (n, 3))
        else:
            pts = rng.integers(0, 4, (n, 2)).astype(np.float64)
        for k in (1, 8, 12):
            assert_matches_argsort(pts, k)

    def test_peak_memory_stays_block_sized(self):
        # the blocks, not the (n, n) distance matrix, bound the transient:
        # 8000 points once took 92 MB at peak
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (8000, 3))
        tracemalloc.start()
        try:
            knn_indices(pts, 8, return_distances=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            knn_indices(np.zeros((1, 3)), 1)


class TestAttention:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(23)
        n, k, c = 7, 3, 4
        pts = rng.uniform(0, 1, (n, 2))
        feats = rng.standard_normal((n, c))
        params = GraphAttentionParams.initialize(c, seed=5)
        graph = build_knn_graph(pts, k)
        got = light_gat_forward(graph, feats, params)

        # oracle: plain python loops, math.exp softmax
        expected = np.zeros((n, c))
        for i in range(n):
            qi = params.query_proj @ feats[i]
            raw = []
            for j in graph.neighbor_indices[i]:
                kj = params.key_proj @ feats[j]
                raw.append(float(qi @ kj) / math.sqrt(c))
            m = max(raw)
            ws = [math.exp(r - m) for r in raw]
            total = sum(ws)
            for w, j in zip(ws, graph.neighbor_indices[i]):
                expected[i] += (w / total) * (params.value_proj @ feats[j])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_identical_features_pass_through_value_proj(self):
        # all rows equal: attention output is V f regardless of weights
        rng = np.random.default_rng(3)
        f0 = rng.standard_normal(6)
        feats = np.tile(f0, (10, 1))
        params = GraphAttentionParams.initialize(6, seed=9)
        graph = build_knn_graph(rng.uniform(0, 1, (10, 3)), 4)
        out = light_gat_forward(graph, feats, params)
        np.testing.assert_allclose(out, np.tile(params.value_proj @ f0, (10, 1)), atol=1e-12)

    def test_output_in_value_convex_hull(self):
        # with V = I the output of each node is a convex combination of
        # neighbor features, so per-channel bounds hold
        rng = np.random.default_rng(4)
        feats = rng.uniform(-1, 1, (20, 5))
        params = GraphAttentionParams.initialize(5, seed=1).replace(value_proj=np.eye(5))
        graph = build_knn_graph(rng.uniform(0, 1, (20, 2)), 6)
        out = light_gat_forward(graph, feats, params)
        neigh_feats = feats[graph.neighbor_indices]
        assert np.all(out <= neigh_feats.max(axis=1) + 1e-12)
        assert np.all(out >= neigh_feats.min(axis=1) - 1e-12)

    def test_channel_mismatch_rejected(self):
        params = GraphAttentionParams.initialize(4, seed=0)
        graph = build_knn_graph(np.random.default_rng(0).uniform(0, 1, (5, 2)), 2)
        with pytest.raises(ChannelMismatchError):
            light_gat_forward(graph, np.zeros((5, 3)), params)


class TestFusion:
    def test_zero_gate_params_give_midpoint(self):
        c = 4
        params = GraphAttentionParams.initialize(c, seed=0).replace(
            gate_w1=np.zeros((c, 2 * c)),
            gate_b1=np.zeros(c),
            gate_w2=np.zeros((c, c)),
            gate_b2=np.zeros(c),
        )
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, c))
        b = rng.standard_normal((6, c))
        np.testing.assert_allclose(gated_fusion(a, b, params), 0.5 * (a + b), atol=1e-12)

    def test_large_negative_bias_keeps_original(self):
        c = 3
        params = GraphAttentionParams.initialize(c, seed=0).replace(
            gate_w1=np.zeros((c, 2 * c)),
            gate_b1=np.zeros(c),
            gate_w2=np.zeros((c, c)),
            gate_b2=np.full(c, -1000.0),
        )
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, c))
        b = rng.standard_normal((5, c))
        np.testing.assert_array_equal(gated_fusion(a, b, params), a)

    def test_large_positive_bias_keeps_refined(self):
        c = 3
        params = GraphAttentionParams.initialize(c, seed=0).replace(
            gate_w1=np.zeros((c, 2 * c)),
            gate_b1=np.zeros(c),
            gate_w2=np.zeros((c, c)),
            gate_b2=np.full(c, 1000.0),
        )
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, c))
        b = rng.standard_normal((5, c))
        np.testing.assert_array_equal(gated_fusion(a, b, params), b)

    def test_sigmoid_saturates_exactly(self):
        assert stable_sigmoid(np.array([-1000.0]))[0] == 0.0
        assert stable_sigmoid(np.array([1000.0]))[0] == 1.0
        assert stable_sigmoid(np.array([0.0]))[0] == 0.5


class TestParams:
    def test_seed_determinism(self):
        a = GraphAttentionParams.initialize(8, seed=42)
        b = GraphAttentionParams.initialize(8, seed=42)
        c = GraphAttentionParams.initialize(8, seed=43)
        np.testing.assert_array_equal(a.query_proj, b.query_proj)
        np.testing.assert_array_equal(a.gate_b2, b.gate_b2)
        assert not np.array_equal(a.query_proj, c.query_proj)

    def test_init_bounds(self):
        params = GraphAttentionParams.initialize(16, seed=7)
        bound = 1.0 / 4.0
        for arr in (params.query_proj, params.key_proj, params.value_proj,
                    params.gate_w1, params.gate_b1, params.gate_w2, params.gate_b2):
            assert np.all(np.abs(arr) <= bound)

    def test_shapes(self):
        params = GraphAttentionParams.initialize(5, seed=1)
        assert params.query_proj.shape == (5, 5)
        assert params.gate_w1.shape == (5, 10)
        assert params.gate_b1.shape == (5,)
