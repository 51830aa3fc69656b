"""Matching primitives against brute-force oracles and hand geometry."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossreg.errors import ChannelMismatchError, EmptyPatchError
from crossreg.geometry import (
    CameraIntrinsics,
    RigidTransform,
    rotation_from_axis_angle,
)
from crossreg.matching import (
    POS_2D_PX,
    POS_3D_M,
    CorrespondenceSet,
    coarse_match,
    cosine_score_map,
    fine_match,
    patch_overlap,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def oracle_coarse(scores: np.ndarray, top_k: int) -> list[tuple[int, int, float]]:
    """Mutual top-k by explicit per-row/per-column sorted lists."""
    n, m = scores.shape
    row_top = [
        set(sorted(range(m), key=lambda j: (-scores[i, j], j))[: min(top_k, m)])
        for i in range(n)
    ]
    col_top = [
        set(sorted(range(n), key=lambda i: (-scores[i, j], i))[: min(top_k, n)])
        for j in range(m)
    ]
    pairs = [
        (i, j, float(scores[i, j]))
        for i in range(n)
        for j in range(m)
        if j in row_top[i] and i in col_top[j]
    ]
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    return pairs


def positive_pair(pixel, depth: float, transformed, intrinsics) -> bool:
    """Scalar oracle of the positive-pair rule: 3D gap < POS_3D_M and pixel gap
    < POS_2D_PX, both strict. A pixel without valid depth touches nothing, and
    a point at or behind the camera plane has an infinite pixel gap."""
    if not math.isfinite(depth) or depth <= 0.0:
        return False
    u, v = pixel
    x, y, z = transformed
    lifted = (
        (u - intrinsics.cx) * depth / intrinsics.fx,
        (v - intrinsics.cy) * depth / intrinsics.fy,
        depth,
    )
    d3 = math.sqrt(sum((a - b) * (a - b) for a, b in zip(lifted, (x, y, z))))
    if z > 0.0:
        pu = intrinsics.fx * x / z + intrinsics.cx
        pv = intrinsics.fy * y / z + intrinsics.cy
        d2 = float(np.hypot(pu - u, pv - v))
    else:
        d2 = math.inf
    return d3 < POS_3D_M and d2 < POS_2D_PX


def oracle_overlap(pixels, depths, points, intrinsics, gt_transform) -> tuple[float, float]:
    # the same batch transform patch_overlap applies, so only the rule differs
    transformed = gt_transform.apply(points).tolist()
    hit = [
        [positive_pair(p, d, t, intrinsics) for t in transformed]
        for p, d in zip(pixels.tolist(), depths.tolist())
    ]
    overlap_2d = sum(any(row) for row in hit) / len(hit)
    overlap_3d = sum(any(col) for col in zip(*hit)) / len(transformed)
    return overlap_2d, overlap_3d


def pinhole(point) -> tuple[float, float]:
    """Oracle: the pixel K projects a camera-frame point (z > 0) to."""
    x, y, z = point
    return K.fx * x / z + K.cx, K.fy * y / z + K.cy


def single_pair_overlap(pixel, depth: float, point, gt_transform=None) -> bool:
    """Whether one pixel and one point form a positive pair, via patch_overlap."""
    pair = patch_overlap(
        0, 0, np.array([pixel]), np.array([depth]), np.array([point]), K,
        gt_transform or IDENTITY,
    )
    return pair.overlap_ratio == 1.0


def oracle_fine(scores: np.ndarray, min_score: float) -> list[tuple[int, int]]:
    kept = []
    for i in range(scores.shape[0]):
        j = min(
            range(scores.shape[1]), key=lambda jj: (-scores[i, jj], jj)
        )
        i_back = min(range(scores.shape[0]), key=lambda ii: (-scores[ii, j], ii))
        if i_back == i and scores[i, j] >= min_score:
            kept.append((i, j))
    return kept


def tie_rich_values():
    """Integers (exact ties everywhere) or two-decimal values in [-1, 1]."""
    return st.one_of(
        st.integers(-2, 2).map(float),
        st.integers(-100, 100).map(lambda v: v / 100.0),
    )


@st.composite
def score_maps(draw):
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    if draw(st.booleans()):  # integer-valued: ties in nearly every row
        return draw(hnp.arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
    return draw(hnp.arrays(np.float64, shape, elements=tie_rich_values()))


@st.composite
def fine_inputs(draw):
    """Image and cloud features plus a score floor.

    Half the draws use signed one-hot or zero rows, whose cosine score
    map is integer-valued (-1, 0 or 1), so argmax ties are the rule.
    """
    m_img = draw(st.integers(1, 9))
    m_cloud = draw(st.integers(1, 9))
    c = draw(st.integers(2, 5))
    if draw(st.booleans()):
        def rows(count):
            axes = draw(hnp.arrays(np.int64, count, elements=st.integers(0, c - 1)))
            signs = draw(hnp.arrays(
                np.float64, count, elements=st.sampled_from([-1.0, 0.0, 1.0])
            ))
            feats = np.zeros((count, c))
            feats[np.arange(count), axes] = signs
            return feats
        f_img, f_cloud = rows(m_img), rows(m_cloud)
    else:
        f_img = draw(hnp.arrays(np.float64, (m_img, c), elements=tie_rich_values()))
        f_cloud = draw(hnp.arrays(np.float64, (m_cloud, c), elements=tie_rich_values()))
    floor = draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)))
    return f_img, f_cloud, floor


class TestScoreMap:
    def test_entries_match_cosine_loops(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((9, 5))
        s = cosine_score_map(a, b)
        assert s.shape == (6, 9)
        for i in range(6):
            for j in range(9):
                expected = float(
                    a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                )
                assert abs(s[i, j] - expected) < 1e-12

    def test_zero_norm_rows_score_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        s = cosine_score_map(a, b)
        np.testing.assert_array_equal(s[0], 0.0)
        np.testing.assert_array_equal(s[:, 1], 0.0)
        assert s[1, 0] == 1.0

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatchError):
            cosine_score_map(np.zeros((2, 3)), np.zeros((2, 4)))


class TestCoarseMatch:
    def test_frozen_two_by_two(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert coarse_match(scores, 1) == [(0, 0, 0.9), (1, 1, 0.8)]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 12))
            k = int(rng.integers(1, 5))
            scores = rng.uniform(-1, 1, (n, m))
            assert coarse_match(scores, k) == oracle_coarse(scores, k)

    def test_ties_prefer_smaller_index(self):
        scores = np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.2]])
        # every entry ties at 0.5; stable top-1 keeps column 0 for rows,
        # row 0 for columns, so only (0, 0) is mutual
        assert coarse_match(scores, 1) == [(0, 0, 0.5)]
        assert coarse_match(scores, 1) == oracle_coarse(scores, 1)

    @given(score_maps(), st.integers(1, 10))
    def test_matches_loop_oracle(self, scores, top_k):
        assert coarse_match(scores, top_k) == oracle_coarse(scores, top_k)

    def test_mutuality_required(self):
        # row 0 prefers column 1, but column 1 prefers row 1
        scores = np.array([[0.0, 0.6], [0.1, 0.9]])
        assert coarse_match(scores, 1) == [(1, 1, 0.9)]


class TestFineMatch:
    def test_diagonal_dominant(self):
        feats = np.eye(4)
        pix = np.arange(8, dtype=np.float64).reshape(4, 2)
        idx = np.array([10, 11, 12, 13])
        corrs = fine_match(feats, feats, pix, idx)
        assert len(corrs) == 4
        np.testing.assert_array_equal(corrs.point_indices, idx)
        np.testing.assert_array_equal(corrs.scores, 1.0)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            mi = int(rng.integers(1, 15))
            mc = int(rng.integers(1, 15))
            c = int(rng.integers(2, 6))
            f_img = rng.standard_normal((mi, c))
            f_cloud = rng.standard_normal((mc, c))
            floor = float(rng.uniform(-0.2, 0.4))
            pix = rng.uniform(0, 100, (mi, 2))
            idx = np.arange(mc)
            got = fine_match(f_img, f_cloud, pix, idx, min_score=floor)
            scores = cosine_score_map(f_img, f_cloud)
            expected = oracle_fine(scores, floor)
            assert len(got) == len(expected)
            rows = [i for i, _ in expected]
            np.testing.assert_array_equal(got.point_indices, [j for _, j in expected])
            np.testing.assert_array_equal(got.pixels, pix[rows].reshape(-1, 2))

    @given(fine_inputs())
    def test_matches_loop_oracle(self, inputs):
        f_img, f_cloud, floor = inputs
        pix = np.column_stack([np.arange(f_img.shape[0]), np.zeros(f_img.shape[0])])
        idx = 3 * np.arange(f_cloud.shape[0]) + 1
        got = fine_match(f_img, f_cloud, pix, idx, min_score=floor)
        scores = cosine_score_map(f_img, f_cloud)
        expected = oracle_fine(scores, floor)
        rows = [i for i, _ in expected]
        cols = [j for _, j in expected]
        assert got.pixels.tobytes() == pix[rows].reshape(-1, 2).tobytes()
        assert got.point_indices.tolist() == idx[cols].tolist()
        assert got.scores.tobytes() == scores[rows, cols].tobytes()

    def test_min_score_floor(self):
        f_img = np.array([[1.0, 0.0], [0.6, 0.8]])
        f_cloud = np.array([[1.0, 0.0], [0.0, 1.0]])
        all_pairs = fine_match(f_img, f_cloud, np.zeros((2, 2)), np.array([0, 1]))
        assert len(all_pairs) == 2
        floored = fine_match(
            f_img, f_cloud, np.zeros((2, 2)), np.array([0, 1]), min_score=0.9
        )
        assert len(floored) == 1
        assert floored.point_indices[0] == 0

    def test_empty_inputs(self):
        out = fine_match(
            np.zeros((0, 3)), np.zeros((4, 3)), np.zeros((0, 2)), np.arange(4)
        )
        assert len(out) == 0


class TestLabels:
    """The positive-pair rule, one pixel and one point at a time."""

    def test_exact_match_positive(self):
        point = [0.1, -0.05, 2.0]
        assert single_pair_overlap(pinhole(point), 2.0, point)

    def test_pixel_gap_buckets(self):
        point = [0.0, 0.0, 2.0]  # projects to the principal point
        for du, expected in [(7.9, True), (9.0, False), (12.1, False)]:
            # the 3D gap stays under POS_3D_M: lifting at the point's depth
            assert single_pair_overlap((320.0 + du, 240.0), 2.0, point) == expected, du

    def test_depth_gap_buckets(self):
        point = [0.0, 0.0, 2.0]
        for depth, expected in [(2.0, True), (2.0375, False), (2.09, False), (2.2, False)]:
            assert single_pair_overlap((320.0, 240.0), depth, point) == expected, depth

    def test_boundaries_are_strict(self):
        # gaps that land exactly on the constants: 0.075 - 0.0375 and 2 * 0.0375
        # are exact, and the pixel gap is exactly 8
        assert 2 * POS_3D_M == 0.075 and POS_2D_PX == 8.0
        on_axis = [0.0, 0.0, POS_3D_M]
        assert not single_pair_overlap((320.0, 240.0), 0.075, on_axis)
        assert single_pair_overlap((320.0, 240.0), np.nextafter(0.075, 0.0), on_axis)
        assert not single_pair_overlap((328.0, 240.0), 2.0, [0.0, 0.0, 2.0])
        assert single_pair_overlap((327.999, 240.0), 2.0, [0.0, 0.0, 2.0])

    def test_point_behind_camera_is_negative(self):
        for z in (-1.0, 0.0):
            assert not single_pair_overlap((320.0, 240.0), 2.0, [0.0, 0.0, z])

    def test_respects_gt_transform(self):
        # the gt transform moves the point onto the pixel's ray
        t = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0]))
        assert single_pair_overlap((320.0, 240.0), 2.0, [0.0, 0.0, 1.0], t)
        assert not single_pair_overlap((320.0, 240.0), 2.0, [0.0, 0.0, 1.0])


_PIXEL = st.sampled_from([(320, 240), (328, 240)]) | st.tuples(
    st.integers(312, 328), st.integers(236, 244)
)
_DEPTH = st.sampled_from([0.075, 2.0, math.nan, math.inf, 0.0, -1.0]) | st.floats(0.01, 3.0)
_TRANSFORM = st.sampled_from([
    IDENTITY,
    RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0])),
    RigidTransform(rotation_from_axis_angle([0.0, 0.01, 0.0]), np.array([0.1, 0.0, 0.0])),
])


@st.composite
def _patch(draw):
    """Pixels with depths, and camera-frame points planted near their lifts.

    A point sits on the ray of a pixel shifted by du px, at that pixel's
    depth plus dz, or on or behind the camera plane.
    """
    pixels = draw(st.lists(_PIXEL, min_size=1, max_size=5))
    depths = [draw(_DEPTH) for _ in pixels]
    points = []
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, len(pixels) - 1))
        u, v = pixels[i]
        du = draw(st.sampled_from([0, -8]) | st.integers(-12, 12))
        dz = draw(st.sampled_from([0.0, -POS_3D_M]) | st.floats(-0.06, 0.06))
        base = depths[i] if math.isfinite(depths[i]) and depths[i] > 0.0 else 2.0
        z = draw(st.sampled_from([base + dz, base + dz, -1.0, 0.0]))
        points.append(((u + du - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z))
    return np.array(pixels, dtype=np.float64), np.array(depths), np.array(points)


# Pairs exactly on each gate and one step inside it: (320, 240) lifted at
# 0.075 is POS_3D_M from (0, 0, POS_3D_M); (328, 240) is 8 px from the
# projection of (0, 0, 2) while their 3D gap is 0.032.
_ON_GATES = (
    np.array([[320.0, 240.0], [328.0, 240.0], [320.0, 240.0], [327.999, 240.0]]),
    np.array([0.075, 2.0, np.nextafter(0.075, 0.0), 2.0]),
    np.array([[0.0, 0.0, POS_3D_M], [0.0, 0.0, 2.0]]),
)


class TestPatchOverlapOracle:
    @example(patch=tuple(a[:2] for a in _ON_GATES), gt_transform=IDENTITY)
    @example(patch=(_ON_GATES[0][2:], _ON_GATES[1][2:], _ON_GATES[2]), gt_transform=IDENTITY)
    @given(patch=_patch(), gt_transform=_TRANSFORM)
    def test_matches_scalar_positive_rule(self, patch, gt_transform):
        pix, dep, cam_points = patch
        pts = gt_transform.inverse().apply(cam_points)
        pair = patch_overlap(0, 0, pix, dep, pts, K, gt_transform)
        assert (pair.overlap_2d, pair.overlap_3d) == oracle_overlap(
            pix, dep, pts, K, gt_transform
        )


class TestPatchOverlap:
    def test_half_overlap_hand_case(self):
        points = np.array([[0.0, 0.0, 2.0], [0.2, 0.0, 2.0]])
        pix = np.array(
            [
                list(pinhole(points[0])),
                list(pinhole(points[1])),
                [50.0, 50.0],
                [60.0, 400.0],
            ]
        )
        depths = np.array([2.0, 2.0, 2.0, 2.0])
        pair = patch_overlap(3, 7, pix, depths, points, K, IDENTITY)
        assert pair.img_patch_id == 3 and pair.cloud_patch_id == 7
        assert pair.overlap_2d == 0.5  # 2 of 4 pixels touch a point
        assert pair.overlap_3d == 1.0  # both points touched
        assert pair.overlap_ratio == 0.5

    def test_invalid_depth_pixels_count_in_denominator(self):
        points = np.array([[0.0, 0.0, 2.0]])
        u, v = pinhole(points[0])
        pix = np.array([[u, v], [u, v]])
        depths = np.array([2.0, np.nan])
        pair = patch_overlap(0, 0, pix, depths, points, K, IDENTITY)
        assert pair.overlap_2d == 0.5
        assert pair.overlap_3d == 1.0

    def test_empty_patch_raises(self):
        with pytest.raises(EmptyPatchError):
            patch_overlap(
                0, 0, np.zeros((0, 2)), np.zeros(0), np.array([[0.0, 0.0, 1.0]]), K, IDENTITY
            )

    def test_disjoint_patches_zero(self):
        points = np.array([[5.0, 5.0, 2.0]])  # projects far outside the patch
        pix = np.array([[320.0, 240.0]])
        pair = patch_overlap(0, 0, pix, np.array([2.0]), points, K, IDENTITY)
        assert pair.overlap_ratio == 0.0


class TestCorrespondenceSet:
    def test_columns_and_length(self):
        cs = CorrespondenceSet(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5, 6]), np.array([0.9, 0.8])
        )
        assert len(cs) == 2
        assert cs.pixels.dtype == np.float64 and cs.point_indices.dtype == np.int64
        assert (cs.pixels[0].tolist(), int(cs.point_indices[0]), float(cs.scores[0])) == (
            [1.0, 2.0], 5, 0.9
        )

    def test_rejects_misaligned_columns(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((2, 2)), np.zeros(3, dtype=int), np.zeros(2))
