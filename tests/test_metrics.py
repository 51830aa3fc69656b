"""Evaluation metric oracles: frozen fixtures plus scalar-loop references."""

import math

import numpy as np
import pytest

from crossreg.errors import (
    EmptyCorrespondencesError,
    EmptySampleError,
    InvalidRotationError,
    MissingDepthError,
)
from crossreg.geometry import (
    CameraIntrinsics,
    RigidTransform,
    rotation_from_axis_angle,
)
from crossreg.matching import CorrespondenceSet, PatchPair
from crossreg.metrics import (
    SceneEvaluation,
    euler_xyz,
    feature_matching_recall,
    inlier_ratio,
    patch_inlier_ratio,
    registration_recall,
    registration_rmse,
    relative_rotation_error,
    relative_translation_error,
)
from crossreg.normals import DepthMap

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48)


def rot_x(a: float) -> np.ndarray:
    return rotation_from_axis_angle(np.array([a, 0.0, 0.0]))


def rot_y(a: float) -> np.ndarray:
    return rotation_from_axis_angle(np.array([0.0, a, 0.0]))


def rot_z(a: float) -> np.ndarray:
    return rotation_from_axis_angle(np.array([0.0, 0.0, a]))


def lift(u: float, v: float, depth: float) -> np.ndarray:
    """Oracle: the camera-frame point K sees at pixel (u, v) and depth."""
    return np.array([(u - K.cx) * depth / K.fx, (v - K.cy) * depth / K.fy, depth])


def exact_scene(n: int = 10, seed: int = 0):
    """Correspondences whose lifted pixels coincide with transformed points."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis *= 0.3 / np.linalg.norm(axis)
    gt = RigidTransform(rotation_from_axis_angle(axis), rng.uniform(-0.2, 0.2, 3))
    depth_vals = np.full((K.height, K.width), np.nan)
    pixels = np.empty((n, 2))
    cloud_cam = np.empty((n, 3))
    taken = set()
    k = 0
    while k < n:
        u, v = rng.integers(2, K.width - 2), rng.integers(2, K.height - 2)
        if (u, v) in taken:
            continue
        taken.add((u, v))
        d = float(rng.uniform(1.0, 3.0))
        depth_vals[v, u] = d
        cloud_cam[k] = lift(float(u), float(v), d)
        pixels[k] = (u, v)
        k += 1
    cloud = gt.inverse().apply(cloud_cam)
    corrs = CorrespondenceSet(pixels, np.arange(n), np.ones(n))
    return corrs, cloud, DepthMap.from_values(depth_vals), gt


class TestInlierRatio:
    def test_all_exact_is_one(self):
        corrs, cloud, depth, gt = exact_scene()
        assert inlier_ratio(corrs, cloud, depth, K, gt, tau1=0.05) == 1.0

    def test_half_displaced_is_half(self):
        corrs, cloud, depth, gt = exact_scene(n=10)
        bad = cloud.copy()
        bad[:5] += gt.rotation.T @ np.array([0.0, 0.0, 1.0])
        assert inlier_ratio(corrs, bad, depth, K, gt, tau1=0.05) == 0.5

    def test_zero_threshold_is_zero(self):
        corrs, cloud, depth, gt = exact_scene()
        assert inlier_ratio(corrs, cloud, depth, K, gt, tau1=0.0) == 0.0

    def test_matches_scalar_oracle(self):
        corrs, cloud, depth, gt = exact_scene(n=20, seed=3)
        jit = cloud + np.random.default_rng(4).normal(0, 0.03, cloud.shape)
        got = inlier_ratio(corrs, jit, depth, K, gt, tau1=0.05)
        hits = 0
        for (u, v), idx in zip(corrs.pixels.tolist(), corrs.point_indices.tolist()):
            lifted = lift(u, v, depth.values[int(v), int(u)])
            if np.linalg.norm(gt.apply(jit[idx]) - lifted) < 0.05:
                hits += 1
        assert got == hits / 20

    def test_monotone_in_threshold(self):
        corrs, cloud, depth, gt = exact_scene(n=15, seed=7)
        jit = cloud + np.random.default_rng(8).normal(0, 0.05, cloud.shape)
        vals = [
            inlier_ratio(corrs, jit, depth, K, gt, tau1=t)
            for t in (0.01, 0.03, 0.05, 0.1, 0.5)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_empty_raises(self):
        _, cloud, depth, gt = exact_scene()
        with pytest.raises(EmptyCorrespondencesError):
            inlier_ratio(CorrespondenceSet.empty(), cloud, depth, K, gt)

    def test_invalid_depth_raises(self):
        corrs, cloud, depth, gt = exact_scene()
        holes = depth.values.copy()
        u, v = corrs.pixels[0]
        holes[int(v), int(u)] = np.nan
        with pytest.raises(MissingDepthError):
            inlier_ratio(corrs, cloud, DepthMap.from_values(holes), K, gt)

    @pytest.mark.parametrize(
        "pixel, message",
        [
            ((0.0, 0.0), r"^no valid depth at pixel \(0\.0, 0\.0\)$"),
            ((-5.0, 1.0), r"^pixel \(-5\.0, 1\.0\) outside the depth map$"),
        ],
        ids=["no_depth", "off_the_map"],
    )
    def test_missing_depth_names_the_pixel_in_plain_floats(self, pixel, message):
        corrs, cloud, depth, gt = exact_scene()
        edited = corrs.pixels.copy()
        edited[0] = pixel
        moved = CorrespondenceSet(edited, corrs.point_indices, corrs.scores)
        with pytest.raises(MissingDepthError, match=message):
            inlier_ratio(moved, cloud, depth, K, gt)


class TestRecalls:
    def test_fmr_counts_strictly_above(self):
        assert feature_matching_recall(np.array([0.05, 0.15]), tau2=0.1) == 0.5
        assert feature_matching_recall(np.array([0.5, 0.5, 0.5]), tau2=0.1) == 1.0
        assert feature_matching_recall(np.array([0.1, 0.1]), tau2=0.1) == 0.0

    def test_rr_counts_strictly_below(self):
        assert registration_recall(np.array([0.05, 0.15]), tau3=0.1) == 0.5
        assert registration_recall(np.zeros(4), tau3=0.1) == 1.0
        assert registration_recall(np.ones(4), tau3=0.1) == 0.0
        assert registration_recall(np.array([0.1]), tau3=0.1) == 0.0

    def test_rr_counts_unregistered_scene_as_miss(self):
        assert registration_recall([0.05, math.inf], tau3=0.1) == 0.5
        assert registration_recall([math.inf], tau3=0.1) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rr_rejects_nan_and_negative_inf(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            registration_recall([0.05, bad], tau3=0.1)

    def test_rr_monotone_in_threshold(self):
        rmses = np.array([0.02, 0.08, 0.12, 0.3])
        vals = [registration_recall(rmses, tau3=t) for t in (0.01, 0.05, 0.1, 0.2, 1.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            feature_matching_recall(np.array([]))
        with pytest.raises(EmptySampleError):
            registration_recall(np.array([]))


class TestRegistrationRmse:
    def test_identical_transforms_zero(self):
        cloud = np.random.default_rng(0).normal(size=(30, 3))
        t = RigidTransform(rot_z(0.3), np.array([0.1, -0.2, 0.5]))
        assert registration_rmse(cloud, t, t) == 0.0

    def test_pure_translation_offset(self):
        cloud = np.random.default_rng(1).normal(size=(25, 3))
        gt = RigidTransform(rot_x(0.2), np.array([0.0, 0.0, 1.0]))
        d = np.array([0.3, -0.4, 0.0])
        est = RigidTransform(gt.rotation, gt.translation + d)
        assert registration_rmse(cloud, est, gt) == pytest.approx(0.5, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        cloud = rng.normal(size=(40, 3))
        gt = RigidTransform(rot_y(0.4), rng.normal(size=3))
        est = RigidTransform(rot_z(-0.25) @ rot_x(0.1), rng.normal(size=3))
        total = 0.0
        for p in cloud:
            total += float(np.sum((est.apply(p) - gt.apply(p)) ** 2))
        expected = math.sqrt(total / 40)
        assert registration_rmse(cloud, est, gt) == pytest.approx(expected, abs=1e-12)

    def test_empty_cloud_raises(self):
        t = RigidTransform.identity()
        with pytest.raises(EmptySampleError):
            registration_rmse(np.zeros((0, 3)), t, t)


class TestPatchInlierRatio:
    def test_mixed_overlaps(self):
        pairs = [
            PatchPair(0, 0, overlap_2d=0.2, overlap_3d=0.9),
            PatchPair(1, 1, overlap_2d=0.4, overlap_3d=0.6),
        ]
        assert patch_inlier_ratio(pairs, threshold=0.3) == 0.5

    def test_boundary_is_strict(self):
        pairs = [PatchPair(0, 0, overlap_2d=0.3, overlap_3d=1.0)]
        assert patch_inlier_ratio(pairs, threshold=0.3) == 0.0

    def test_all_and_none(self):
        full = [PatchPair(0, 0, 1.0, 1.0), PatchPair(1, 1, 1.0, 1.0)]
        none = [PatchPair(0, 0, 0.0, 0.0)]
        assert patch_inlier_ratio(full) == 1.0
        assert patch_inlier_ratio(none) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            patch_inlier_ratio([])


def compose_euler_xyz(rx: float, ry: float, rz: float) -> np.ndarray:
    return rot_x(rx) @ rot_y(ry) @ rot_z(rz)


class TestEulerAndRotationError:
    def test_decompose_recompose_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis *= rng.uniform(0.05, 2.5) / np.linalg.norm(axis)
            m = rotation_from_axis_angle(axis)
            rx, ry, rz = euler_xyz(m)
            np.testing.assert_allclose(compose_euler_xyz(rx, ry, rz), m, atol=1e-9)

    def test_identity_zero(self):
        assert relative_rotation_error(np.eye(3), np.eye(3)) == 0.0

    def test_single_axis_offsets(self):
        five = math.radians(5.0)
        base = rot_y(0.7)
        for offset in (rot_x(five), rot_y(five), rot_z(five)):
            est = base @ offset
            assert relative_rotation_error(base, est) == pytest.approx(5.0, abs=1e-9)

    def test_single_axis_symmetry(self):
        a = rot_z(0.4)
        b = rot_z(0.9)
        assert relative_rotation_error(a, b) == pytest.approx(
            relative_rotation_error(b, a), abs=1e-9
        )

    def test_gimbal_lock_finite(self):
        gt = np.eye(3)
        est = rot_x(0.3) @ rot_y(math.pi / 2) @ rot_z(0.2)
        val = relative_rotation_error(gt, est)
        assert math.isfinite(val) and val >= 0.0
        rx, ry, rz = euler_xyz(est)
        np.testing.assert_allclose(compose_euler_xyz(rx, ry, rz), est, atol=1e-9)

    def test_rejects_what_a_rigid_transform_rejects(self):
        # off by 5e-6 in scale: within allclose's default rtol, far past ROTATION_TOL
        scaled = rot_y(0.7) * (1.0 + 5e-6)
        with pytest.raises(InvalidRotationError):
            RigidTransform(scaled, np.zeros(3))
        with pytest.raises(InvalidRotationError):
            euler_xyz(scaled)
        with pytest.raises(InvalidRotationError, match="est_rotation"):
            relative_rotation_error(np.eye(3), scaled)
        with pytest.raises(InvalidRotationError, match="gt_rotation"):
            relative_rotation_error(scaled, np.eye(3))

    def test_rejects_non_rotation(self):
        with pytest.raises(InvalidRotationError):
            relative_rotation_error(np.eye(3), np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(InvalidRotationError):
            relative_rotation_error(np.eye(3) * 2.0, np.eye(3))


class TestTranslationError:
    def test_three_four_five(self):
        assert relative_translation_error(
            np.zeros(3), np.array([3.0, 4.0, 0.0])
        ) == pytest.approx(5.0, abs=1e-15)

    def test_equal_zero(self):
        t = np.array([0.1, 0.2, 0.3])
        assert relative_translation_error(t, t) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=3), rng.normal(size=3)
        expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert relative_translation_error(a, b) == pytest.approx(expected, abs=1e-15)


class TestSceneEvaluation:
    def test_fields_and_flags(self):
        ev = SceneEvaluation(
            inlier_ratio=0.8,
            fmr_flag=True,
            rmse_m=0.01,
            rr_flag=True,
            pir=0.9,
            rre_deg=0.05,
            rte_m=0.001,
        )
        assert ev.inlier_ratio == 0.8 and ev.rr_flag

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SceneEvaluation(1.2, True, 0.0, True, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            SceneEvaluation(0.5, True, -0.1, True, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            SceneEvaluation(0.5, True, 0.0, True, 0.5, -1.0, 0.0)
