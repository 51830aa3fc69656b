"""Scene generator: self-consistency, determinism, and corruption statistics."""

import dataclasses

import numpy as np
import pytest

from crossreg.errors import EmptyVisibleSetError
from crossreg.geometry import CameraIntrinsics, RigidTransform, project_points
from crossreg.matching import CorrespondenceSet, fine_match, patch_overlap
from crossreg.normals import DepthMap, depth_to_normals
from crossreg.synth import (
    Box,
    CorruptionConfig,
    Plane,
    SceneSpec,
    Sphere,
    corrupt_depth,
    generate_scene,
    render_depth,
    synthesize_features,
)

SMALL_K = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0, width=32, height=24)


class TestRenderDepth:
    def test_nearest_point_wins_pixel(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        depth, corrs = render_depth(pts, SMALL_K)
        assert depth.values[12, 16] == 1.0
        assert list(corrs.point_indices) == [1]

    def test_depth_tie_goes_to_lower_index(self):
        pts = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 1.5]])
        _, corrs = render_depth(pts, SMALL_K)
        assert list(corrs.point_indices) == [0]

    def test_behind_camera_skipped(self):
        pts = np.array([[0.0, 0.0, -1.0], [0.1, 0.0, 2.0]])
        _, corrs = render_depth(pts, SMALL_K)
        assert list(corrs.point_indices) == [1]

    def test_nothing_visible_raises(self):
        pts = np.array([[50.0, 0.0, 1.0], [0.0, 0.0, -2.0]])
        with pytest.raises(EmptyVisibleSetError):
            render_depth(pts, SMALL_K)

    def test_correspondences_in_pixel_row_order(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [rng.uniform(-0.3, 0.3, 50), rng.uniform(-0.2, 0.2, 50), rng.uniform(1, 3, 50)]
        )
        _, corrs = render_depth(pts, SMALL_K)
        pid = corrs.pixels[:, 1] * SMALL_K.width + corrs.pixels[:, 0]
        assert np.all(np.diff(pid) > 0)


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        spec = SceneSpec(point_count=500)
        a = generate_scene(spec, seed=3)
        b = generate_scene(spec, seed=3)
        np.testing.assert_array_equal(a.cloud, b.cloud)
        np.testing.assert_array_equal(a.depth.values, b.depth.values)
        np.testing.assert_array_equal(a.gt_correspondences.pixels, b.gt_correspondences.pixels)
        np.testing.assert_array_equal(a.gt_transform.rotation, b.gt_transform.rotation)

    def test_seeds_differ(self):
        spec = SceneSpec(point_count=500)
        a = generate_scene(spec, seed=3)
        b = generate_scene(spec, seed=4)
        assert not np.array_equal(a.cloud, b.cloud)

    def test_projection_and_depth_invariants(self):
        scene = generate_scene(SceneSpec(point_count=1500), seed=11)
        moved = scene.gt_transform.apply(scene.cloud[scene.gt_correspondences.point_indices])
        proj = project_points(scene.intrinsics, moved)
        gaps = np.abs(proj - scene.gt_correspondences.pixels)
        assert gaps.max() <= 0.5 + 1e-9
        for (u, v), z in zip(scene.gt_correspondences.pixels.tolist(), moved[:, 2]):
            assert abs(scene.depth.values[int(v), int(u)] - z) < 1e-6

    def test_every_gt_pair_labels_positive(self):
        scene = generate_scene(SceneSpec(point_count=1200), seed=5)
        gt = scene.gt_correspondences
        for (u, v), idx in zip(gt.pixels.tolist(), gt.point_indices.tolist()):
            (pair,) = patch_overlap(
                [(0, 0)],
                [0],
                [0],
                [(u, v)],
                [scene.depth.values[int(v), int(u)]],
                scene.cloud[[idx]],
                scene.intrinsics,
                scene.gt_transform,
            )
            assert pair.overlap_ratio == 1.0

    def test_identity_pose_matches_direct_projection(self):
        spec = SceneSpec(point_count=800, max_rotation_deg=0.0, max_translation_m=0.0)
        scene = generate_scene(spec, seed=2)
        np.testing.assert_allclose(
            scene.gt_transform.rotation, np.eye(3), atol=1e-12
        )
        proj = project_points(
            scene.intrinsics, scene.cloud[scene.gt_correspondences.point_indices]
        )
        np.testing.assert_array_equal(
            np.rint(proj), scene.gt_correspondences.pixels
        )

    def test_frontoparallel_plane_constant_depth_and_flat_normals(self):
        spec = SceneSpec(
            primitives=(Plane(center=(0.0, 0.0, 2.0), half_extents=(1.0, 0.8)),),
            point_count=30_000,
            intrinsics=SMALL_K,
            max_rotation_deg=0.0,
            max_translation_m=0.0,
        )
        scene = generate_scene(spec, seed=9)
        vals = scene.depth.values[scene.depth.valid]
        np.testing.assert_allclose(vals, 2.0, atol=1e-12)
        normals = depth_to_normals(scene.depth)
        flat = normals.normals[normals.valid]
        assert flat.shape[0] > 0
        expected = np.zeros_like(flat)
        expected[:, 2] = 1.0
        np.testing.assert_allclose(flat, expected, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(point_count=50)
        with pytest.raises(ValueError):
            SceneSpec(primitives=())

    def test_primitive_validation(self):
        with pytest.raises(ValueError):
            Plane(center=(0, 0, 2), x_axis=(2.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Box(center=(0, 0, 2), half_sizes=(0.1, -0.1, 0.1))
        with pytest.raises(ValueError):
            Sphere(center=(0, 0, 2), radius=0.0)


def with_pixels(scene, edit):
    """scene rebuilt with an edited copy of its ground-truth pixel table."""
    px = scene.gt_correspondences.pixels.copy()
    edit(px)
    corrs = CorrespondenceSet(
        px, scene.gt_correspondences.point_indices, scene.gt_correspondences.scores
    )
    return dataclasses.replace(scene, gt_correspondences=corrs)


# edits of a rendered pixel table that render_depth never emits; the last
# three keep the rows ascending, so only the bounds check can catch them
def fractional(px):
    px[1, 0] += 0.6


def repeated(px):
    px[1] = px[0]


def out_of_order(px):
    px[[0, 1]] = px[[1, 0]]


def u_past_width(px):
    px[-1, 0] = 640.0


def negative_v(px):
    px[0, 1] = -1.0


def far_v(px):
    px[-1, 1] = 1e308


class TestSceneCheck:
    @pytest.mark.parametrize(
        "edit", [fractional, repeated, out_of_order, u_past_width, negative_v, far_v]
    )
    def test_pixel_table_not_as_rendered_raises(self, edit):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        with pytest.raises(ValueError, match="gt pixel"):
            with_pixels(scene, edit)

    @pytest.mark.parametrize("row", [0, 5, -1])
    def test_gt_pixel_without_depth_raises(self, row):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        u, v = scene.gt_correspondences.pixels[row].astype(np.int64)
        values = scene.depth.values.copy()
        values[v, u] = np.nan
        with pytest.raises(ValueError, match=r"gt pixel .* each with a valid depth"):
            dataclasses.replace(scene, depth=DepthMap.from_values(values))

    def test_depth_shape_must_match_intrinsics(self):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        cropped = DepthMap.from_values(scene.depth.values[:-1])
        with pytest.raises(ValueError, match="does not match"):
            dataclasses.replace(scene, depth=cropped)


class TestCorruptDepth:
    def test_zero_config_is_identity(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=1)
        out = corrupt_depth(scene.depth, CorruptionConfig(seed=0))
        np.testing.assert_array_equal(out.values, scene.depth.values)
        np.testing.assert_array_equal(out.valid, scene.depth.valid)

    def test_deterministic(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=1)
        cfg = CorruptionConfig(gaussian_sigma_m=0.01, mask_ratio=0.2, seed=8)
        a = corrupt_depth(scene.depth, cfg)
        b = corrupt_depth(scene.depth, cfg)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_mask_fraction_on_full_map(self):
        full = DepthMap.from_values(np.full((480, 640), 2.5))
        out = corrupt_depth(full, CorruptionConfig(mask_ratio=0.4, seed=3))
        dropped = 1.0 - out.valid.mean()
        assert abs(dropped - 0.4) < 0.02

    def test_noise_std_on_large_map(self):
        full = DepthMap.from_values(np.full((480, 640), 5.0))
        out = corrupt_depth(full, CorruptionConfig(gaussian_sigma_m=0.015, seed=4))
        residuals = out.values[out.valid] - 5.0
        assert residuals.size >= 100_000
        assert abs(residuals.std() - 0.015) < 0.1 * 0.015

    def test_nonpositive_after_noise_invalidated(self):
        thin = DepthMap.from_values(np.full((50, 50), 0.001))
        out = corrupt_depth(thin, CorruptionConfig(gaussian_sigma_m=0.5, seed=5))
        assert not out.valid.all()
        assert np.all(out.values[out.valid] > 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorruptionConfig(gaussian_sigma_m=-0.1)
        with pytest.raises(ValueError):
            CorruptionConfig(mask_ratio=1.5)
        with pytest.raises(ValueError):
            CorruptionConfig(outlier_fraction=-0.2)


class TestSynthesizeFeatures:
    def setup_method(self):
        self.scene = generate_scene(SceneSpec(point_count=900), seed=6)

    def test_zero_noise_exact_pairs(self):
        f_img, f_cloud = synthesize_features(self.scene, 256, CorruptionConfig())
        idx = self.scene.gt_correspondences.point_indices
        np.testing.assert_array_equal(f_img, f_cloud[idx])
        paired = f_cloud[idx]
        diag = np.einsum("ij,ij->i", f_img, paired)
        np.testing.assert_allclose(diag, 1.0, atol=1e-12)
        cross = f_img @ paired.T
        np.fill_diagonal(cross, 0.0)
        assert np.abs(cross).max() < 0.4

    def test_deterministic(self):
        cfg = CorruptionConfig(feature_noise_sigma=0.3, outlier_fraction=0.1, seed=2)
        a_img, a_cloud = synthesize_features(self.scene, 64, cfg)
        b_img, b_cloud = synthesize_features(self.scene, 64, cfg)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_cloud, b_cloud)

    def test_rows_are_unit(self):
        cfg = CorruptionConfig(feature_noise_sigma=0.4, outlier_fraction=0.2, seed=1)
        f_img, f_cloud = synthesize_features(self.scene, 64, cfg)
        np.testing.assert_allclose(np.linalg.norm(f_img, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(f_cloud, axis=1), 1.0, atol=1e-12)

    def test_correct_match_fraction_decreases_with_noise(self):
        idx = self.scene.gt_correspondences.point_indices
        pixels = self.scene.gt_correspondences.pixels
        fractions = []
        for sigma in (0.0, 0.2, 0.5):
            cfg = CorruptionConfig(feature_noise_sigma=sigma, seed=7)
            f_img, f_cloud = synthesize_features(self.scene, 64, cfg)
            matched = fine_match(f_img, f_cloud, pixels, np.arange(f_cloud.shape[0]))
            by_pixel = {tuple(p): i for p, i in zip(pixels, idx)}
            correct = sum(
                by_pixel[tuple(p)] == i
                for p, i in zip(matched.pixels.tolist(), matched.point_indices.tolist())
            )
            fractions.append(correct / len(idx))
        assert fractions[0] == 1.0
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_all_outliers_kill_matching(self):
        cfg = CorruptionConfig(outlier_fraction=1.0, seed=3)
        f_img, f_cloud = synthesize_features(self.scene, 64, cfg)
        idx = self.scene.gt_correspondences.point_indices
        matched = fine_match(
            f_img, f_cloud, self.scene.gt_correspondences.pixels, np.arange(f_cloud.shape[0])
        )
        by_pixel = {tuple(p): i for p, i in zip(self.scene.gt_correspondences.pixels, idx)}
        correct = sum(
            by_pixel[tuple(p)] == i
            for p, i in zip(matched.pixels.tolist(), matched.point_indices.tolist())
        )
        assert correct / len(idx) < 0.05

    def test_channel_floor(self):
        with pytest.raises(ValueError):
            synthesize_features(self.scene, 3, CorruptionConfig())
