"""Scene generator: self-consistency, determinism, and corruption statistics."""

import dataclasses

import numpy as np
import pytest

from crossreg.errors import EmptyVisibleSetError
from crossreg.geometry import CameraIntrinsics, RigidTransform, project_points
from crossreg.matching import fine_match, patch_overlap
from crossreg.normals import depth_to_normals
from crossreg.synth import (
    Box,
    CorruptionConfig,
    PixelTable,
    Plane,
    STREAM_TAGS,
    SceneSpec,
    Sphere,
    base_features,
    corrupt_depth,
    generate_scene,
    render_depth,
    synthesize_features,
)

SMALL_K = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0, width=32, height=24)


class TestRenderDepth:
    def test_nearest_point_wins_pixel(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        table = render_depth(pts, SMALL_K)
        assert table.pixels.tolist() == [[16.0, 12.0]] and table.depths.tolist() == [1.0]
        assert list(table.point_indices) == [1]

    def test_depth_tie_goes_to_lower_index(self):
        pts = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 1.5]])
        assert list(render_depth(pts, SMALL_K).point_indices) == [0]

    def test_behind_camera_skipped(self):
        pts = np.array([[0.0, 0.0, -1.0], [0.1, 0.0, 2.0]])
        assert list(render_depth(pts, SMALL_K).point_indices) == [1]

    def test_nothing_visible_raises(self):
        pts = np.array([[50.0, 0.0, 1.0], [0.0, 0.0, -2.0]])
        with pytest.raises(EmptyVisibleSetError):
            render_depth(pts, SMALL_K)

    def test_correspondences_in_pixel_row_order(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [rng.uniform(-0.3, 0.3, 50), rng.uniform(-0.2, 0.2, 50), rng.uniform(1, 3, 50)]
        )
        table = render_depth(pts, SMALL_K)
        pid = table.pixels[:, 1] * SMALL_K.width + table.pixels[:, 0]
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


def with_rows(scene, edit, column="pixels"):
    """scene.table rebuilt with an edited copy of one of its columns."""
    table = scene.table
    columns = {name: getattr(table, name).copy() for name in ("pixels", "depths", "point_indices")}
    if column == "point_indices":
        columns[column] = columns[column].astype(np.float64)
    edit(columns[column])
    return PixelTable(table.width, table.height, **columns)


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
        with pytest.raises(ValueError, match="distinct integer pixels inside the 640x480"):
            with_rows(scene, edit)

    @pytest.mark.parametrize("row", [0, 5, -1])
    def test_gt_pixel_without_depth_raises(self, row):
        # every row of a generated scene names a ground-truth point
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        assert scene.table.point_indices[row] >= 0
        for depth in (np.nan, 0.0, -1.0, np.inf):

            def edit(depths):
                depths[row] = depth

            with pytest.raises(ValueError, match=r"depth row .* with finite positive depths"):
                with_rows(scene, edit, "depths")

    @pytest.mark.parametrize(
        "index, message",
        [
            (lambda n: -2, "a point index must be -1 or a row of the 300-point cloud"),
            (lambda n: n, "a point index must be -1 or a row of the 300-point cloud"),
            (lambda n: 0.5, "integer point indices"),
            (lambda n: np.nan, "integer point indices"),
            (lambda n: 1e300, "integer point indices"),
        ],
        ids=["below_minus_one", "past_cloud", "fractional", "nan", "huge"],
    )
    def test_point_index_not_minus_one_or_a_cloud_row_raises(self, index, message):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)

        def edit(indices):
            indices[3] = index(scene.cloud.shape[0])

        with pytest.raises(ValueError, match=message):
            dataclasses.replace(scene, table=with_rows(scene, edit, "point_indices"))

    def test_rows_without_a_point_are_not_ground_truth(self):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)

        def edit(indices):
            indices[::2] = -1

        partial = dataclasses.replace(scene, table=with_rows(scene, edit, "point_indices"))
        gt = partial.gt_correspondences
        assert partial.gt_rows.tolist() == list(range(1, len(scene.table), 2))
        assert gt.pixels.tobytes() == scene.table.pixels[1::2].tobytes()
        assert gt.point_indices.tobytes() == scene.table.point_indices[1::2].tobytes()
        assert partial.depth.valid.sum() == len(scene.table)

    def test_depth_shape_must_match_intrinsics(self):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        t = scene.table
        wider = PixelTable(t.width + 1, t.height, t.pixels, t.depths, t.point_indices)
        with pytest.raises(ValueError, match="does not match"):
            dataclasses.replace(scene, table=wider)

    def test_views_are_derived_once_and_read_only(self):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        assert scene.depth is scene.depth
        assert scene.gt_correspondences is scene.gt_correspondences
        vs, us = np.nonzero(scene.depth.valid)
        assert np.column_stack([us, vs]).astype(np.float64).tobytes() == (
            scene.table.pixels.tobytes()
        )
        assert scene.depth.values[vs, us].tobytes() == scene.table.depths.tobytes()
        for name in ("depth", "gt_correspondences"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(scene, name, None)


class DrawLog:
    """A Generator that logs (method, values drawn) for each of its draws."""

    def __init__(self, rng: np.random.Generator, log: list) -> None:
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, int(np.size(out))))
            return out

        return draw


def test_stream_tags_are_distinct():
    assert len(set(STREAM_TAGS.values())) == len(STREAM_TAGS)


class TestCorruptDepth:
    def test_zero_config_is_identity(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=1)
        depths = scene.table.depths
        values, keep = corrupt_depth(depths, CorruptionConfig(seed=0), scene.seed)
        assert values.tobytes() == depths.tobytes() and keep.all()

    def test_deterministic(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=1)
        cfg = CorruptionConfig(gaussian_sigma_m=0.01, mask_ratio=0.2, seed=8)
        a_values, a_keep = corrupt_depth(scene.table.depths, cfg, scene.seed)
        b_values, b_keep = corrupt_depth(scene.table.depths, cfg, scene.seed)
        np.testing.assert_array_equal(a_values, b_values)
        np.testing.assert_array_equal(a_keep, b_keep)

    def test_mask_fraction_on_full_map(self):
        # every pixel of a 640x480 image, as rows
        full = np.full(480 * 640, 2.5)
        _, keep = corrupt_depth(full, CorruptionConfig(mask_ratio=0.4, seed=3), 0)
        dropped = 1.0 - keep.mean()
        assert abs(dropped - 0.4) < 0.02

    def test_noise_std_on_large_map(self):
        full = np.full(480 * 640, 5.0)
        values, keep = corrupt_depth(full, CorruptionConfig(gaussian_sigma_m=0.015, seed=4), 0)
        residuals = values[keep] - 5.0
        assert residuals.size >= 100_000
        assert abs(residuals.std() - 0.015) < 0.1 * 0.015

    def test_nonpositive_after_noise_invalidated(self):
        thin = np.full(50 * 50, 0.001)
        values, keep = corrupt_depth(thin, CorruptionConfig(gaussian_sigma_m=0.5, seed=5), 0)
        assert not keep.all()
        assert np.all(values[keep] > 0.0)

    def test_draws_one_value_per_depth_row_of_each_kind(self, monkeypatch):
        scene = generate_scene(SceneSpec(), seed=5)
        rows = len(scene.table)
        draws = []
        real_default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: DrawLog(real_default_rng(seed), draws)
        )
        cfg = CorruptionConfig(gaussian_sigma_m=0.01, mask_ratio=0.2)
        corrupt_depth(scene.table.depths, cfg, scene.seed)
        assert 0 < rows < scene.table.width * scene.table.height // 100
        assert sorted(draws) == [("normal", rows), ("random", rows)]

    def test_scenes_of_a_batch_get_their_own_noise_and_mask(self):
        # both once came from noise_seed alone: scenes 1 and 2 shared them
        cfg = CorruptionConfig(gaussian_sigma_m=0.01, mask_ratio=0.2, seed=0)
        one, two = (generate_scene(SceneSpec(), seed=seed) for seed in (1, 2))
        pixel_ids = [t.pixels[:, 1] * t.width + t.pixels[:, 0] for t in (one.table, two.table)]
        _, rows_one, rows_two = np.intersect1d(*pixel_ids, return_indices=True)
        assert rows_one.size >= 50
        values_one, keep_one = corrupt_depth(one.table.depths, cfg, one.seed)
        values_two, keep_two = corrupt_depth(two.table.depths, cfg, two.seed)
        assert not np.array_equal(keep_one[rows_one], keep_two[rows_two])
        both = keep_one[rows_one] & keep_two[rows_two]
        rows_one, rows_two = rows_one[both], rows_two[both]
        noise_one = values_one[rows_one] - one.table.depths[rows_one]
        noise_two = values_two[rows_two] - two.table.depths[rows_two]
        assert both.sum() >= 20 and np.all(np.abs(noise_one - noise_two) > 1e-9)

    def test_sigma_sweep_keeps_the_mask_and_mask_sweep_keeps_the_noise(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=4)
        depths = scene.table.depths

        def corrupt(sigma, mask):
            cfg = CorruptionConfig(gaussian_sigma_m=sigma, mask_ratio=mask, seed=2)
            return corrupt_depth(depths, cfg, scene.seed)

        values, keep = corrupt(0.005, 0.3)
        assert corrupt(0.015, 0.3)[1].tobytes() == keep.tobytes()
        assert corrupt(0.0, 0.3)[1].tobytes() == keep.tobytes()
        assert corrupt(0.005, 0.1)[0].tobytes() == values.tobytes()
        assert corrupt(0.005, 0.0)[0].tobytes() == values.tobytes()
        # a higher mask ratio drops a superset of the rows
        assert np.all(keep <= corrupt(0.005, 0.1)[1]) and 0 < keep.sum() < keep.size

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

    def features(self, channels, cfg):
        return synthesize_features(self.scene, base_features(self.scene, channels), cfg)

    def test_zero_noise_exact_pairs(self):
        f_img, f_cloud = self.features(256, CorruptionConfig())
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
        base = base_features(self.scene, 64)
        before = base.tobytes()
        a_img, a_cloud = synthesize_features(self.scene, base, cfg)
        b_img, b_cloud = self.features(64, cfg)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_cloud, b_cloud)
        # the base is read, never written, so a prep can reuse it
        assert base.tobytes() == before

    def test_rows_are_unit(self):
        cfg = CorruptionConfig(feature_noise_sigma=0.4, outlier_fraction=0.2, seed=1)
        f_img, f_cloud = self.features(64, cfg)
        np.testing.assert_allclose(np.linalg.norm(f_img, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(f_cloud, axis=1), 1.0, atol=1e-12)

    def test_correct_match_fraction_decreases_with_noise(self):
        idx = self.scene.gt_correspondences.point_indices
        pixels = self.scene.gt_correspondences.pixels
        fractions = []
        for sigma in (0.0, 0.2, 0.5):
            cfg = CorruptionConfig(feature_noise_sigma=sigma, seed=7)
            f_img, f_cloud = self.features(64, cfg)
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
        f_img, f_cloud = self.features(64, cfg)
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
            base_features(self.scene, 3)
