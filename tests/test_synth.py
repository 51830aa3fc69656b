"""Scene generator: self-consistency, determinism, and corruption statistics."""

import dataclasses
import itertools
import re
import sys
from collections import Counter

import numpy as np
import pytest

import crossreg.synth
from crossreg.errors import ConfigError, EmptyVisibleSetError, NotNormalizedError
from crossreg.geometry import CameraIntrinsics, RigidTransform, project_points
from crossreg.matching import fine_match, patch_overlap
from crossreg.normals import depth_to_normals
from crossreg.pipeline import PipelineConfig, prepare_scene
from crossreg.synth import (
    Box,
    CorruptionConfig,
    PixelTable,
    Plane,
    STREAM_TAGS,
    SceneSpec,
    Sphere,
    StandIn,
    corrupt_depth,
    generate_scene,
    render_depth,
    stream_rng,
    synthesize_features,
)
from rasters import depth_raster

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

    def test_point_just_in_front_of_the_camera_falls_outside(self):
        # the first projects past int64 and the second overflows to inf; the
        # int64 cast and the divide once warned on them
        pts = np.array([[1.0, 0.0, 1e-17], [1.0, 0.0, 1e-310], [0.0, 0.0, 1.0]])
        assert list(render_depth(pts, SMALL_K).point_indices) == [2]

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
        np.testing.assert_array_equal(depth_raster(a.table).values, depth_raster(b.table).values)
        np.testing.assert_array_equal(a.gt_correspondences.pixels, b.gt_correspondences.pixels)
        np.testing.assert_array_equal(a.gt_transform.rotation, b.gt_transform.rotation)

    def test_pose_bounds_at_their_limits_stay_finite(self):
        # a full turn, and a quarter of the float64 range: past either,
        # the draw or the inverse pose overflows
        far = sys.float_info.max / 4
        spec = SceneSpec(point_count=100, max_rotation_deg=360.0, max_translation_m=far)
        for seed in range(5):
            scene = generate_scene(spec, seed=seed)
            assert np.all(np.isfinite(scene.cloud))
            assert np.all(np.isfinite(scene.gt_transform.inverse().translation))
        for key, bound in (("max_rotation_deg", 360.0), ("max_translation_m", far)):
            message = f"SceneSpec.{key} must be finite and lie in [0.0, {bound!r}], got"
            with pytest.raises(ValueError, match=re.escape(message)):
                SceneSpec(**{key: float(np.nextafter(bound, np.inf))})

    def test_negative_zero_pose_bound_is_refused(self):
        # numpy's uniform(-0.0, 0.0) once raised "high - low < 0"
        assert SceneSpec(max_rotation_deg=0.0, max_translation_m=0.0).max_translation_m == 0.0
        for key in ("max_translation_m", "max_rotation_deg"):
            with pytest.raises(ConfigError, match=rf"SceneSpec\.{key} .* got -0\.0"):
                SceneSpec(**{key: -0.0})

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
        depth = depth_raster(scene.table)
        for (u, v), z in zip(scene.gt_correspondences.pixels.tolist(), moved[:, 2]):
            assert abs(depth.values[int(v), int(u)] - z) < 1e-6

    def test_every_gt_pair_labels_positive(self):
        scene = generate_scene(SceneSpec(point_count=1200), seed=5)
        gt = scene.gt_correspondences
        depth = depth_raster(scene.table)
        for (u, v), idx in zip(gt.pixels.tolist(), gt.point_indices.tolist()):
            (pair,) = patch_overlap(
                [(0, 0)],
                [0],
                [0],
                [(u, v)],
                [depth.values[int(v), int(u)]],
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
        depth = depth_raster(scene.table)
        vals = depth.values[depth.valid]
        np.testing.assert_allclose(vals, 2.0, atol=1e-12)
        normals = depth_to_normals(depth)
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
        with pytest.raises(NotNormalizedError, match="y_axis: row norm deviates from 1 by 1.000e-05"):
            Plane(center=(0, 0, 2), y_axis=(0.0, 1.00001, 0.0))
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

    @pytest.mark.parametrize("width, height", [(2**54, 480), (10**18, 480), (2**53 + 1, 1)])
    def test_image_past_2_53_pixels_raises(self, width, height):
        # past 2**53 the row-major keys v * w + u collide in float64
        empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match=r"has more than 2\*\*53 pixels"):
            PixelTable(width, height, *empty)
        assert len(PixelTable(2**53, 1, *empty)) == 0

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
        assert depth_raster(partial.table).valid.sum() == len(scene.table)

    def test_depth_shape_must_match_intrinsics(self):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        t = scene.table
        wider = PixelTable(t.width + 1, t.height, t.pixels, t.depths, t.point_indices)
        with pytest.raises(ValueError, match="does not match"):
            dataclasses.replace(scene, table=wider)

    def test_views_are_derived_once_and_read_only(self):
        scene = generate_scene(SceneSpec(point_count=300), seed=0)
        # the table is the scene's only depth: no image-sized view is kept
        assert not hasattr(scene, "depth")
        assert scene.gt_rows is scene.gt_rows
        assert scene.gt_correspondences is scene.gt_correspondences
        depth = depth_raster(scene.table)
        vs, us = np.nonzero(depth.valid)
        assert np.column_stack([us, vs]).astype(np.float64).tobytes() == (
            scene.table.pixels.tobytes()
        )
        assert depth.values[vs, us].tobytes() == scene.table.depths.tobytes()
        for name in ("table", "gt_rows", "gt_correspondences"):
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
            if name == "spawn":  # the children's draws are logged too
                return [DrawLog(child, self._log) for child in out]
            self._log.append((name, int(np.size(out))))
            return out

        return draw


def test_stream_tags_are_distinct():
    # RANSAC and the attention draw what default_rng of their seed draws
    assert len(STREAM_TAGS) == 12
    assert [name for name, tag in STREAM_TAGS.items() if tag is None] == ["ransac", "attention"]
    tags = [tag for tag in STREAM_TAGS.values() if tag is not None]
    assert all(type(tag) is int and tag >= 1 for tag in tags)
    assert len(set(tags)) == len(tags)


TWO_SEED_STREAMS = {"img_noise", "cloud_noise", "outlier", "guidance", "swap", "depth_corruption"}


def test_no_two_streams_draw_alike_over_small_seeds():
    # each stream under seeds 0-9 in each of its seed slots, depth
    # corruption's two children included
    firsts = {}
    for name in STREAM_TAGS:
        slots = (range(10),) * (2 if name in TWO_SEED_STREAMS else 1)
        for seeds in itertools.product(*slots):
            rng = stream_rng(name, *seeds)
            streams = {name: rng}
            if name == "depth_corruption":
                streams["depth_noise"], streams["depth_mask"] = rng.spawn(2)
            for label, stream in streams.items():
                firsts.setdefault(int(stream.bit_generator.random_raw()), []).append((label, seeds))
    shared = [owners for owners in firsts.values() if len(owners) > 1]
    # the one coincidence: RANSAC and the attention under one seed
    assert sorted(shared) == [[("ransac", (s,)), ("attention", (s,))] for s in range(10)]


def test_a_later_seed_past_one_word_aliases_no_stream():
    # SeedSequence joins the seeds' 32-bit words: both tuples spell 5, 1, 7
    assert (stream_rng("img_noise", 2**32 + 5, 7).random()
            != stream_rng("img_noise", 5, 1 + 7 * 2**32).random())


def test_no_encoded_seed_tuple_meets_a_kept_one_over_edge_seeds():
    # a tuple whose later seeds are one word each keeps (*seeds, tag); any other
    # is encoded in words, and shares its entropy pool with no other tuple
    edges = (0, 1, 5, 7, 2**32 - 1, 2**32, 2**32 + 5, 1 + 7 * 2**32, 2**64 - 1, 2**64, 2**96 + 3)
    owners, encoded = {}, []
    for name, tag in STREAM_TAGS.items():
        for seeds in itertools.product(edges, repeat=2 if name in TWO_SEED_STREAMS else 1):
            seed_seq = stream_rng(name, *seeds).bit_generator.seed_seq
            pool = seed_seq.pool.tobytes()
            owners.setdefault(pool, []).append((name, seeds))
            if all(seed < 2**32 for seed in seeds[1:]):
                assert seed_seq.entropy == (seeds if tag is None else (*seeds, tag))
            else:
                words = seed_seq.entropy
                assert all(0 <= word < 2**32 for word in words) and words[-1] != 0
                encoded.append(pool)
    # 6 of the 11 edge seeds pass one word, in each two-seed stream's second slot
    assert len(encoded) == len(TWO_SEED_STREAMS) * len(edges) * 6
    assert all(len(owners[pool]) == 1 for pool in encoded)


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
        seed_range = r"CorruptionConfig\.seed must be finite and lie in \[0, .*got -1"
        with pytest.raises(ValueError, match=seed_range):
            CorruptionConfig(seed=-1)


class TestSynthesizeFeatures:
    def setup_method(self):
        self.scene = generate_scene(SceneSpec(point_count=900), seed=6)

    def features(self, channels, cfg):
        return synthesize_features(StandIn.of(self.scene, channels), cfg)

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
        self.check_deterministic(agreement=1.0)

    def test_deterministic_under_lost_agreement(self):
        self.check_deterministic(agreement=0.4)

    def check_deterministic(self, agreement):
        cfg = CorruptionConfig(feature_noise_sigma=0.3, outlier_fraction=0.1, seed=2)
        stand_in = StandIn.of(self.scene, 64)
        before = stand_in.base.tobytes()
        a_img, a_cloud = synthesize_features(stand_in, cfg, agreement)
        b_img, b_cloud = synthesize_features(StandIn.of(self.scene, 64), cfg, agreement)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_cloud, b_cloud)
        # the base is read, never written, so a prep can reuse it
        assert stand_in.base.tobytes() == before

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_caller_owns_the_features_and_kept_draws_are_read_only(self, sigma):
        cfg = CorruptionConfig(feature_noise_sigma=sigma, outlier_fraction=0.1, seed=2)
        prep = prepare_scene(self.scene, PipelineConfig(channels=64))
        stand_in = prep.stand_in
        f_img, f_cloud = synthesize_features(stand_in, cfg, agreement=0.5, keep=prep.keep)
        want = [f_img.tobytes(), f_cloud.tobytes()]
        f_img[...] = 7.0
        again = synthesize_features(stand_in, cfg, agreement=0.5, keep=prep.keep)
        assert [f.tobytes() for f in again] == want and again[1] is f_cloud
        # a call that keeps nothing gives the same bytes
        assert [f.tobytes() for f in synthesize_features(stand_in, cfg, agreement=0.5)] == want
        # the cloud rows are read-only: the base itself without noise, else rows of their own
        assert not f_cloud.flags.writeable
        if sigma == 0.0:
            assert f_cloud is stand_in.base
        else:
            assert not np.shares_memory(f_cloud, stand_in.base)
        assert sorted(prep.kept) == ["cloud_rows", "guidance", "swap"]
        kept = [stand_in.base] + [
            array for _key, value in prep.kept.values()
            for array in (value if isinstance(value, tuple) else (value,))
        ]
        # base, cloud rows, guidance, swap gates and candidates; the image rows'
        # noise is drawn per call
        assert len(kept) == 5
        assert not any(array.flags.writeable for array in kept)

    def test_without_keep_each_call_draws_and_the_stand_in_holds_only_its_fields(
        self, monkeypatch
    ):
        stand_in = StandIn.of(self.scene, 64)
        drawn = Counter()

        def counting(name, *seeds):
            drawn[name] += 1
            return stream_rng(name, *seeds)

        monkeypatch.setattr(crossreg.synth, "stream_rng", counting)
        cfg = CorruptionConfig(feature_noise_sigma=0.3, seed=2)
        for _ in range(2):
            synthesize_features(stand_in, cfg, agreement=0.5)
        assert drawn == {"img_noise": 2, "cloud_noise": 2, "guidance": 2, "swap": 2}
        assert set(vars(stand_in)) == {f.name for f in dataclasses.fields(StandIn)}

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
            StandIn.of(self.scene, 3)

    def test_lost_agreement_swaps_rows_to_far_points(self):
        # every row is swapped, each to a point farther than 3 * tau1_m
        # (16 candidates make a closer pick all but impossible here)
        cfg = CorruptionConfig(guidance_noise_scale=0.0, guidance_swap_scale=1.0)
        stand_in = StandIn.of(self.scene, 64)
        f_img, f_cloud = synthesize_features(stand_in, cfg, agreement=0.0)
        unit = f_cloud / np.linalg.norm(f_cloud, axis=1, keepdims=True)
        picked = np.argmax(f_img @ unit.T, axis=1)
        assert np.array_equal(f_img, f_cloud[picked])
        gaps = np.linalg.norm(stand_in.cloud[picked] - stand_in.cloud[stand_in.points], axis=1)
        assert np.all(gaps > 3.0 * cfg.tau1_m)

    def test_guidance_degrades_the_image_rows_only_when_agreement_is_lost(self):
        cfg = CorruptionConfig(feature_noise_sigma=0.2, seed=4)
        unguided = dataclasses.replace(cfg, guidance_noise_scale=0.0, guidance_swap_scale=0.0)
        stand_in = StandIn.of(self.scene, 64)
        want = synthesize_features(stand_in, unguided, agreement=0.5)
        full = synthesize_features(stand_in, cfg, agreement=1.0)
        lost = synthesize_features(stand_in, cfg, agreement=0.5)
        assert [f.tobytes() for f in full] == [f.tobytes() for f in want]
        assert not np.array_equal(lost[0], want[0])
        assert lost[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("sigma, outliers, agreement", list(
        itertools.product((0.0, 0.05), (0.0, 0.1), (1.0, 0.6))
    ))
    def test_out_takes_the_image_rows_in_place(self, sigma, outliers, agreement):
        # the rows land in a view of a wider matrix, as registration passes its
        # image matrix's first C columns, byte for byte the default call's rows
        cfg = CorruptionConfig(feature_noise_sigma=sigma, outlier_fraction=outliers, seed=5)
        want = synthesize_features(StandIn.of(self.scene, 64), cfg, agreement)
        stand_in = StandIn.of(self.scene, 64)
        buf = np.full((stand_in.rows.size, 67), 7.0)
        view = buf[:, :64]
        f_img, f_cloud = synthesize_features(stand_in, cfg, agreement, out=view)
        assert f_img is view
        assert view.tobytes() == want[0].tobytes()
        assert f_cloud.tobytes() == want[1].tobytes()
        assert np.all(buf[:, 64:] == 7.0)

    @pytest.mark.parametrize("extra_rows, channels, dtype", [
        (-1, 64, np.float64), (0, 63, np.float64), (0, 64, np.float32),
    ], ids=["rows", "channels", "float32"])
    def test_out_of_another_shape_or_type_is_refused(self, extra_rows, channels, dtype):
        stand_in = StandIn.of(self.scene, 64)
        out = np.zeros((stand_in.rows.size + extra_rows, channels), dtype=dtype)
        with pytest.raises(ValueError, match="out is"):
            synthesize_features(stand_in, CorruptionConfig(), out=out)


class TestStandIn:
    def test_registers_the_rows_with_a_point(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=21)

        def every_7th_without_a_point(indices):
            indices[::7] = -1

        edited = with_rows(scene, every_7th_without_a_point, "point_indices")
        stand_in = StandIn.of(dataclasses.replace(scene, table=edited), 8)
        indices = edited.point_indices
        assert stand_in.rows.tobytes() == np.flatnonzero(indices >= 0).tobytes()
        assert stand_in.points.tobytes() == indices[indices >= 0].tobytes()
        assert stand_in.base.shape == (len(scene.cloud), 8)
        np.testing.assert_allclose(np.linalg.norm(stand_in.base, axis=1), 1.0, atol=1e-12)

    def test_cloud_normals_take_their_rows_normal(self):
        scene = generate_scene(SceneSpec(point_count=600), seed=21)
        stand_in = StandIn.of(scene, 8)
        row_normals = np.arange(3.0 * len(scene.table)).reshape(-1, 3)
        got = stand_in.cloud_normals(row_normals)
        named = np.zeros(len(scene.cloud), dtype=bool)
        named[stand_in.points] = True
        assert np.array_equal(got[stand_in.points], row_normals[stand_in.rows])
        assert not got[~named].any()


@pytest.mark.parametrize("call, error", [
    (lambda: Plane(center=(0.0, 0.0, 0.0), half_extents=(1.0, 0.0)), ValueError),
    (lambda: PixelTable(4, 4, np.zeros((2, 2)), np.ones(1), np.zeros(2)), ValueError),
], ids=["plane_flat", "pixel_table_columns_differ"])
def test_malformed_input_refused(call, error):
    with pytest.raises(error):
        call()
