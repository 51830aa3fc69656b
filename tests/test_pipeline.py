"""End-to-end pipeline tests: config schema, lifted normals, register, ablate."""

import dataclasses
import math
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import crossreg.graph
import crossreg.normals
import crossreg.pipeline as pipeline
from crossreg.errors import ConfigError, CoordinateOverflowError, LengthMismatchError
from crossreg.geometry import (
    CameraIntrinsics,
    RigidTransform,
    rotation_from_axis_angle,
    unit_rows,
)
from crossreg.graph import GraphAttentionParams
from crossreg.matching import CorrespondenceSet
from crossreg.normals import DepthMap
from crossreg.pipeline import (
    PipelineConfig,
    SWEEP_DEFAULTS,
    _best_per_pixel,
    ablation_rows,
    apply_sweep_setting,
    evaluate_scene,
    evaluation_report,
    lifted_pixel_normals,
    parallel_map,
    prepare_scene,
    register_scene,
)
from crossreg.synth import SceneSpec, corrupt_depth, generate_scene, synthesize_features

SMALL_K = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0, width=32, height=24)

# A scene whose voted inliers are degenerate as a whole: the final PnP refit
# raises, and registration must fall back to the voted hypothesis.
DEGENERATE_REFIT = dict(point_count=800, outlier_fraction=0.4, min_fine_score=0.2)
DEGENERATE_REFIT_SEED = 1


def small_config(**overrides) -> PipelineConfig:
    base = dict(point_count=600, scene_count=2)
    base.update(overrides)
    return PipelineConfig(**base)


def small_scene(seed=0, **config_overrides):
    cfg = small_config(**config_overrides)
    return generate_scene(cfg.scene_spec(), seed=seed), cfg


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.k_neighbors == 8
        assert cfg.channels == 64
        assert cfg.epoch == 0

    def test_from_mapping_accepts_known_keys(self):
        cfg = PipelineConfig.from_mapping({"k_neighbors": 4, "voxel_size": 0.25})
        assert cfg.k_neighbors == 4
        assert cfg.voxel_size == 0.25

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_mapping({"k_neighbours": 4})

    def test_from_mapping_coerces_whole_floats_to_int(self):
        cfg = PipelineConfig.from_mapping({"k_neighbors": 4.0})
        assert cfg.k_neighbors == 4
        assert isinstance(cfg.k_neighbors, int)

    def test_from_mapping_rejects_fractional_int(self):
        with pytest.raises(ConfigError, match="k_neighbors"):
            PipelineConfig.from_mapping({"k_neighbors": 4.5})

    def test_from_mapping_rejects_string_value(self):
        with pytest.raises(ConfigError, match="voxel_size"):
            PipelineConfig.from_mapping({"voxel_size": "0.4"})

    def test_from_mapping_bool_is_strict(self):
        assert PipelineConfig.from_mapping({"adaptive_k": True}).adaptive_k is True
        with pytest.raises(ConfigError, match="adaptive_k"):
            PipelineConfig.from_mapping({"adaptive_k": 1})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k_neighbors": 1},
            {"channels": 3},
            {"top_k_coarse": 0},
            {"min_fine_score": 1.5},
            {"tile_rows": 0},
            {"voxel_size": 0.0},
            {"normal_channel_weight": -0.1},
            {"guidance_swap_scale": -0.1},
            {"lambda_gdc": -1.0},
            {"tau1_m": 0.0},
            {"tau2_ratio": 1.5},
            {"epoch": -1},
            {"scene_count": 0},
            {"mask_ratio": 1.5},
            {"ransac_min_sample": 4},
            {"ransac_confidence": 1.5},
            {"point_count": 10},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**overrides)

    @pytest.mark.parametrize("key", ["voxel_size", "gaussian_sigma_m", "max_rotation_deg"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig(**{key: value})

    def test_builders_carry_fields(self):
        cfg = PipelineConfig(
            gaussian_sigma_m=0.01,
            mask_ratio=0.2,
            noise_seed=7,
            ransac_iterations=500,
            warmup_start=3,
            warmup_end=9,
            lambda_gdc=0.25,
            point_count=800,
        )
        corr = cfg.corruption()
        assert corr.gaussian_sigma_m == 0.01
        assert corr.mask_ratio == 0.2
        assert corr.seed == 7
        ransac = cfg.ransac(seed=11)
        assert ransac.max_iterations == 500
        assert ransac.seed == 11
        sched = cfg.warmup()
        assert (sched.start, sched.end) == (3, 9)
        assert cfg.loss_weights().lambda_gdc == 0.25
        assert cfg.scene_spec().point_count == 800

    def test_replace_returns_new_config(self):
        cfg = PipelineConfig()
        other = cfg.replace(k_neighbors=12)
        assert other.k_neighbors == 12
        assert cfg.k_neighbors == 8


class TestLiftedPixelNormals:
    def test_fronto_parallel_plane_lifts_to_minus_z(self):
        spec = SceneSpec(
            point_count=3000,
            intrinsics=SMALL_K,
            max_rotation_deg=0.0,
            max_translation_m=0.0,
        )
        scene = generate_scene(spec, seed=3)
        field = lifted_pixel_normals(scene.depth, SMALL_K, k=8)
        assert np.array_equal(field.valid.shape, scene.depth.valid.shape)
        assert np.all(field.valid <= scene.depth.valid)
        picked = field.normals[field.valid]
        assert picked.shape[0] > 100
        # the default primitives include a tilted plane and curved surfaces,
        # so only check that normals are unit and oriented toward the camera
        assert np.allclose(np.linalg.norm(picked, axis=1), 1.0, atol=1e-9)

    def test_exact_plane_depth(self):
        values = np.full((24, 32), 2.0)
        field = lifted_pixel_normals(DepthMap.from_values(values), SMALL_K, k=8)
        assert np.all(field.valid)
        expected = np.zeros((24, 32, 3))
        expected[:, :, 2] = -1.0
        np.testing.assert_allclose(field.normals, expected, atol=1e-9)

    def test_all_invalid_depth_gives_empty_field(self):
        values = np.full((24, 32), np.nan)
        field = lifted_pixel_normals(DepthMap.from_values(values), SMALL_K, k=8)
        assert not field.valid.any()
        assert field.normals.shape == (24, 32, 3)

    def test_too_few_pixels_gives_empty_field(self):
        values = np.full((24, 32), np.nan)
        values[0, :5] = 2.0
        field = lifted_pixel_normals(DepthMap.from_values(values), SMALL_K, k=8)
        assert not field.valid.any()

    def test_k_floored_at_three(self):
        values = np.full((24, 32), 2.0)
        field = lifted_pixel_normals(DepthMap.from_values(values), SMALL_K, k=2)
        assert field.valid.any()

    @pytest.mark.parametrize("count", [9, 10, 11, 12, 13])
    def test_adaptive_needs_room_for_sparse_k(self, count):
        # scattered pixels: some are sparse and get k + 4 = 12 neighbors,
        # which needs 13 points; below that the field is empty, not an error
        rng = np.random.default_rng(count)
        values = np.full((24, 32), np.nan)
        flat = rng.choice(24 * 32, size=count, replace=False)
        values.flat[flat] = rng.uniform(1.5, 3.0, count)
        field = lifted_pixel_normals(DepthMap.from_values(values), SMALL_K, k=8, adaptive=True)
        assert field.valid.any() == (count > 12)


class TestRegisterScene:
    def test_noiseless_emits_only_ground_truth_pairs(self):
        scene, cfg = small_scene(seed=1)
        result = register_scene(scene, cfg)
        assert result.agreement == 1.0
        assert result.blend == 0.0
        assert len(result.correspondences) > 50
        truth = {
            (int(u), int(v)): int(idx)
            for (u, v), idx in zip(
                scene.gt_correspondences.pixels, scene.gt_correspondences.point_indices
            )
        }
        corrs = result.correspondences
        for (u, v), idx in zip(corrs.pixels.tolist(), corrs.point_indices.tolist()):
            assert truth[(int(u), int(v))] == idx
        np.testing.assert_allclose(corrs.scores, 1.0, rtol=0, atol=1e-9)

    def test_noiseless_pose_recovery(self):
        for seed in range(3):
            scene, cfg = small_scene(seed=seed)
            result = register_scene(scene, cfg)
            ev = evaluate_scene(
                scene, result.correspondences, result.estimate.transform,
                result.patches, cfg,
            )
            assert ev.inlier_ratio == 1.0
            assert ev.fmr_flag and ev.rr_flag
            # gt pixels are integer-quantized, so pose error floors at the
            # quantization level; the bound tightens with denser scenes
            assert ev.rre_deg < 0.1
            assert ev.rte_m < 2e-3

    def test_emitted_pixels_row_major_and_unique(self):
        scene, cfg = small_scene(seed=2)
        corrs = register_scene(scene, cfg).correspondences
        keys = [(int(v), int(u)) for u, v in corrs.pixels]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_deterministic(self):
        scene, cfg = small_scene(seed=4)
        a = register_scene(scene, cfg)
        b = register_scene(scene, cfg)
        np.testing.assert_array_equal(a.correspondences.pixels, b.correspondences.pixels)
        np.testing.assert_array_equal(
            a.correspondences.point_indices, b.correspondences.point_indices
        )
        np.testing.assert_array_equal(a.estimate.transform.rotation, b.estimate.transform.rotation)
        np.testing.assert_array_equal(
            a.estimate.transform.translation, b.estimate.transform.translation
        )

    def test_corruption_lowers_agreement_and_count(self):
        scene, clean_cfg = small_scene(seed=5)
        noisy_cfg = clean_cfg.replace(mask_ratio=0.4)
        clean = register_scene(scene, clean_cfg)
        noisy = register_scene(scene, noisy_cfg)
        assert noisy.agreement < clean.agreement == 1.0
        assert len(noisy.correspondences) < len(clean.correspondences)
        ev = evaluate_scene(
            scene, noisy.correspondences, noisy.estimate.transform, noisy.patches, noisy_cfg
        )
        assert ev.inlier_ratio <= 1.0
        assert ev.rr_flag

    def test_patches_report_positive_overlap_on_clean_scene(self):
        scene, cfg = small_scene(seed=6)
        result = register_scene(scene, cfg)
        assert len(result.patches) > 0
        ev = evaluate_scene(
            scene, result.correspondences, result.estimate.transform, result.patches, cfg
        )
        assert ev.pir > 0.0

    def test_patches_are_the_coarse_pairs(self):
        scene, cfg = small_scene(seed=6)
        patches = register_scene(scene, cfg).patches
        tiles = pipeline._tile_ids(
            scene.gt_correspondences.pixels, scene.intrinsics, cfg.tile_rows, cfg.tile_cols
        )
        cells, _ = pipeline._voxel_ids(scene.cloud, cfg.voxel_size)
        for tile, cell, score in patches:
            assert type(tile) is int and type(cell) is int and type(score) is float
            assert tile in tiles and cell in cells
        scores = [score for _, _, score in patches]
        assert scores == sorted(scores, reverse=True)

    def test_registration_never_reads_the_true_pose(self):
        scene, cfg = small_scene(seed=3, mask_ratio=0.2, gaussian_sigma_m=0.005)
        wrong = dataclasses.replace(
            scene,
            gt_transform=RigidTransform(
                rotation_from_axis_angle([0.4, -0.2, 0.1]), np.array([1.0, -2.0, 0.5])
            ),
        )
        want = register_scene(scene, cfg)
        assert want.agreement < 1.0  # the corruption path runs too
        assert_same_registration(register_scene(wrong, cfg), want)

    def test_ground_truth_behind_the_camera_scores_zero(self):
        # a degenerate ground truth: registration ignores it, and
        # evaluation scores every match, patch and pose as a miss
        scene, cfg = small_scene(seed=3)
        gt = scene.gt_transform
        depth = gt.apply(scene.cloud)[:, 2]
        behind = dataclasses.replace(
            scene,
            gt_transform=RigidTransform(gt.rotation, gt.translation - [0.0, 0.0, depth.max() + 1.0]),
        )
        assert np.all(behind.gt_transform.apply(scene.cloud)[:, 2] <= -1.0)
        result = register_scene(behind, cfg)
        assert_same_registration(result, register_scene(scene, cfg))
        ev = evaluate_scene(
            behind, result.correspondences, result.estimate.transform, result.patches, cfg
        )
        assert (ev.inlier_ratio, ev.pir, ev.fmr_flag, ev.rr_flag) == (0.0, 0.0, False, False)
        assert ev.rmse_m > 1.0

    def test_warmup_epoch_engages_refinement(self):
        scene, cfg = small_scene(seed=7)
        blended = register_scene(scene, cfg.replace(epoch=15))
        assert blended.blend == 0.5
        full = register_scene(scene, cfg.replace(epoch=25))
        assert full.blend == 1.0


def best_per_pixel_loop(pixels: np.ndarray, fine) -> CorrespondenceSet:
    """Oracle: per-match pixel search and a best-score dict, one match at a time."""
    best: dict[int, tuple[float, int]] = {}
    for sub in fine:
        for k_row in range(len(sub)):
            u, v = sub.pixels[k_row]
            row = int(np.flatnonzero((pixels[:, 0] == u) & (pixels[:, 1] == v))[0])
            score = float(sub.scores[k_row])
            kept = best.get(row)
            if kept is None or score > kept[0]:
                best[row] = (score, int(sub.point_indices[k_row]))
    us = pixels[:, 0].astype(np.int64)
    vs = pixels[:, 1].astype(np.int64)
    order = sorted(best, key=lambda row: (vs[row], us[row]))
    return CorrespondenceSet(
        pixels[order],
        np.array([best[row][1] for row in order], dtype=np.int64),
        np.array([best[row][0] for row in order]),
    )


@st.composite
def fine_emissions(draw):
    """A scene pixel table (distinct integer cells in row-major order), plus
    fine-match outputs over it whose scores tie often."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    m = draw(st.integers(1, width * height))
    cells = np.sort(rng.choice(width * height, size=m, replace=False))
    pixels = np.column_stack([cells % width, cells // width]).astype(np.float64)
    fine = []
    for _ in range(draw(st.integers(0, 6))):
        rows = np.flatnonzero(rng.uniform(size=m) < 0.5)
        fine.append(CorrespondenceSet(
            pixels[rows],
            rng.integers(0, 50, rows.size),
            rng.choice([0.2, 0.5, 0.9], rows.size),
        ))
    return pixels, fine


def assert_same_registration(got, want):
    for name in ("pixels", "point_indices", "scores"):
        assert (getattr(got.correspondences, name).tobytes()
                == getattr(want.correspondences, name).tobytes())
    for name in ("rotation", "translation"):
        assert (getattr(got.estimate.transform, name).tobytes()
                == getattr(want.estimate.transform, name).tobytes())
    assert got.estimate.inlier_mask.tobytes() == want.estimate.inlier_mask.tobytes()
    assert got.patches == want.patches
    assert got.agreement == want.agreement
    assert got.blend == want.blend


class TestScenePrep:
    @pytest.mark.parametrize("sweep", sorted(SWEEP_DEFAULTS))
    def test_prepared_registration_matches_fresh_one(self, sweep):
        scene, base = small_scene(seed=4, mask_ratio=0.1, gaussian_sigma_m=0.005)
        shared = prepare_scene(scene, base)  # one prep serves every non-k setting
        for value in SWEEP_DEFAULTS[sweep]:
            cfg = apply_sweep_setting(base, sweep, value)
            prep = prepare_scene(scene, cfg) if sweep == "k" else shared
            assert_same_registration(register_scene(scene, cfg, prep), register_scene(scene, cfg))

    @pytest.mark.parametrize(
        "overrides", [{"k_neighbors": 4}, {"tile_rows": 3}, {"voxel_size": 0.3}]
    )
    def test_prep_for_other_prep_fields_rejected(self, overrides):
        scene, cfg = small_scene(seed=2)
        prep = prepare_scene(scene, cfg)
        with pytest.raises(ConfigError, match="prep"):
            register_scene(scene, cfg.replace(**overrides), prep)

    def test_prep_for_another_scene_rejected(self):
        scene, cfg = small_scene(seed=2)
        other = generate_scene(cfg.scene_spec(), seed=3)
        with pytest.raises(ConfigError, match="prep"):
            register_scene(scene, cfg, prepare_scene(other, cfg))


class TestBestPerPixel:
    @given(fine_emissions())
    def test_matches_loop_oracle(self, case):
        pixels, fine = case
        got = _best_per_pixel(pixels, fine)
        want = best_per_pixel_loop(pixels, fine)
        assert got.pixels.tobytes() == want.pixels.tobytes()
        np.testing.assert_array_equal(got.point_indices, want.point_indices)
        assert got.scores.tobytes() == want.scores.tobytes()

    def test_no_emissions_is_empty(self):
        assert len(_best_per_pixel(np.zeros((3, 2)), [])) == 0


class TestDegenerateRefit:
    def test_scene_registers(self):
        cfg = PipelineConfig(**DEGENERATE_REFIT)
        scene = generate_scene(cfg.scene_spec(), seed=DEGENERATE_REFIT_SEED)
        result = register_scene(scene, cfg)
        assert result.estimate.inlier_count >= cfg.ransac_min_sample
        assert result.estimate.inlier_mask.shape == (len(result.correspondences),)

    def test_ablation_rows_return_rows(self):
        cfg = PipelineConfig(
            **DEGENERATE_REFIT, scene_count=1, base_seed=DEGENERATE_REFIT_SEED
        )
        rows = ablation_rows(cfg, "mask_ratio", (0.0,))
        assert len(rows) == 1
        assert rows[0][0] == 0.0


class TestEvaluationReport:
    def test_structure_and_aggregates(self):
        scene, cfg = small_scene(seed=8)
        result = register_scene(scene, cfg)
        ev = evaluate_scene(
            scene, result.correspondences, result.estimate.transform, result.patches, cfg
        )
        report = evaluation_report([ev, ev])
        assert set(report) == {"scenes", "mean", "median"}
        assert len(report["scenes"]) == 2
        assert report["mean"]["inlier_ratio"] == ev.inlier_ratio
        assert report["mean"]["feature_matching_recall"] == 1.0
        assert report["mean"]["registration_recall"] == 1.0
        assert report["median"]["rmse_m"] == ev.rmse_m
        assert report["scenes"][0]["fmr_flag"] is True

    def test_empty_batch_rejected(self):
        with pytest.raises(LengthMismatchError):
            evaluation_report([])


class TestSweeps:
    def test_apply_sweep_setting_maps_names(self):
        cfg = PipelineConfig()
        assert apply_sweep_setting(cfg, "gaussian_sigma", 0.01).gaussian_sigma_m == 0.01
        assert apply_sweep_setting(cfg, "mask_ratio", 0.3).mask_ratio == 0.3
        assert apply_sweep_setting(cfg, "k", 4).k_neighbors == 4
        assert apply_sweep_setting(cfg, "warmup", 15).epoch == 15

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep"):
            apply_sweep_setting(PipelineConfig(), "blur", 1)

    def test_sweep_defaults_cover_every_sweep(self):
        assert set(SWEEP_DEFAULTS) == {"gaussian_sigma", "mask_ratio", "k", "warmup"}

    def test_ablation_rows_shape(self):
        cfg = small_config()
        rows = ablation_rows(cfg, "k", (2, 4))
        assert len(rows) == 2
        assert [r[0] for r in rows] == [2.0, 4.0]
        for _, ir, fmr, rr in rows:
            assert 0.0 <= ir <= 1.0
            assert fmr in (0.0, 0.5, 1.0)
            assert rr in (0.0, 0.5, 1.0)

    def test_ablation_rows_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            ablation_rows(small_config(), "k", ())

    def test_bad_sweep_value_rejected_before_any_registration(self, monkeypatch):
        monkeypatch.setattr(pipeline, "generate_scene", None)  # would fail if reached
        for sweep, value in (("k", 2.5), ("k", None), ("warmup", True), ("mask_ratio", "a")):
            with pytest.raises(ConfigError):
                ablation_rows(small_config(), sweep, (0, value))

    def test_parallel_map_never_starts_more_workers_than_tasks(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        assert parallel_map(abs, [-1, -2], jobs=8) == [1, 2]
        assert parallel_map(abs, [-3], jobs=8) == [3]
        assert parallel_map(abs, [-4, -5, -6], jobs=1) == [4, 5, 6]
        assert started == [2]

    def test_ablation_parallel_matches_serial(self):
        cfg = small_config()
        serial = ablation_rows(cfg, "mask_ratio", (0.0, 0.3), jobs=1)
        parallel = ablation_rows(cfg, "mask_ratio", (0.0, 0.3), jobs=2)
        assert serial == parallel

    def test_unregistrable_scene_scores_a_miss(self):
        cfg = PipelineConfig(point_count=300, scene_count=1, outlier_fraction=1.0)
        assert ablation_rows(cfg, "mask_ratio", [0.0]) == [(0.0, 0.0, 0.0, 0.0)]


class TestSweepReuse:
    def test_each_scene_is_generated_and_prepared_once(self, monkeypatch):
        counts = {"generate": 0, "knn": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "generate_scene",
                            counting("generate", pipeline.generate_scene))
        for module in (crossreg.graph, crossreg.normals):
            monkeypatch.setattr(module, "knn_indices", counting("knn", module.knn_indices))
        scenes, values = 2, (0.0, 0.1, 0.3)
        ablation_rows(small_config(scene_count=scenes), "mask_ratio", values)
        # per scene: clean normals once and live normals per corrupting value;
        # mask_ratio 0.0 reuses the clean normals and epoch 0 builds no graph
        assert counts == {"generate": scenes, "knn": scenes * (1 + 2)}

    def test_k_sweep_parallel_over_scenes_matches_serial(self, monkeypatch):
        cfg = small_config(point_count=300, scene_count=2)
        serial = ablation_rows(cfg, "k", (2, 4, 8))
        started = []
        real_get_context = multiprocessing.get_context

        class SpyContext:
            def Pool(self, processes):
                started.append(processes)
                return real_get_context("fork").Pool(processes=processes)

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SpyContext())
        assert ablation_rows(cfg, "k", (2, 4, 8), jobs=2) == serial
        assert started == [2]  # one worker per scene, not per value


def count_calls(monkeypatch, counts: dict, owner, name: str) -> None:
    """Replace owner.name with a wrapper that counts its calls in counts[name]."""
    original = getattr(owner, name)
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestSkippedWork:
    REFINEMENT = (
        (pipeline, "light_gat_forward"),
        (pipeline, "gated_fusion"),
        (pipeline, "build_knn_graph"),
        (GraphAttentionParams, "initialize"),
    )

    def count_refinement(self, monkeypatch) -> dict:
        counts = {}
        for owner, name in self.REFINEMENT:
            count_calls(monkeypatch, counts, owner, name)
        return counts

    def test_zero_warmup_weight_runs_no_refinement(self, monkeypatch):
        counts = self.count_refinement(monkeypatch)
        scene, cfg = small_scene(seed=7)
        assert register_scene(scene, cfg).blend == 0.0
        assert set(counts.values()) == {0}

    @pytest.mark.parametrize("epoch, blend", [(15, 0.5), (25, 1.0)])
    def test_positive_weight_refines_both_sides(self, monkeypatch, epoch, blend):
        counts = self.count_refinement(monkeypatch)
        scene, cfg = small_scene(seed=7)
        assert register_scene(scene, cfg.replace(epoch=epoch)).blend == blend
        assert counts == {
            "light_gat_forward": 2, "gated_fusion": 2, "build_knn_graph": 2, "initialize": 1,
        }

    def test_warmup_sweep_builds_each_scene_graphs_once(self, monkeypatch):
        counts = self.count_refinement(monkeypatch)
        scenes = 2
        ablation_rows(small_config(scene_count=scenes), "warmup", (0, 5, 15, 25))
        # epochs 15 and 25 refine, both sides each; 0 and 5 weigh it at 0
        assert counts == {
            "light_gat_forward": scenes * 2 * 2,
            "gated_fusion": scenes * 2 * 2,
            "build_knn_graph": scenes * 2,
            "initialize": scenes * 2,
        }

    def test_zero_weight_blend_is_the_identity(self):
        # default size, features augmented as register_scene does
        cfg = PipelineConfig()
        scene = generate_scene(cfg.scene_spec(), seed=21)
        prep = prepare_scene(scene, cfg)
        f_img, f_cloud = synthesize_features(scene, cfg.channels, cfg.corruption())
        gt = scene.gt_correspondences
        us = gt.pixels[:, 0].astype(np.int64)
        vs = gt.pixels[:, 1].astype(np.int64)
        normals = prep.clean_normals
        img_n = np.where(normals.valid[vs, us][:, None], normals.normals[vs, us], 0.0)
        cloud_n = np.zeros((scene.cloud.shape[0], 3))
        cloud_n[gt.point_indices] = img_n
        weight = cfg.normal_channel_weight
        params = GraphAttentionParams.initialize(cfg.channels + 3, cfg.param_seed)
        for graph, feats, n in (
            (prep.pixel_graph, f_img, img_n), (prep.cloud_graph, f_cloud, cloud_n),
        ):
            aug = unit_rows(np.hstack([feats, weight * n]))
            assert np.array_equal(pipeline._refine(graph, aug, params, 0.0), aug)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"adaptive_k": True}, {"feature_noise_sigma": 0.1, "outlier_fraction": 0.2,
                                    "noise_seed": 5}],
        ids=["plain", "adaptive", "feature_noise"],
    )
    def test_uncorrupted_depth_lifts_to_the_clean_normals(self, overrides):
        scene, cfg = small_scene(seed=3, **overrides)
        prep = prepare_scene(scene, cfg)
        live = lifted_pixel_normals(
            corrupt_depth(scene.depth, cfg.corruption()), scene.intrinsics,
            cfg.k_neighbors, cfg.adaptive_k,
        )
        assert live.normals.tobytes() == prep.clean_normals.normals.tobytes()
        assert live.valid.tobytes() == prep.clean_normals.valid.tobytes()

    @pytest.mark.parametrize(
        "overrides, calls",
        [({}, 0), ({"mask_ratio": 0.1}, 1), ({"gaussian_sigma_m": 0.005}, 1)],
        ids=["clean", "masked", "noisy"],
    )
    def test_only_a_corrupted_depth_is_relifted(self, monkeypatch, overrides, calls):
        scene, cfg = small_scene(seed=3, **overrides)
        prep = prepare_scene(scene, cfg)
        counts = {}
        count_calls(monkeypatch, counts, pipeline, "corrupt_depth")
        count_calls(monkeypatch, counts, crossreg.normals, "knn_indices")
        register_scene(scene, cfg, prep)
        assert counts == {"corrupt_depth": calls, "knn_indices": calls}


class TestCoordinateOverflow:
    def far_vertex_scene(self, coordinate: float, **overrides):
        scene, cfg = small_scene(seed=2, **overrides)
        cloud = scene.cloud.copy()
        cloud[0] = (coordinate, 0.0, 2.0)
        return dataclasses.replace(scene, cloud=cloud), cfg

    @pytest.mark.parametrize("epoch", [0, 15])
    def test_far_vertex_raises_before_voxel_ids_collapse(self, epoch):
        scene, cfg = self.far_vertex_scene(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflowError, match="int64"):
                register_scene(scene, cfg.replace(epoch=epoch))

    @pytest.mark.parametrize("registered", [True, False], ids=["patches", "no_patches"])
    def test_far_matched_vertex_fails_evaluation_before_any_metric(self, registered):
        # inlier_ratio and registration_rmse would overflow on the vertex
        scene, cfg = small_scene(seed=2)
        result = register_scene(scene, cfg)
        cloud = scene.cloud.copy()
        cloud[result.correspondences.point_indices[0]] = (1e200, 0.0, 2.0)
        far = dataclasses.replace(scene, cloud=cloud)
        patches = result.patches if registered else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflowError, match="int64"):
                evaluate_scene(
                    far, result.correspondences, result.estimate.transform, patches, cfg
                )

    def test_tiny_voxels_raise_in_registration_and_evaluation(self):
        scene, cfg = small_scene(seed=2)
        result = register_scene(scene, cfg)
        tiny = cfg.replace(voxel_size=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflowError, match="1e-300"):
                register_scene(scene, tiny)
            with pytest.raises(CoordinateOverflowError, match="1e-300"):
                evaluate_scene(
                    scene, result.correspondences, result.estimate.transform,
                    result.patches, tiny,
                )

    def test_overflowing_cloud_graph_raises_when_refinement_runs(self):
        # voxels large enough to hold the far vertex leave the k-NN squares
        # as the first arithmetic to overflow
        scene, cfg = self.far_vertex_scene(1e154, voxel_size=1e160, epoch=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflowError, match="squared distances"):
                register_scene(scene, cfg)


_CELL_POINTS = st.integers(1, 30).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, (n, 3), elements=st.integers(-3, 3)),
    hnp.arrays(np.float64, (n, 3), elements=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)),
))
_GROUPED = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.integers(1, 4).flatmap(lambda c: hnp.arrays(
        np.float64, (n, c),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1]) | st.floats(-10.0, 10.0),
    )),
    st.integers(n, n + 3).flatmap(lambda groups: st.tuples(
        st.just(groups),
        hnp.arrays(np.int64, n, elements=st.integers(0, groups - 1)),
    )),
))


class TestGroupingOracles:
    """The voxel ids and group means against the numpy calls they replace."""

    @example(cells_frac=(np.array([[0, 0, 0]]), np.zeros((1, 3))), size=0.4)
    @given(cells_frac=_CELL_POINTS, size=st.sampled_from([0.4, 0.25, 1.0, 3.0]))
    def test_voxel_ids_match_unique_rows(self, cells_frac, size):
        # small integer cells repeat and go negative; a fraction of 0.0 puts
        # the point on a cell boundary
        cells, frac = cells_frac
        points = (cells + frac) * size
        ids, count = pipeline._voxel_ids(points, size)
        uniq, inverse = np.unique(
            np.floor(points / size).astype(np.int64), axis=0, return_inverse=True
        )
        assert ids.tobytes() == inverse.reshape(-1).tobytes()
        assert count == uniq.shape[0]

    # one channel, groups of one member, empty groups, and sums of -0.0
    @example(grouped=(np.array([[-0.0], [1.0], [-0.0]]), (5, np.array([3, 1, 0]))))
    @example(grouped=(np.array([[-0.0, 2.0], [-0.0, -2.0]]), (2, np.array([1, 1]))))
    @given(grouped=_GROUPED)
    def test_group_means_match_add_at(self, grouped):
        feats, (groups, ids) = grouped
        got, present = pipeline._group_means(feats, pipeline._Members.index(ids, groups))
        sums = np.zeros((groups, feats.shape[1]))
        np.add.at(sums, ids, feats)
        counts = np.bincount(ids, minlength=groups).astype(np.float64)
        want_present = np.flatnonzero(counts > 0)
        assert present.tobytes() == want_present.tobytes()
        assert got.tobytes() == (sums[want_present] / counts[want_present, None]).tobytes()

    def test_members_are_the_flatnonzero_scans(self):
        scene, cfg = small_scene(seed=6)
        prep = prepare_scene(scene, cfg)
        tiles = pipeline._tile_ids(
            scene.gt_correspondences.pixels, scene.intrinsics, cfg.tile_rows, cfg.tile_cols
        )
        cells, cell_count = pipeline._voxel_ids(scene.cloud, cfg.voxel_size)
        for members, ids, count in ((prep.tiles, tiles, cfg.tile_rows * cfg.tile_cols),
                                    (prep.cells, cells, cell_count)):
            assert members.present().tolist() == np.unique(ids).tolist()
            for group in range(count):
                assert members.of(group).tobytes() == np.flatnonzero(ids == group).tobytes()
