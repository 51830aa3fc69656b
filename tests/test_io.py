"""Round trips and byte determinism for every on-disk format."""

import numpy as np
import pytest

from crossreg.errors import BundleError
from crossreg.io import (
    load_scene_bundle,
    read_correspondences,
    read_depth,
    read_intrinsics,
    read_normals,
    read_patches,
    read_ply,
    save_scene_bundle,
    write_correspondences,
    write_depth,
    write_intrinsics,
    write_normals,
    write_patches,
    write_ply,
    write_pose_estimate,
)
from crossreg.matching import CorrespondenceSet
from crossreg.normals import DepthMap, NormalField
from crossreg.pose import PoseEstimate
from crossreg.geometry import RigidTransform, rotation_from_axis_angle
from crossreg.synth import SceneSpec, generate_scene


def random_cloud(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) * np.array([1.0, 0.5, 2.0]) + [0, 0, 2]


class TestPointClouds:
    def test_ply_round_trip_exact(self, tmp_path):
        pts = random_cloud()
        write_ply(tmp_path / "c.ply", pts)
        np.testing.assert_array_equal(read_ply(tmp_path / "c.ply"), pts)

    def test_ply_rewrite_byte_identical(self, tmp_path):
        pts = random_cloud(seed=1)
        write_ply(tmp_path / "a.ply", pts)
        write_ply(tmp_path / "b.ply", pts)
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()

    def test_ply_rejects_garbage(self, tmp_path):
        (tmp_path / "bad.ply").write_text("not a ply\n")
        with pytest.raises(BundleError):
            read_ply(tmp_path / "bad.ply")

    def test_ply_truncated_body(self, tmp_path):
        pts = random_cloud(n=5)
        write_ply(tmp_path / "c.ply", pts)
        text = (tmp_path / "c.ply").read_text().splitlines()
        (tmp_path / "cut.ply").write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(BundleError):
            read_ply(tmp_path / "cut.ply")


class TestRasters:
    def test_depth_round_trip(self, tmp_path):
        vals = np.random.default_rng(3).uniform(0.5, 4.0, (12, 16))
        vals[2, 3] = np.nan
        depth = DepthMap.from_values(vals)
        write_depth(tmp_path / "d.bin", depth)
        back = read_depth(tmp_path / "d.bin")
        assert back.shape == (12, 16)
        np.testing.assert_array_equal(back.valid, depth.valid)
        np.testing.assert_allclose(
            back.values[back.valid], depth.values[depth.valid], rtol=1e-6
        )

    def test_depth_header_checked(self, tmp_path):
        (tmp_path / "d.bin").write_bytes(b"WRONG 4 4\n" + b"\x00" * 64)
        with pytest.raises(BundleError):
            read_depth(tmp_path / "d.bin")

    def test_depth_payload_size_checked(self, tmp_path):
        (tmp_path / "d.bin").write_bytes(b"DEPTH 4 4\n" + b"\x00" * 32)
        with pytest.raises(BundleError):
            read_depth(tmp_path / "d.bin")

    def test_grid_normals_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(6, 8, 3))
        raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
        valid = rng.random((6, 8)) > 0.3
        field = NormalField(np.where(valid[..., None], raw, 0.0), valid)
        write_normals(tmp_path / "n.bin", field)
        back = read_normals(tmp_path / "n.bin")
        np.testing.assert_array_equal(back.valid, valid)
        assert np.abs(back.normals[valid] - raw[valid]).max() < 1e-6

    def test_point_normals_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(30, 3))
        raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
        valid = np.ones(30, dtype=bool)
        valid[4] = False
        field = NormalField(np.where(valid[:, None], raw, 0.0), valid)
        write_normals(tmp_path / "n.bin", field)
        back = read_normals(tmp_path / "n.bin")
        assert back.normals.shape == (30, 3)
        np.testing.assert_array_equal(back.valid, valid)
        assert np.abs(back.normals[valid] - raw[valid]).max() < 1e-6


class TestJsonRecords:
    def test_intrinsics_round_trip(self, tmp_path):
        from crossreg.synth import DEFAULT_INTRINSICS

        write_intrinsics(tmp_path / "k.json", DEFAULT_INTRINSICS)
        assert read_intrinsics(tmp_path / "k.json") == DEFAULT_INTRINSICS

    def test_intrinsics_missing_key(self, tmp_path):
        (tmp_path / "k.json").write_text('{"fx": 500.0}\n')
        with pytest.raises(BundleError):
            read_intrinsics(tmp_path / "k.json")

    def test_pose_estimate_keys(self, tmp_path):
        import json

        t = RigidTransform(rotation_from_axis_angle([0.1, 0.2, 0.3]), [0.1, 0.2, 0.3])
        est = PoseEstimate(t, np.array([True, False, True]), 0.25)
        write_pose_estimate(tmp_path / "pose.json", est)
        raw = json.loads((tmp_path / "pose.json").read_text())
        assert set(raw) == {"rotation", "translation", "inliers", "mean_reproj_px"}
        assert raw["inliers"] == 2
        assert len(raw["rotation"]) == 9 and len(raw["translation"]) == 3

    def test_correspondence_csv_round_trip(self, tmp_path):
        corrs = CorrespondenceSet(
            np.array([[1.0, 2.0], [3.5, 4.25]]),
            np.array([7, 9]),
            np.array([0.5, 0.125]),
        )
        write_correspondences(tmp_path / "c.csv", corrs)
        text = (tmp_path / "c.csv").read_text()
        assert text.startswith("u,v,point_index,score\n")
        back = read_correspondences(tmp_path / "c.csv")
        np.testing.assert_array_equal(back.pixels, corrs.pixels)
        np.testing.assert_array_equal(back.point_indices, corrs.point_indices)
        np.testing.assert_array_equal(back.scores, corrs.scores)

    def test_correspondence_header_checked(self, tmp_path):
        (tmp_path / "c.csv").write_text("a,b,c\n")
        with pytest.raises(BundleError):
            read_correspondences(tmp_path / "c.csv")


class TestPatches:
    def test_round_trip_exact(self, tmp_path):
        patches = ((3, 17, 0.9999999999999998), (0, 4, -0.125), (47, 0, 1.0000000000000004))
        write_patches(tmp_path / "p.csv", patches)
        text = (tmp_path / "p.csv").read_text()
        assert text.startswith("img_patch_id,cloud_patch_id,score\n3,17,0.9999999999999998\n")
        assert read_patches(tmp_path / "p.csv") == patches
        write_patches(tmp_path / "e.csv", ())
        assert read_patches(tmp_path / "e.csv") == ()

    def test_overlap_layout_rejected(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "img_patch_id,cloud_patch_id,overlap_2d,overlap_3d\n3,17,0.5,1.0\n"
        )
        with pytest.raises(BundleError, match="header"):
            read_patches(tmp_path / "p.csv")


class TestSceneBundle:
    def test_save_load_preserves_scene(self, tmp_path):
        scene = generate_scene(SceneSpec(point_count=400), seed=12)
        save_scene_bundle(tmp_path / "scene", scene)
        back = load_scene_bundle(tmp_path / "scene")
        np.testing.assert_array_equal(back.cloud, scene.cloud)
        np.testing.assert_array_equal(
            back.gt_transform.rotation, scene.gt_transform.rotation
        )
        np.testing.assert_array_equal(
            back.gt_correspondences.pixels, scene.gt_correspondences.pixels
        )
        np.testing.assert_array_equal(back.depth.valid, scene.depth.valid)
        assert back.seed == scene.seed
        assert back.intrinsics == scene.intrinsics
        diffs = back.depth.values[back.depth.valid] - scene.depth.values[scene.depth.valid]
        assert np.abs(diffs).max() < 1e-6

    def test_rewrite_byte_identical(self, tmp_path):
        scene = generate_scene(SceneSpec(point_count=300), seed=8)
        save_scene_bundle(tmp_path / "a", scene)
        save_scene_bundle(tmp_path / "b", scene)
        for name in ("cloud.ply", "depth.bin", "intrinsics.json", "gt_pose.json", "gt_corrs.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_missing_file_raises(self, tmp_path):
        scene = generate_scene(SceneSpec(point_count=300), seed=8)
        save_scene_bundle(tmp_path / "scene", scene)
        (tmp_path / "scene" / "gt_corrs.csv").unlink()
        with pytest.raises(BundleError):
            load_scene_bundle(tmp_path / "scene")

    def test_unwritable_target_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        scene = generate_scene(SceneSpec(point_count=300), seed=8)
        with pytest.raises(BundleError):
            save_scene_bundle(blocker / "scene", scene)
