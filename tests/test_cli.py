"""CLI behavior: exit codes, file outputs, determinism, parallel equivalence."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import crossreg
from crossreg.cli import main
from crossreg.io import (
    load_scene_bundle,
    read_correspondences,
    read_normals,
    read_patches,
    read_ply,
    read_pose,
    write_normals,
    write_ply,
)
from crossreg.normals import estimate_point_normals_adaptive
from crossreg.pipeline import PipelineConfig, evaluate_scene, register_scene

SMALL = ["--set", "point_count=600", "--set", "scene_count=2"]


def run(*argv) -> int:
    return main(list(argv))


def synth_scenes(tmp_path: Path, *extra) -> Path:
    out = tmp_path / "scenes"
    assert run("synth", "--out", str(out), *SMALL, *extra) == 0
    return out


def file_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfigPlumbing:
    def test_config_file_and_set_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"point_count": 600, "scene_count": 3}))
        out = tmp_path / "scenes"
        code = run(
            "synth", "--out", str(out), "--config", str(cfg_file),
            "--set", "scene_count=1",
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["scene_0000"]

    def test_unknown_config_key_exits_1(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "s"), "--set", "bogus=1") == 1

    def test_malformed_set_exits_1(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "s"), "--set", "k_neighbors") == 1

    def test_non_json_set_value_exits_1(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "s"), "--set", "voxel_size=abc") == 1

    def test_non_finite_set_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run("synth", "--out", str(out), "--set", "max_rotation_deg=NaN") == 1
        assert "max_rotation_deg must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "s"), "--config", "/no/such.json") == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("synth")  # --out missing
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("transmogrify")
        assert exc.value.code == 1

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    @pytest.mark.parametrize("command", [
        ["synth", "--out", "s"],
        ["eval", "--scenes", "s", "--results", "r", "--out", "e.json"],
        ["ablate", "--sweep", "k", "--out", "a.csv"],
    ])
    def test_jobs_below_one_exits_1(self, tmp_path, monkeypatch, capsys, command, jobs):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*command, "--jobs", jobs)
        assert exc.value.code == 1
        assert "--jobs" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSynth:
    def test_writes_bundles(self, tmp_path):
        out = synth_scenes(tmp_path)
        assert sorted(p.name for p in out.iterdir()) == ["scene_0000", "scene_0001"]
        scene = load_scene_bundle(out / "scene_0000")
        assert scene.cloud.shape == (600, 3)
        assert scene.seed == 0

    def test_base_seed_offsets_scene_seeds(self, tmp_path):
        out = tmp_path / "scenes"
        assert run("synth", "--out", str(out), *SMALL, "--set", "base_seed=40") == 0
        assert load_scene_bundle(out / "scene_0001").seed == 41

    def test_rerun_byte_identical(self, tmp_path):
        first = file_bytes(synth_scenes(tmp_path))
        again = tmp_path / "again"
        assert run("synth", "--out", str(again), *SMALL) == 0
        assert file_bytes(again) == first

    def test_parallel_matches_serial(self, tmp_path):
        serial = file_bytes(synth_scenes(tmp_path))
        par = tmp_path / "par"
        assert run("synth", "--out", str(par), *SMALL, "--jobs", "2") == 0
        assert file_bytes(par) == serial


class TestRegister:
    def test_writes_pose_correspondences_patches(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        out = tmp_path / "res"
        assert run("register", "--scene", str(scenes / "scene_0000"), "--out", str(out)) == 0
        payload = json.loads((out / "pose.json").read_text())
        assert set(payload) == {"rotation", "translation", "inliers", "mean_reproj_px"}
        corrs = read_correspondences(out / "correspondences.csv")
        assert len(corrs) > 50
        patches = read_patches(out / "patches.csv")
        assert len(patches) > 0
        grid = json.loads((out / "grid.json").read_text())
        assert grid == {"tile_rows": 6, "tile_cols": 8, "voxel_size": 0.4}
        gt = load_scene_bundle(scenes / "scene_0000").gt_transform
        est = read_pose(out / "pose.json")
        assert np.linalg.norm(est.translation - gt.translation) < 2e-3

    def test_rerun_byte_identical(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("register", "--scene", str(scenes / "scene_0000"), "--out", str(a)) == 0
        assert run("register", "--scene", str(scenes / "scene_0000"), "--out", str(b)) == 0
        assert file_bytes(a) == file_bytes(b)

    def test_all_outlier_features_exit_2(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        code = run(
            "register", "--scene", str(scenes / "scene_0000"),
            "--out", str(tmp_path / "res"),
            "--set", "outlier_fraction=1.0",
        )
        assert code == 2

    def test_degenerate_refit_scene_registers(self, tmp_path):
        # the final PnP refit on this scene's voted inliers is degenerate
        refit = ["--set", "point_count=800", "--set", "outlier_fraction=0.4",
                 "--set", "min_fine_score=0.2"]
        scenes = tmp_path / "scenes"
        assert run("synth", "--out", str(scenes), "--set", "scene_count=1",
                   "--set", "base_seed=1", *refit) == 0
        out = tmp_path / "res"
        assert run("register", "--scene", str(scenes / "scene_0000"),
                   "--out", str(out), *refit) == 0
        assert (out / "pose.json").is_file()

    def test_missing_bundle_exit_1(self, tmp_path):
        assert run("register", "--scene", str(tmp_path / "nope"), "--out", str(tmp_path / "r")) == 1


def edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def with_column(row: str, column: int, value: str) -> str:
    cells = row.split(",")
    cells[column] = value
    return ",".join(cells)


def json_with(text: str, key: str, value) -> str:
    return json.dumps({**json.loads(text), key: value})


def edit_file(path: Path, index, edit) -> None:
    """edit_line when index is a line number, else edit the whole text or bytes."""
    if index is not None:
        edit_line(path, index, edit)
    elif path.suffix == ".bin":
        path.write_bytes(edit(path.read_bytes()))
    else:
        path.write_text(edit(path.read_text()))


def repeat_first_pixel(text: str) -> str:
    """gt_corrs.csv text whose second row holds the first row's pixel."""
    lines = text.splitlines()
    lines[2] = ",".join(lines[1].split(",")[:2] + lines[2].split(",")[2:])
    return "\n".join(lines) + "\n"


def swap_first_rows(text: str) -> str:
    lines = text.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    return "\n".join(lines) + "\n"


@pytest.fixture
def tiny_bundle(tmp_path) -> Path:
    bundles = synth_scenes(tmp_path, "--set", "point_count=300", "--set", "scene_count=1")
    return bundles / "scene_0000"


class TestMalformedBundle:
    # each of these once ended the process with a traceback
    @pytest.mark.parametrize(
        "name, index, edit",
        [
            ("cloud.ply", 7, lambda row: "nan 0.0 2.0"),  # first vertex
            ("gt_corrs.csv", 1, lambda row: with_column(row, 2, "600")),  # past the cloud
            ("gt_corrs.csv", 1, lambda row: with_column(row, 0, "5110.0")),  # u >= width
            ("gt_corrs.csv", 1, lambda row: with_column(row, 1, "-1.0")),
            # the pipeline would truncate these and eval would round them
            ("gt_corrs.csv", 1, lambda row: with_column(row, 0, "477.6")),
            ("gt_corrs.csv", None, repeat_first_pixel),
            ("gt_corrs.csv", None, swap_first_rows),
        ],
        ids=[
            "nan_vertex", "index_past_cloud", "u_past_width", "negative_v",
            "fractional_u", "repeated_pixel", "swapped_rows",
        ],
    )
    def test_register_exits_1(self, tmp_path, capsys, name, index, edit):
        bundle = synth_scenes(tmp_path) / "scene_0000"
        edit_file(bundle / name, index, edit)
        out = tmp_path / "res"
        assert run("register", "--scene", str(bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bundle {bundle}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit", [repeat_first_pixel, swap_first_rows])
    def test_eval_of_a_bundle_edited_after_register_exits_1(
        self, tiny_bundle, tmp_path, capsys, edit
    ):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        edit_file(tiny_bundle / "gt_corrs.csv", None, edit)
        capsys.readouterr()
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                   "--out", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bundle {tiny_bundle}: ") and "Traceback" not in err

    def test_eval_of_a_pixel_without_depth_prints_plain_floats(
        self, tiny_bundle, tmp_path, capsys
    ):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        edit_line(results / "correspondences.csv", 1,
                  lambda row: "0.0,0.0," + row.split(",", 2)[2])
        capsys.readouterr()
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                   "--out", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err == "error: no valid depth at pixel (0.0, 0.0)\n"

    @pytest.mark.parametrize(
        "name, index, edit",
        [
            ("cloud.ply", 7, lambda row: "abc 0.0 1.0"),
            ("cloud.ply", 2, lambda row: "element vertex x"),
            ("cloud.ply", 7, lambda row: "0.0 1.0"),
            ("gt_corrs.csv", 1, lambda row: with_column(row, 2, "x")),
            ("gt_corrs.csv", 1, lambda row: row.rsplit(",", 1)[0]),
            ("gt_corrs.csv", 1, lambda row: with_column(row, 0, "nan")),
            ("intrinsics.json", None, lambda text: json_with(text, "height", "x")),
            ("intrinsics.json", None, lambda text: text[:-3]),
            ("gt_pose.json", None, lambda text: text[:-3]),
            ("gt_pose.json", None, lambda text: json_with(text, "seed", "x")),
            ("depth.bin", None, lambda blob: blob.replace(b"DEPTH ", b"DEPTH x", 1)),
        ],
        ids=[
            "non_numeric_vertex", "non_integer_vertex_count", "two_token_vertex",
            "non_integer_point_index", "missing_column", "nan_pixel", "non_integer_height",
            "intrinsics_not_json", "pose_not_json", "non_integer_seed", "depth_header",
        ],
    )
    def test_unparsable_file_exits_1(self, tiny_bundle, tmp_path, capsys, name, index, edit):
        path = tiny_bundle / name
        edit_file(path, index, edit)
        out = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, index, edit",
        [
            ("patches.csv", 1, lambda row: with_column(row, 1, "x")),
            ("pose.json", None, lambda text: text[:-3]),
            ("grid.json", None, lambda text: text[:-3]),
            ("grid.json", None, lambda text: json_with(text, "tile_rows", "6")),
            ("grid.json", None, lambda text: json_with(text, "voxel_size", None)),
            ("grid.json", None, lambda text: "[6, 8, 0.4]"),
            ("grid.json", None, lambda text: json.dumps({"tile_rows": 6})),
        ],
        ids=[
            "non_integer_patch_id", "pose_not_json", "grid_not_json", "string_tile_rows",
            "null_voxel_size", "grid_not_an_object", "grid_missing_keys",
        ],
    )
    def test_eval_of_unparsable_result_exits_1(
        self, tiny_bundle, tmp_path, capsys, name, index, edit
    ):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        path = results / name
        edit_file(path, index, edit)
        capsys.readouterr()
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                   "--out", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("adaptive", ["false", "true"])
    def test_normals_on_cloud_of_k_points_exits_1(self, tmp_path, capsys, adaptive):
        bundle = synth_scenes(tmp_path) / "scene_0000"
        write_ply(bundle / "cloud.ply", read_ply(bundle / "cloud.ply")[:8])
        (bundle / "gt_corrs.csv").write_text("u,v,point_index,score\n")
        code = run("normals", "--scene", str(bundle), "--out", str(tmp_path / "n"),
                   "--set", "k_neighbors=8", "--set", f"adaptive_k={adaptive}")
        assert code == 1
        assert "cannot support k" in capsys.readouterr().err


class TestCoordinateOverflow:
    # each of these once exited 0 on a collapsed voxel grid or ended the
    # process with a traceback
    def exits_1(self, capsys, *argv) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def far_vertex(self, bundle: Path, coordinate: str) -> Path:
        edit_line(bundle / "cloud.ply", 7, lambda row: f"{coordinate} 0.0 2.0")
        return bundle

    @pytest.mark.parametrize("epoch", [0, 15])
    def test_register_far_vertex(self, tiny_bundle, tmp_path, capsys, epoch):
        bundle = self.far_vertex(tiny_bundle, "1e200")
        out = tmp_path / "res"
        err = self.exits_1(capsys, "register", "--scene", str(bundle), "--out", str(out),
                           "--set", f"epoch={epoch}")
        assert "cell ids overflow int64" in err
        assert not out.exists()

    def test_register_far_vertex_in_large_voxels_at_epoch_15(
        self, tiny_bundle, tmp_path, capsys
    ):
        # the voxel ids fit, so the refinement's cloud graph overflows first
        bundle = self.far_vertex(tiny_bundle, "1e154")
        err = self.exits_1(capsys, "register", "--scene", str(bundle),
                           "--out", str(tmp_path / "res"),
                           "--set", "epoch=15", "--set", "voxel_size=1e160")
        assert "squared distances overflow" in err

    def test_register_tiny_voxels(self, tiny_bundle, tmp_path, capsys):
        err = self.exits_1(capsys, "register", "--scene", str(tiny_bundle),
                           "--out", str(tmp_path / "res"), "--set", "voxel_size=1e-300")
        assert "voxel_size 1e-300" in err

    def test_eval_tiny_voxels(self, tiny_bundle, tmp_path, capsys):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        edit_file(results / "grid.json", None, lambda text: json_with(text, "voxel_size", 1e-300))
        err = self.exits_1(capsys, "eval", "--scenes", str(tiny_bundle),
                           "--results", str(results), "--out", str(tmp_path / "r.json"),
                           "--set", "voxel_size=1e-300")
        assert "voxel_size 1e-300" in err
        assert not (tmp_path / "r.json").exists()

    def test_eval_far_matched_vertex(self, tiny_bundle, tmp_path, capsys):
        # the metrics would overflow on the vertex; the voxel ids fail first,
        # so the error line is all that is printed
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        matched = int(read_correspondences(results / "correspondences.csv").point_indices[0])
        edit_line(tiny_bundle / "cloud.ply", 7 + matched, lambda row: "1e200 0.0 2.0")
        capsys.readouterr()
        err = self.exits_1(capsys, "eval", "--scenes", str(tiny_bundle),
                           "--results", str(results), "--out", str(tmp_path / "r.json"))
        assert len(err.splitlines()) == 1 and "cell ids overflow int64" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("adaptive", ["false", "true"])
    def test_normals_far_vertex(self, tiny_bundle, tmp_path, capsys, adaptive):
        bundle = self.far_vertex(tiny_bundle, "1e200")
        err = self.exits_1(capsys, "normals", "--scene", str(bundle),
                           "--out", str(tmp_path / "n"), "--set", f"adaptive_k={adaptive}")
        assert "squared distances overflow" in err


class TestEval:
    def register_all(self, tmp_path, scenes: Path, **kwargs) -> Path:
        results = tmp_path / "results"
        for bundle in sorted(scenes.iterdir()):
            extra = [x for k, v in kwargs.items() for x in ("--set", f"{k}={v}")]
            assert run(
                "register", "--scene", str(bundle), "--out", str(results / bundle.name), *extra
            ) == 0
        return results

    def test_report_structure(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        results = self.register_all(tmp_path, scenes)
        report_path = tmp_path / "report.json"
        assert run("eval", "--scenes", str(scenes), "--results", str(results),
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"scenes", "mean", "median"}
        assert len(report["scenes"]) == 2
        assert report["mean"]["inlier_ratio"] == 1.0
        assert report["mean"]["feature_matching_recall"] == 1.0
        assert report["mean"]["registration_recall"] == 1.0

    def test_single_bundle_dir_is_one_scene(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        results = self.register_all(tmp_path, scenes)
        report_path = tmp_path / "single.json"
        assert run(
            "eval", "--scenes", str(scenes / "scene_0000"),
            "--results", str(results / "scene_0000"), "--out", str(report_path),
        ) == 0
        assert len(json.loads(report_path.read_text())["scenes"]) == 1

    def test_length_mismatch_exit_1(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        results = self.register_all(tmp_path, scenes)
        assert run(
            "eval", "--scenes", str(scenes / "scene_0000"),
            "--results", str(results), "--out", str(tmp_path / "r.json"),
        ) == 1

    def test_coarser_voxels_than_register_exits_1(self, tmp_path, capsys):
        # eval recomputes each coarse pair's members from its own config
        scenes = tmp_path / "scenes"
        assert run("synth", "--out", str(scenes), "--set", "scene_count=1") == 0
        results = self.register_all(tmp_path, scenes)
        capsys.readouterr()
        assert run("eval", "--scenes", str(scenes), "--results", str(results),
                   "--out", str(tmp_path / "r.json"), "--set", "voxel_size=0.8") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(6, 8, 0.4)" in err and "(6, 8, 0.8)" in err

    # a finer grid would score the pairs as disjoint (PIR 0.0 at
    # voxel_size 0.2) and exit 0; any grid but the registration's fails
    @pytest.mark.parametrize(
        "setting, grid",
        [("voxel_size=0.2", "(6, 8, 0.2)"), ("tile_cols=4", "(6, 4, 0.4)")],
        ids=["finer_voxels", "other_tiles"],
    )
    def test_other_grid_than_register_exits_1(self, tmp_path, capsys, setting, grid):
        scenes = tmp_path / "scenes"
        assert run("synth", "--out", str(scenes), "--set", "scene_count=1") == 0
        results = self.register_all(tmp_path, scenes)
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("eval", "--scenes", str(scenes), "--results", str(results),
                   "--out", str(out), "--set", setting) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(6, 8, 0.4)" in err and grid in err
        assert not out.exists()

    def test_same_grid_as_register_scores_it(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        grid = {"tile_rows": 4, "tile_cols": 4, "voxel_size": 0.3}
        results = self.register_all(tmp_path, scenes, **grid)
        for bundle in sorted(scenes.iterdir()):
            assert json.loads((results / bundle.name / "grid.json").read_text()) == grid
        out = tmp_path / "r.json"
        settings = [x for k, v in grid.items() for x in ("--set", f"{k}={v}")]
        assert run("eval", "--scenes", str(scenes), "--results", str(results),
                   "--out", str(out), *settings) == 0
        # the same PIR as scoring the registration in memory
        config = PipelineConfig.from_mapping({"point_count": 600, **grid})
        for bundle, row in zip(sorted(scenes.iterdir()), json.loads(out.read_text())["scenes"]):
            scene = load_scene_bundle(bundle)
            result = register_scene(scene, config)
            want = evaluate_scene(
                scene, result.correspondences, result.estimate.transform, result.patches, config
            )
            assert row["pir"] == want.pir > 0.0

    def test_ground_truth_behind_the_camera_scores_zero(self, tiny_bundle, tmp_path):
        first = tmp_path / "first"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(first)) == 0
        pose_path = tiny_bundle / "gt_pose.json"
        pose = json.loads(pose_path.read_text())
        gt = read_pose(pose_path)
        depth = gt.apply(read_ply(tiny_bundle / "cloud.ply"))[:, 2]
        pose["translation"][2] -= float(depth.max()) + 1.0  # every point behind
        pose_path.write_text(json.dumps(pose))
        again = tmp_path / "again"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(again)) == 0
        assert file_bytes(again) == file_bytes(first)
        out = tmp_path / "r.json"
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(again),
                   "--out", str(out)) == 0
        mean = json.loads(out.read_text())["mean"]
        assert (mean["inlier_ratio"], mean["pir"], mean["registration_recall"]) == (0, 0, 0)

    def test_results_without_grid_exit_1(self, tiny_bundle, tmp_path, capsys):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        (results / "grid.json").unlink()
        capsys.readouterr()
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                   "--out", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err.startswith(f"error: {results / 'grid.json'}: missing")

    def test_parallel_matches_serial(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        results = self.register_all(tmp_path, scenes)
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert run("eval", "--scenes", str(scenes), "--results", str(results),
                   "--out", str(serial)) == 0
        assert run("eval", "--scenes", str(scenes), "--results", str(results),
                   "--out", str(parallel), "--jobs", "2") == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestOsErrors:
    """A path that cannot be read or written exits 1 with an error line."""

    def exits_1(self, capsys, *argv) -> None:
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_eval_of_missing_scenes_or_results(self, tiny_bundle, tmp_path, capsys):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        missing = str(tmp_path / "nope")
        report = str(tmp_path / "r.json")
        self.exits_1(capsys, "eval", "--scenes", missing, "--results", str(results),
                     "--out", report)
        self.exits_1(capsys, "eval", "--scenes", str(tiny_bundle), "--results", missing,
                     "--out", report)

    def test_eval_out_under_missing_directory(self, tiny_bundle, tmp_path, capsys):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        self.exits_1(capsys, "eval", "--scenes", str(tiny_bundle), "--results", str(results),
                     "--out", str(tmp_path / "nope" / "r.json"))

    def test_ablate_out_under_missing_directory(self, tmp_path, capsys):
        self.exits_1(capsys, "ablate", "--sweep", "mask_ratio", "--values", "[0.0]",
                     "--set", "point_count=300", "--set", "scene_count=1",
                     "--out", str(tmp_path / "nope" / "x.csv"))

    def test_losses_out_under_missing_directory(self, tmp_path, capsys):
        self.exits_1(capsys, "losses", "--out", str(tmp_path / "nope" / "l.json"))

    def test_register_out_naming_a_file(self, tiny_bundle, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        self.exits_1(capsys, "register", "--scene", str(tiny_bundle), "--out", str(blocker))


class TestAblate:
    def test_default_values_k_sweep(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run("ablate", "--sweep", "k", "--out", str(out), *SMALL) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "setting,ir,fmr,rr"
        assert len(lines) == 5
        assert [float(l.split(",")[0]) for l in lines[1:]] == [2.0, 4.0, 8.0, 16.0]

    def test_explicit_values_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ablate", "--sweep", "mask_ratio", "--values", "[0.0,0.4]", *SMALL]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b), "--jobs", "2") == 0
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().splitlines()[1:]
        irs = [float(r.split(",")[1]) for r in rows]
        assert irs[1] <= irs[0] == 1.0

    def test_empty_sweep_exit_1(self, tmp_path):
        assert run("ablate", "--sweep", "k", "--values", "[]",
                   "--out", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("sweep, values", [
        ("mask_ratio", '["a"]'),
        ("k", "[null]"),
        ("k", "[2.5]"),
        ("warmup", "[true]"),
    ])
    def test_values_the_config_rejects_exit_1(self, tmp_path, capsys, sweep, values):
        out = tmp_path / "x.csv"
        assert run("ablate", "--sweep", sweep, "--values", values, "--out", str(out)) == 1
        assert "expects" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("ablate", "--sweep", "gaussian_sigma", "--values", "[NaN]",
                   "--out", str(out)) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unregistrable_scene_is_a_miss_row(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("ablate", "--sweep", "mask_ratio", "--values", "[0.0]",
                   "--set", "point_count=300", "--set", "scene_count=1",
                   "--set", "outlier_fraction=1.0", "--out", str(out)) == 0
        assert out.read_text() == "setting,ir,fmr,rr\n0.0,0.0,0.0,0.0\n"

    def test_invalid_sweep_name_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("ablate", "--sweep", "blur", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 1


class TestNormals:
    def test_writes_point_and_depth_normals(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        out = tmp_path / "norm"
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(out)) == 0
        points = read_normals(out / "point_normals.bin")
        assert points.normals.shape == (600, 3)
        assert points.valid.sum() > 500
        scene = load_scene_bundle(scenes / "scene_0000")
        grid = read_normals(out / "depth_normals.bin")
        assert grid.normals.shape == scene.depth.shape + (3,)

    def test_rerun_byte_identical(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(a)) == 0
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(b)) == 0
        assert file_bytes(a) == file_bytes(b)


    def test_adaptive_k_below_three_floors_at_three(self, tmp_path):
        scene = str(synth_scenes(tmp_path) / "scene_0000")
        low, floor = tmp_path / "low", tmp_path / "floor"
        adaptive = ["--set", "adaptive_k=true"]
        assert run("normals", "--scene", scene, "--out", str(low), *adaptive,
                   "--set", "k_neighbors=2") == 0
        assert run("normals", "--scene", scene, "--out", str(floor), *adaptive,
                   "--set", "k_neighbors=3") == 0
        assert file_bytes(low) == file_bytes(floor)

    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_adaptive_fits_sparse_points_over_k_plus_4(self, tmp_path, k):
        # the rule registration's lifted normals use too
        scene = synth_scenes(tmp_path) / "scene_0000"
        out = tmp_path / "n"
        assert run("normals", "--scene", str(scene), "--out", str(out),
                   "--set", "adaptive_k=true", "--set", f"k_neighbors={k}") == 0
        k0 = max(k, 3)
        want = estimate_point_normals_adaptive(read_ply(scene / "cloud.ply"), k0, k0 + 4)
        write_normals(tmp_path / "want.bin", want)
        assert (out / "point_normals.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


class TestLosses:
    def test_records_structure(self, tmp_path):
        out = tmp_path / "losses.json"
        assert run("losses", "--out", str(out)) == 0
        records = json.loads(out.read_text())["records"]
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {
            "match_loss",
            "normal_consistency_loss",
            "gdc_loss",
            "total_loss",
            "mmd",
            "normal_consistency_grad_rel_err",
            "gdc_grad_rel_err",
        }
        for record in records:
            assert set(record) == {"name", "value", "epoch", "weight"}
        assert by_name["normal_consistency_grad_rel_err"]["value"] < 1e-4
        assert by_name["gdc_grad_rel_err"]["value"] < 1e-4
        # default epoch 0 predates the warm-up window, so gdc carries no weight
        assert by_name["gdc_loss"]["weight"] == 0.0
        assert by_name["total_loss"]["value"] == pytest.approx(
            by_name["match_loss"]["value"] + by_name["normal_consistency_loss"]["value"]
        )

    def test_epoch_inside_warmup_scales_gdc_weight(self, tmp_path):
        out = tmp_path / "losses.json"
        assert run("losses", "--out", str(out), "--set", "epoch=15") == 0
        records = json.loads(out.read_text())["records"]
        by_name = {r["name"]: r for r in records}
        assert by_name["gdc_loss"]["weight"] == 0.25  # lambda_gdc 0.5 * blend 0.5
        assert by_name["gdc_loss"]["epoch"] == 15

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("losses", "--out", str(a)) == 0
        assert run("losses", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "losses.json"
        # the child imports the package the tests import, installed or not
        package_root = str(Path(crossreg.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "crossreg.cli", "losses", "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert out.is_file()
