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
from crossreg.errors import BundleError
from crossreg.graph import knn_indices
from crossreg.io import (
    load_scene_bundle,
    read_correspondences,
    read_normals,
    read_patches,
    read_pixel_table,
    read_ply,
    read_pose,
    save_scene_bundle,
    write_normals,
    write_ply,
)
from crossreg.normals import estimate_point_normals
from crossreg.pipeline import PipelineConfig, evaluate_scene, prepare_scene, register_scene
from crossreg.synth import SceneSpec, generate_scene

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

    @pytest.mark.parametrize("key, value", [
        ("point_count", "NaN"),
        ("point_count", "Infinity"),
        ("point_count", "-Infinity"),
        ("point_count", "1" + "0" * 400),
        ("voxel_size", "-1" + "0" * 400),
    ], ids=["nan", "inf", "minus_inf", "int_past_float64", "int_past_float64_float_key"])
    def test_non_finite_or_past_float64_set_value_exits_1(self, tmp_path, capsys, key, value):
        # int() or float() once raised on these, and the command ended with a
        # traceback
        out = tmp_path / "s"
        assert run("synth", "--out", str(out), "--set", f"{key}={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("max_translation_m", "1e308"),
        ("max_rotation_deg", "1e200"),
    ], ids=["translation", "rotation"])
    def test_pose_bound_past_its_range_exits_1(self, tmp_path, capsys, key, value):
        # the translation draw and the axis-angle norm once overflowed on
        # these, and the command ended with a traceback
        out = tmp_path / "s"
        assert run("synth", "--out", str(out), "--set", f"{key}={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite and lie in [0.0, ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, settings, message", [
        ("register", ["tile_rows=1", "tile_cols=9223372036854775808"],
         "tile_cols must be finite and lie in [1, 9223372036854775807], got 9223372036854775808"),
        ("normals", ["k_neighbors=1e30"],
         "k_neighbors must be finite and lie in [2, 4611686018427387904], got 1e+30"),
        ("register", ["channels=1e30"],
         "channels must be finite and lie in [4, 536870912], got 1e+30"),
        ("losses", ["channels=1e30"],
         "channels must be finite and lie in [4, 536870912], got 1e+30"),
        ("synth", ["point_count=1e30"],
         "point_count must be finite and lie in [100, 288230376151711744], got 1e+30"),
    ], ids=["tile_cols", "k_neighbors", "register_channels", "losses_channels", "point_count"])
    def test_size_past_its_range_exits_1(self, request, tmp_path, capsys, command, settings, message):
        # the int64 tile ids, the int64 cast of k and numpy's maximum array
        # size once overflowed on these, and the command ended with a traceback
        argv = [command, *(arg for kv in settings for arg in ("--set", kv))]
        if command in ("register", "normals"):
            argv += ["--scene", str(request.getfixturevalue("tiny_bundle"))]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
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

    @pytest.mark.parametrize("rows", ["all_unmatched", "none"])
    def test_no_ground_truth_rows_exit_2(self, tiny_bundle, tmp_path, capsys, rows):
        # a bundle whose pixels name no point, and one with no pixels: the
        # empty patch grouping once ended with numpy's reshape traceback
        def unmatched(table):
            table[:, 3] = -1.0

        path = tiny_bundle / "depth.bin"
        blob = path.read_bytes()
        if rows == "none":
            path.write_bytes(b" ".join(blob.split(b"\n", 1)[0].split()[:3] + [b"0\n"]))
        else:
            path.write_bytes(with_depth_rows(blob, unmatched))
        out = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "registration failed: pnp_ransac needs >= 6 correspondences, got 0\n"
        )

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


def json_without(text: str, key: str) -> str:
    raw = json.loads(text)
    del raw[key]
    return json.dumps(raw)


def edit_file(path: Path, index, edit) -> None:
    """edit_line when index is a line number, else edit the whole text or bytes."""
    if index is not None:
        edit_line(path, index, edit)
    elif path.suffix in (".bin", ".ply"):
        path.write_bytes(edit(path.read_bytes()))
    else:
        path.write_text(edit(path.read_text()))


def with_vertex(blob: bytes, index: int, payload) -> bytes:
    """A binary cloud.ply whose vertex `index` is replaced: by the three
    doubles of a tuple, or by raw bytes of any length."""
    if not isinstance(payload, bytes):
        payload = np.asarray(payload, dtype="<f8").tobytes()
    start = blob.index(b"end_header\n") + len(b"end_header\n") + 24 * index
    return blob[:start] + payload + blob[start + 24:]


def with_depth_row(blob: bytes, index: int, row) -> bytes:
    """A depth.bin whose (u, v, depth, point index) row `index` is replaced."""
    start = blob.index(b"\n") + 1 + 32 * index
    return blob[:start] + np.asarray(row, dtype="<f8").tobytes() + blob[start + 32:]


def depth_row(blob: bytes, index: int) -> tuple[float, float, float, float]:
    start = blob.index(b"\n") + 1 + 32 * index
    return tuple(np.frombuffer(blob[start:start + 32], dtype="<f8").tolist())


def with_row_value(blob: bytes, index: int, column: int, value: float) -> bytes:
    """A depth.bin with one value of row `index` replaced; columns are
    u, v, depth, point index."""
    row = list(depth_row(blob, index))
    row[column] = value
    return with_depth_row(blob, index, row)


def with_depth_rows(blob: bytes, edit) -> bytes:
    """A depth.bin whose (rows, 4) payload array is edited in place."""
    nl = blob.index(b"\n") + 1
    rows = np.frombuffer(blob[nl:], dtype="<f8").reshape(-1, 4).copy()
    edit(rows)
    return blob[:nl] + rows.astype("<f8").tobytes()


def with_vertex_count(blob: bytes, count: bytes) -> bytes:
    """A binary cloud.ply whose header states `count` vertices."""
    head, rest = blob.split(b"element vertex ", 1)
    return head + b"element vertex " + count + rest[rest.index(b"\n"):]


def old_ascii_ply(path: Path) -> None:
    """Rewrite a cloud.ply as the ASCII PLY that bundles held before."""
    points = read_ply(path)
    lines = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}",
             "property double x", "property double y", "property double z", "end_header"]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in points.tolist())
    path.write_text("\n".join(lines) + "\n")


def old_float32_depth(path: Path) -> None:
    """Rewrite a depth.bin as the float32 raster that bundles held before."""
    table = read_pixel_table(path)
    raster = np.full((table.height, table.width), np.nan)
    us, vs = table.pixels.astype(np.int64).T
    raster[vs, us] = table.depths
    path.write_bytes(f"DEPTH {table.width} {table.height}\n".encode()
                     + raster.astype("<f4").tobytes())


def old_depth_rows(bundle: Path) -> None:
    """Rewrite a bundle's pixel table as the 3-column depth rows plus the
    gt_corrs.csv that bundles held before."""
    table = read_pixel_table(bundle / "depth.bin")
    rows = np.column_stack([table.pixels, table.depths]).astype("<f8")
    (bundle / "depth.bin").write_bytes(
        f"DEPTHROWS {table.width} {table.height} {len(table)}\n".encode() + rows.tobytes()
    )
    lines = ["u,v,point_index,score"]
    lines += [f"{u!r},{v!r},{i},1.0" for (u, v), i in
              zip(table.pixels.tolist(), table.point_indices.tolist())]
    (bundle / "gt_corrs.csv").write_text("\n".join(lines) + "\n")


def without_point_index(blob: bytes) -> bytes:
    """depth.bin bytes whose rows lost their point index column."""
    nl = blob.index(b"\n") + 1
    rows = np.frombuffer(blob[nl:], dtype="<f8").reshape(-1, 4)
    return blob[:nl] + np.ascontiguousarray(rows[:, :3]).tobytes()


def repeat_first_pixel(blob: bytes) -> bytes:
    """depth.bin bytes whose second row holds the first row's pixel."""
    return with_depth_row(blob, 1, (*depth_row(blob, 0)[:2], *depth_row(blob, 1)[2:]))


def swap_first_rows(blob: bytes) -> bytes:
    return with_depth_row(with_depth_row(blob, 0, depth_row(blob, 1)), 1, depth_row(blob, 0))


@pytest.fixture
def tiny_bundle(tmp_path) -> Path:
    bundles = synth_scenes(tmp_path, "--set", "point_count=300", "--set", "scene_count=1")
    return bundles / "scene_0000"


class TestNegativeSeed:
    # numpy's seeding rejects a negative seed, and each of these once ended
    # with its traceback
    IN_SEED_RANGE = f"must be finite and lie in [0, {sys.float_info.max!r}]"

    @pytest.mark.parametrize("command, settings, message", [
        (["synth"], ["base_seed=-5"], f"base_seed {IN_SEED_RANGE}, got -5"),
        (
            ["ablate", "--sweep", "k", "--values", "[8]"], ["noise_seed=-1", "mask_ratio=0.1"],
            f"noise_seed {IN_SEED_RANGE}, got -1",
        ),
        (["register"], ["param_seed=-1", "epoch=25"], f"param_seed {IN_SEED_RANGE}, got -1"),
        (["losses"], ["base_seed=-3"], f"base_seed {IN_SEED_RANGE}, got -3"),
    ], ids=["synth", "ablate", "register", "losses"])
    def test_negative_setting_exits_1(
        self, tiny_bundle, tmp_path, capsys, command, settings, message
    ):
        scene = ["--scene", str(tiny_bundle)] if command == ["register"] else []
        sets = [arg for kv in settings for arg in ("--set", kv)]
        out = tmp_path / "out"
        assert run(*command, *scene, "--out", str(out), *sets) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_bundle_seed_exits_1_at_load(self, tiny_bundle, tmp_path, capsys):
        edit_file(tiny_bundle / "gt_pose.json", None, lambda text: json_with(text, "seed", -1))
        with pytest.raises(BundleError, match="scene seed must be >= 0"):
            load_scene_bundle(tiny_bundle)
        out = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: bundle {tiny_bundle}: scene seed must be >= 0, got -1\n"
        assert "Traceback" not in err
        assert not out.exists()


class TestTileGrid:
    def test_int64_overflowing_grid_exits_1(self, tiny_bundle, tmp_path, capsys):
        # numpy once rejected the grid's member array size with a traceback
        out = tmp_path / "out"
        side = 10**12
        sets = ["--set", f"tile_rows={side}", "--set", f"tile_cols={side}"]
        assert run("register", "--scene", str(tiny_bundle), "--out", str(out), *sets) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: tile grid {side}x{side} overflows int64 ids\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestMalformedBundle:
    # each of these once ended the process with a traceback
    # the point index checks against the cloud name the bundle; the pixel
    # checks name the depth.bin whose rows break them
    @pytest.mark.parametrize(
        "name, edit, where",
        [
            ("cloud.ply", lambda blob: with_vertex(blob, 0, (np.nan, 0.0, 2.0)), "bundle"),
            ("depth.bin", lambda blob: with_row_value(blob, 0, 3, 600.0), "bundle"),
            ("depth.bin", lambda blob: with_row_value(blob, 0, 3, -2.0), "bundle"),
            ("depth.bin", lambda blob: with_row_value(blob, 0, 0, 5110.0), "depth.bin"),
            ("depth.bin", lambda blob: with_row_value(blob, 0, 1, -1.0), "depth.bin"),
            # the pipeline would truncate these and eval would round them
            ("depth.bin", lambda blob: with_row_value(blob, 0, 0, 477.6), "depth.bin"),
            ("depth.bin", repeat_first_pixel, "depth.bin"),
            ("depth.bin", swap_first_rows, "depth.bin"),
        ],
        ids=[
            "nan_vertex", "index_past_cloud", "index_below_minus_one", "u_past_width",
            "negative_v", "fractional_u", "repeated_pixel", "swapped_rows",
        ],
    )
    def test_register_exits_1(self, tmp_path, capsys, name, edit, where):
        bundle = synth_scenes(tmp_path) / "scene_0000"
        edit_file(bundle / name, None, edit)
        out = tmp_path / "res"
        assert run("register", "--scene", str(bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        prefix = f"bundle {bundle}" if where == "bundle" else str(bundle / where)
        assert err.startswith(f"error: {prefix}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("width", [2**54, 10**18])
    def test_image_past_2_53_pixels_exits_1(self, tiny_bundle, tmp_path, capsys, width):
        # eval once scored such a bundle with colliding depth keys: IR 0.7949
        # instead of 1.0 at 2**54, and 0.1538 after a cast warning at 10**18
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0

        def with_width(blob: bytes) -> bytes:
            head, rest = blob.split(b"\n", 1)
            tokens = head.split()
            tokens[1] = str(width).encode()
            return b" ".join(tokens) + b"\n" + rest

        edit_file(tiny_bundle / "intrinsics.json", None,
                  lambda text: json_with(text, "width", width))
        edit_file(tiny_bundle / "depth.bin", None, with_width)
        capsys.readouterr()
        for argv in (
            ["register", "--scene", str(tiny_bundle), "--out", str(tmp_path / "again")],
            ["eval", "--scenes", str(tiny_bundle), "--results", str(results),
             "--out", str(tmp_path / "r.json")],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "has more than 2**53 pixels" in err
        assert not (tmp_path / "again").exists() and not (tmp_path / "r.json").exists()

    def test_gt_pixels_without_depth_exit_1_at_load(self, tmp_path, capsys):
        # every third ground-truth row of an 800-point scene loses its depth;
        # register once exited 0 with matches at such pixels, and eval then
        # failed on them
        bundle = tmp_path / "scene"
        save_scene_bundle(bundle, generate_scene(SceneSpec(point_count=800), seed=3))

        def drop_depths(rows):
            assert np.all(rows[::3, 3] >= 0)
            rows[::3, 2] = np.nan

        edit_file(bundle / "depth.bin", None, lambda blob: with_depth_rows(blob, drop_depths))
        with pytest.raises(BundleError, match="with finite positive depths"):
            load_scene_bundle(bundle)
        out = tmp_path / "res"
        assert run("register", "--scene", str(bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle / 'depth.bin'}: depth row 0 (")
        assert err.count("\n") == 1 and "with finite positive depths" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [repeat_first_pixel, swap_first_rows])
    def test_eval_of_a_bundle_edited_after_register_exits_1(
        self, tiny_bundle, tmp_path, capsys, edit
    ):
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        edit_file(tiny_bundle / "depth.bin", None, edit)
        capsys.readouterr()
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                   "--out", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tiny_bundle / 'depth.bin'}: depth row 1 ")
        assert err.count("\n") == 1

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

    def test_eval_of_a_pixel_far_outside_the_image_exits_1(self, tiny_bundle, tmp_path, capsys):
        # the pixel's int64 cast once warned before the error line
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        edit_line(results / "correspondences.csv", 1,
                  lambda row: "1e300,0.0," + row.split(",", 2)[2])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                       "--out", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err == "error: pixel (1e+300, 0.0) outside the depth map\n"

    @pytest.mark.parametrize("index", ["cloud_size", "-1"])
    def test_eval_of_a_point_outside_the_cloud_exits_1(
        self, tiny_bundle, tmp_path, capsys, index
    ):
        # eval once ended with a bare IndexError
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        points = len(read_ply(tiny_bundle / "cloud.ply"))
        bad = points if index == "cloud_size" else int(index)
        edit_line(results / "correspondences.csv", 1, lambda row: with_column(row, 2, str(bad)))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("eval", "--scenes", str(tiny_bundle), "--results", str(results),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: point index {bad} is not a row of the {points}-point cloud\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, index, edit",
        [
            # the first vertex as text, and as two doubles: the payload is
            # then shorter than the vertex count says
            ("cloud.ply", None, lambda blob: with_vertex(blob, 0, b"abc 0.0 1.0")),
            ("cloud.ply", None, lambda blob: with_vertex_count(blob, b"x")),
            ("cloud.ply", None, lambda blob: with_vertex(blob, 0, blob[-16:])),
            ("depth.bin", None, lambda blob: with_row_value(blob, 0, 3, 0.5)),
            ("depth.bin", None, without_point_index),
            ("depth.bin", None, lambda blob: with_row_value(blob, 0, 0, np.nan)),
            ("intrinsics.json", None, lambda text: json_with(text, "height", "x")),
            ("intrinsics.json", None, lambda text: text[:-3]),
            ("gt_pose.json", None, lambda text: text[:-3]),
            ("gt_pose.json", None, lambda text: json_with(text, "seed", "x")),
            ("depth.bin", None, lambda blob: blob.replace(b"PIXELROWS ", b"PIXELROWS x", 1)),
            # each of these once loaded: register then failed to register, or
            # ran as seed 0
            ("intrinsics.json", None, lambda text: json_with(text, "fx", float("inf"))),
            ("intrinsics.json", None, lambda text: json_with(text, "width", 640.0)),
            ("gt_pose.json", None, lambda text: json_without(text, "seed")),
            ("gt_pose.json", None, lambda text: json_with(text, "seed", 0.5)),
            # each of these once loaded as the number it spells: 525.0, 1.0
            ("intrinsics.json", None, lambda text: json_with(text, "fx", "525")),
            ("intrinsics.json", None, lambda text: json_with(text, "cx", True)),
            ("gt_pose.json", None, lambda text: json_with(text, "translation", ["0.1", True, 0])),
        ],
        ids=[
            "non_numeric_vertex", "non_integer_vertex_count", "two_token_vertex",
            "non_integer_point_index", "missing_column", "nan_pixel", "non_integer_height",
            "intrinsics_not_json", "pose_not_json", "non_integer_seed", "depth_header",
            "infinite_fx", "float_width", "missing_seed", "fractional_seed",
            "string_fx", "bool_cx", "string_and_bool_translation",
        ],
    )
    def test_unparsable_file_exits_1(self, tiny_bundle, tmp_path, capsys, name, index, edit):
        path = tiny_bundle / name
        edit_file(path, index, edit)
        out = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda blob: with_depth_row(blob, 0, (640.0, 0.0, 2.0, 0.0)),  # outside
            lambda blob: with_depth_row(blob, 0, (0.0, -1.0, 2.0, 0.0)),
            lambda blob: with_depth_row(blob, 0, (0.5, *depth_row(blob, 0)[1:])),
            lambda blob: with_depth_row(blob, 1, depth_row(blob, 0)),  # repeated
            lambda blob: with_depth_row(
                with_depth_row(blob, 0, depth_row(blob, 1)), 1, depth_row(blob, 0)
            ),  # out of row-major order
            lambda blob: with_row_value(blob, 0, 2, 0.0),
            lambda blob: with_row_value(blob, 0, 2, -2.0),
            lambda blob: with_row_value(blob, 0, 2, np.nan),
            lambda blob: blob[:-8],  # truncated payload
        ],
        ids=["u_past_width", "negative_v", "fractional_u", "repeated", "swapped",
             "zero_depth", "negative_depth", "nan_depth", "truncated"],
    )
    def test_bad_depth_row_exits_1(self, tiny_bundle, tmp_path, capsys, edit):
        path = tiny_bundle / "depth.bin"
        edit_file(path, None, edit)
        out = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["register", "normals"])
    @pytest.mark.parametrize(
        "name, write_old, format_name",
        [
            ("cloud.ply", lambda bundle: old_ascii_ply(bundle / "cloud.ply"),
             "ASCII PLY ('format ascii 1.0')"),
            ("depth.bin", lambda bundle: old_float32_depth(bundle / "depth.bin"),
             "a float32 'DEPTH <w> <h>' raster"),
            ("depth.bin", old_depth_rows,
             "a 3-column 'DEPTHROWS <w> <h> <n>' file (the layout with gt_corrs.csv)"),
        ],
        ids=["ascii_ply", "float32_depth", "depth_rows_with_gt_csv"],
    )
    def test_old_bundle_format_exits_1(
        self, tiny_bundle, tmp_path, capsys, command, name, write_old, format_name
    ):
        write_old(tiny_bundle)
        out = tmp_path / "res"
        assert run(command, "--scene", str(tiny_bundle), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tiny_bundle / name}: {format_name}")
        assert err.count("\n") == 1
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
            ("pose.json", None, lambda text: json_with(text, "translation", ["0.1", True, 0])),
        ],
        ids=[
            "non_integer_patch_id", "pose_not_json", "grid_not_json", "string_tile_rows",
            "null_voxel_size", "grid_not_an_object", "grid_missing_keys",
            "string_and_bool_translation",
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

        def without_ground_truth(rows):
            rows[:, 3] = -1.0

        edit_file(bundle / "depth.bin", None,
                  lambda blob: with_depth_rows(blob, without_ground_truth))
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
        edit_file(bundle / "cloud.ply", None,
                  lambda blob: with_vertex(blob, 0, (float(coordinate), 0.0, 2.0)))
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
        edit_file(tiny_bundle / "cloud.ply", None,
                  lambda blob: with_vertex(blob, matched, (1e200, 0.0, 2.0)))
        capsys.readouterr()
        err = self.exits_1(capsys, "eval", "--scenes", str(tiny_bundle),
                           "--results", str(results), "--out", str(tmp_path / "r.json"))
        assert len(err.splitlines()) == 1 and "cell ids overflow int64" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("x", [1e160, 1e308])
    def test_eval_huge_true_translation(self, tiny_bundle, tmp_path, capsys, x):
        # register never reads the true pose; the metrics would square it
        results = tmp_path / "res"
        assert run("register", "--scene", str(tiny_bundle), "--out", str(results)) == 0
        pose = tiny_bundle / "gt_pose.json"
        translation = json.loads(pose.read_text())["translation"]
        edit_file(pose, None, lambda text: json_with(text, "translation", [x, *translation[1:]]))
        capsys.readouterr()
        err = self.exits_1(capsys, "eval", "--scenes", str(tiny_bundle),
                           "--results", str(results), "--out", str(tmp_path / "r.json"))
        assert len(err.splitlines()) == 1 and "true translation: coordinates beyond" in err
        assert not (tmp_path / "r.json").exists()

    def test_register_rotation_entry_past_one(self, tiny_bundle, tmp_path, capsys):
        # R^T R of the entry would overflow; the entry is refused first
        pose = tiny_bundle / "gt_pose.json"
        rotation = json.loads(pose.read_text())["rotation"]
        edit_file(pose, None, lambda text: json_with(text, "rotation", [1e200, *rotation[1:]]))
        err = self.exits_1(capsys, "register", "--scene", str(tiny_bundle),
                           "--out", str(tmp_path / "res"))
        assert len(err.splitlines()) == 1 and "entry 1e+200 lies outside [-1, 1]" in err

    @pytest.mark.parametrize("depth", [1e200, 1e308])
    def test_register_huge_depth(self, tiny_bundle, tmp_path, capsys, depth):
        u, v, _, index = depth_row((tiny_bundle / "depth.bin").read_bytes(), 5)
        edit_file(tiny_bundle / "depth.bin", None,
                  lambda blob: with_depth_row(blob, 5, (u, v, depth, index)))
        err = self.exits_1(capsys, "register", "--scene", str(tiny_bundle),
                           "--out", str(tmp_path / "res"))
        assert len(err.splitlines()) == 1 and "lifted pixels: coordinates beyond" in err

    @pytest.mark.parametrize("adaptive", ["false", "true"])
    def test_normals_far_vertex(self, tiny_bundle, tmp_path, capsys, adaptive):
        bundle = self.far_vertex(tiny_bundle, "1e200")
        err = self.exits_1(capsys, "normals", "--scene", str(bundle),
                           "--out", str(tmp_path / "n"), "--set", f"adaptive_k={adaptive}")
        assert "squared distances overflow" in err


class TestAllocationFailure:
    # each of these once ended with numpy's _ArrayMemoryError traceback; the
    # sizes lie past the address space, so they fail before any page is touched
    def exits_1(self, capsys, out: Path, *argv) -> str:
        assert run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    def test_synth_point_count(self, tmp_path, capsys):
        err = self.exits_1(capsys, tmp_path / "scenes", "synth",
                           "--set", "point_count=100000000000000")
        assert "Unable to allocate" in err

    def test_register_channels(self, tiny_bundle, tmp_path, capsys):
        # 2**29, the table's largest channel count
        err = self.exits_1(capsys, tmp_path / "res", "register", "--scene", str(tiny_bundle),
                           "--set", "channels=536870912")
        assert "Unable to allocate" in err

    def test_a_memory_error_without_a_message(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(crossreg.cli, "generate_scene", no_memory)
        err = self.exits_1(capsys, tmp_path / "scenes", "synth", "--set", "scene_count=1")
        assert err == "error: out of memory\n"


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

    @pytest.mark.parametrize("values", ["[Infinity]", "[2, NaN]", "[-Infinity]"])
    def test_non_finite_integer_value_exits_1(self, tmp_path, capsys, values):
        out = tmp_path / "x.csv"
        assert run("ablate", "--sweep", "k", "--values", values, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k_neighbors must be finite") and err.count("\n") == 1
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
        rows = read_normals(out / "depth_normals.bin")
        assert rows.normals.shape == (len(scene.table), 3)
        assert rows.valid.sum() > 500

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_depth_normals_are_the_lifted_row_normals(self, tmp_path, adaptive):
        # one normal per depth.bin row, as registration lifts them; the
        # command once wrote a 640x480 raster without a valid normal
        scenes = tmp_path / "scenes"
        assert run("synth", "--out", str(scenes), "--set", "scene_count=1",
                   "--set", "base_seed=21") == 0
        out = tmp_path / "n"
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(out),
                   "--set", f"adaptive_k={json.dumps(adaptive)}") == 0
        scene = load_scene_bundle(scenes / "scene_0000")
        got = read_normals(out / "depth_normals.bin")
        assert got.normals.shape == (len(scene.table), 3) == (1940, 3)
        assert got.valid.sum() == 1940
        clean = prepare_scene(scene, PipelineConfig(adaptive_k=adaptive)).clean_normals
        write_normals(tmp_path / "want.bin", clean)
        assert (out / "depth_normals.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        scenes = synth_scenes(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(a)) == 0
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(b)) == 0
        assert file_bytes(a) == file_bytes(b)

    def test_failed_fit_leaves_no_directory(self, tmp_path, capsys):
        # the output directory was once made before the fit and left empty
        scenes = tmp_path / "scenes"
        assert run("synth", "--out", str(scenes), "--set", "point_count=300",
                   "--set", "scene_count=1") == 0
        out = tmp_path / "n"
        assert run("normals", "--scene", str(scenes / "scene_0000"), "--out", str(out),
                   "--set", "k_neighbors=400") == 1
        assert "cloud of 300 points cannot support k = 400" in capsys.readouterr().err
        assert not out.exists()

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
        # oracle: a fit over k0 + 4 neighbours where a point's mean k0-NN
        # distance strictly exceeds the cloud's mean of it, else over k0
        k0 = max(k, 3)
        cloud = read_ply(scene / "cloud.ply")
        _, dists = knn_indices(cloud, k0, return_distances=True)
        rho = dists.mean(axis=1)
        want = estimate_point_normals(cloud, np.where(rho > rho.mean(), k0 + 4, k0))
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
