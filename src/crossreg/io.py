"""File formats: point clouds, pixel tables, normal fields, JSON records, bundles.

Writers are byte-deterministic: CSV fields serialize with repr (a float's
shortest round-trip form), JSON uses sorted keys and a fixed indent, and binary
payloads are little-endian behind an ASCII header. A scene bundle is a
directory holding cloud.ply, depth.bin, intrinsics.json and gt_pose.json,
and it round-trips exactly:

- cloud.ply is binary_little_endian PLY with double x, y, z;
- depth.bin is the scene's pixel table: float64 (u, v, depth, point index)
  rows behind a 'PIXELROWS <w> <h> <n>' line, with index -1 for a pixel
  without a ground-truth point;
- normals are an (n, 3) field: float32 rows, NaN where invalid, behind a
  'NORMAL <n> 1' line, the one normal format written or read.

Each binary reader accepts exactly the header its writer writes and refuses
any other, an older layout included, through that one check: a BundleError
naming the file and showing the header found. Readers report any other
malformed file, metadata included (integer sizes and seeds, finite focal
lengths), as a BundleError naming it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np

from .errors import BundleError, CrossregError
from .geometry import CameraIntrinsics, F64, RigidTransform, as_float_array, as_points, unit_rows
from .matching import CorrespondenceSet
from .normals import NormalField
from .pose import PoseEstimate
from .synth import PixelTable, SyntheticScene

__all__ = [
    "write_ply",
    "read_ply",
    "write_pixel_table",
    "read_pixel_table",
    "write_normals",
    "read_normals",
    "write_json",
    "read_json",
    "write_intrinsics",
    "read_intrinsics",
    "write_pose_estimate",
    "read_pose",
    "write_rows",
    "write_correspondences",
    "read_correspondences",
    "write_patches",
    "read_patches",
    "write_grid",
    "read_grid",
    "save_scene_bundle",
    "load_scene_bundle",
    "BUNDLE_FILES",
]

BUNDLE_FILES = ("cloud.ply", "depth.bin", "intrinsics.json", "gt_pose.json")


def _reader(read):
    """read(path, ...) with a parse failure, not an OS error, raised as a BundleError."""

    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except CrossregError:
            raise
        except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
            raise BundleError(f"{path}: {type(exc).__name__}: {exc}") from exc

    return checked


def _payload(path, blob: bytes, shape: tuple[int, ...], dtype: str, noun: str) -> np.ndarray:
    """blob as a read-only array of shape and little-endian dtype; shape[0]
    counts the nouns, and a blob of any other size is a BundleError."""
    need = math.prod(shape) * np.dtype(dtype).itemsize
    if len(blob) != need:
        raise BundleError(
            f"{path}: {shape[0]} {noun} need {need} payload bytes, found {len(blob)}"
        )
    return np.frombuffer(blob, dtype=dtype).reshape(shape)


# --------------------------------------------------------------------------- #
#  Point clouds
# --------------------------------------------------------------------------- #


_PLY_HEADER = (
    "ply\n"
    "format binary_little_endian 1.0\n"
    "element vertex {count}\n"
    "property double x\n"
    "property double y\n"
    "property double z\n"
    "end_header\n"
)


def write_ply(path, points) -> None:
    """Binary little-endian PLY holding each point as double x, y, z."""
    pts = as_points(points, name="points")
    header = _PLY_HEADER.format(count=pts.shape[0]).encode("ascii")
    Path(path).write_bytes(header + pts.astype("<f8").tobytes())


@_reader
def read_ply(path) -> F64:
    """The points of a PLY that write_ply wrote: that exact header, then the payload."""
    blob = Path(path).read_bytes()
    lines = blob.split(b"\n", 3)
    if len(lines) < 4 or lines[0] != b"ply":
        raise BundleError(f"{path}: not a PLY file")
    tokens = lines[2].split()
    if len(tokens) != 3 or tokens[:2] != [b"element", b"vertex"]:
        raise BundleError(f"{path}: expected 'element vertex <n>', got {lines[2]!r}")
    count = int(tokens[2])
    header = _PLY_HEADER.format(count=count).encode("ascii")
    if count < 0 or not blob.startswith(header):
        raise BundleError(
            f"{path}: expected the header {header.decode()!r}, "
            f"got {blob[:len(header)]!r}"
        )
    return _payload(path, blob[len(header):], (count, 3), "<f8", "vertices").astype(np.float64)


# --------------------------------------------------------------------------- #
#  Pixel tables and normal fields: one ASCII header line, then little-endian data
# --------------------------------------------------------------------------- #


def _split_header(blob: bytes) -> tuple[list[str], bytes]:
    """The ASCII tokens of a file's first line, and the bytes after it."""
    nl = blob.find(b"\n")
    return blob[:max(nl, 0)].decode("ascii", errors="replace").split(), blob[nl + 1:]


def write_pixel_table(path, table: PixelTable) -> None:
    """The table as float64 (u, v, depth, point index) rows behind a header."""
    rows = np.column_stack([table.pixels, table.depths, table.point_indices]).astype("<f8")
    header = f"PIXELROWS {table.width} {table.height} {len(table)}\n".encode("ascii")
    Path(path).write_bytes(header + rows.tobytes())


@_reader
def read_pixel_table(path) -> PixelTable:
    """The PixelTable write_pixel_table wrote; PixelTable checks the rows,
    so any depth.bin that loads is rewritten byte for byte."""
    tokens, payload = _split_header(Path(path).read_bytes())
    if len(tokens) != 4 or tokens[0] != "PIXELROWS":
        raise BundleError(f"{path}: expected 'PIXELROWS <w> <h> <n>' header, got {tokens}")
    width, height, count = (int(t) for t in tokens[1:])
    rows = _payload(path, payload, (count, 4), "<f8", "pixel rows")
    pixels, depths = np.ascontiguousarray(rows[:, :2]), np.ascontiguousarray(rows[:, 2])
    try:
        return PixelTable(width, height, pixels, depths, rows[:, 3])
    except ValueError as exc:
        raise BundleError(f"{path}: {exc}") from exc


def write_normals(path, field: NormalField) -> None:
    """An (N, 3) field as float32 rows, NaN where invalid, behind 'NORMAL <n> 1'."""
    if field.normals.ndim != 2:
        raise ValueError(f"{path}: normals must be an (N, 3) field, not {field.normals.shape}")
    arr = np.where(field.valid[:, None], field.normals, np.nan)
    header = f"NORMAL {len(arr)} 1\n".encode("ascii")
    Path(path).write_bytes(header + np.ascontiguousarray(arr, dtype="<f4").tobytes())


@_reader
def read_normals(path) -> NormalField:
    tokens, payload = _split_header(Path(path).read_bytes())
    if len(tokens) != 3 or tokens[0] != "NORMAL" or tokens[2] != "1":
        raise BundleError(f"{path}: expected 'NORMAL <n> 1' header, got {tokens}")
    arr = _payload(path, payload, (int(tokens[1]), 3), "<f4", "normals").astype(np.float64)
    valid = np.all(np.isfinite(arr), axis=-1)
    # Re-normalize to absorb float32 quantization of unit vectors.
    return NormalField(np.where(valid[:, None], unit_rows(arr), 0.0), valid)


# --------------------------------------------------------------------------- #
#  JSON records
# --------------------------------------------------------------------------- #


def write_json(path, payload) -> None:
    """payload as JSON; a non-finite number, which JSON cannot hold, is a
    CrossregError naming the file, and nothing is written."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise CrossregError(f"{path}: cannot be written as JSON: {exc}") from None
    Path(path).write_text(text + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def _numbers(path, raw: dict, key: str, integer: bool = False):
    """raw[key], a JSON number or a list of them: an int or a float, never a
    bool or a string, whatever it spells; only an int when integer."""
    value = raw[key]
    kinds = (int,) if integer else (int, float)
    if not all(type(v) in kinds for v in (value if type(value) is list else [value])):
        where = f"each entry of {key}" if type(value) is list else key
        kind = "an integer" if integer else "a number"
        raise BundleError(f"{path}: {where} must be {kind}, got {value!r}")
    return value


def write_intrinsics(path, intrinsics: CameraIntrinsics) -> None:
    write_json(path, dataclasses.asdict(intrinsics))


@_reader
def read_intrinsics(path) -> CameraIntrinsics:
    """Float focal lengths and principal point, JSON-integer image size."""
    raw = read_json(path)
    size = [_numbers(path, raw, key, integer=True) for key in ("width", "height")]
    focal_center = [float(_numbers(path, raw, key)) for key in ("fx", "fy", "cx", "cy")]
    return CameraIntrinsics(*focal_center, *size)


def _transform_payload(transform: RigidTransform) -> dict:
    return {
        "rotation": [float(x) for x in transform.rotation.ravel()],
        "translation": [float(x) for x in transform.translation],
    }


def _transform_from_payload(path, raw) -> RigidTransform:
    rot = np.array(_numbers(path, raw, "rotation"), dtype=np.float64).reshape(3, 3)
    tra = np.array(_numbers(path, raw, "translation"), dtype=np.float64)
    return RigidTransform(rot, tra)


def write_pose_estimate(path, estimate: PoseEstimate) -> None:
    payload = _transform_payload(estimate.transform)
    payload["inliers"] = int(estimate.inlier_count)
    payload["mean_reproj_px"] = float(estimate.mean_reprojection_px)
    write_json(path, payload)


@_reader
def read_pose(path) -> RigidTransform:
    """Read the transform from a pose record (gt or estimated); extras ignored."""
    return _transform_from_payload(path, read_json(path))


@_reader
def _read_gt_pose(path) -> tuple[RigidTransform, int]:
    """The transform and integer scene seed of a bundle's gt_pose.json."""
    raw = read_json(path)
    return _transform_from_payload(path, raw), _numbers(path, raw, "seed", integer=True)


def write_rows(path, header: str, rows) -> None:
    """A CSV file: the header line, then one line per row of its fields'
    reprs joined by commas; rows hold Python ints and floats."""
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


@_reader
def _read_rows(path, header: str, types) -> list[tuple]:
    """The rows of a write_rows CSV under header, field i parsed by types[i];
    blank lines are skipped."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise BundleError(f"{path}: expected the CSV header {header!r}")
    return [
        tuple(parse(field) for parse, field in zip(types, line.split(","), strict=True))
        for line in lines[1:] if line.strip()
    ]


_CORRESPONDENCE_HEADER = "u,v,point_index,score"
_PATCH_HEADER = "img_patch_id,cloud_patch_id,score"


def write_correspondences(path, corrs: CorrespondenceSet) -> None:
    rows = zip(*corrs.pixels.T.tolist(), corrs.point_indices.tolist(), corrs.scores.tolist())
    write_rows(path, _CORRESPONDENCE_HEADER, rows)


@_reader
def read_correspondences(path) -> CorrespondenceSet:
    rows = _read_rows(path, _CORRESPONDENCE_HEADER, (float, float, int, float))
    u, v, indices, scores = zip(*rows) if rows else ((),) * 4
    return CorrespondenceSet(np.column_stack([u, v]), indices, scores)


def write_patches(path, patches) -> None:
    """Coarse (image tile id, cloud cell id, score) pairs, one per row."""
    write_rows(path, _PATCH_HEADER, patches)


@_reader
def read_patches(path) -> tuple[tuple[int, int, float], ...]:
    """A patches.csv's rows; a non-finite score fails as a correspondence's does."""
    rows = tuple(_read_rows(path, _PATCH_HEADER, (int, int, float)))
    as_float_array([score for *_, score in rows], name="scores")
    return rows


def write_grid(path, tile_rows: int, tile_cols: int, voxel_size: float) -> None:
    """The patch grid that the ids of a patches.csv refer to."""
    write_json(path, {"tile_rows": tile_rows, "tile_cols": tile_cols, "voxel_size": voxel_size})


@_reader
def read_grid(path) -> tuple[int, int, float]:
    """(tile_rows, tile_cols, voxel_size) from a grid.json."""
    if not Path(path).is_file():
        raise BundleError(f"{path}: missing; patch ids cannot be read without their grid")
    raw = read_json(path)
    rows, cols = (_numbers(path, raw, key, integer=True) for key in ("tile_rows", "tile_cols"))
    return rows, cols, float(_numbers(path, raw, "voxel_size"))


# --------------------------------------------------------------------------- #
#  Scene bundles
# --------------------------------------------------------------------------- #


def save_scene_bundle(directory, scene: SyntheticScene) -> None:
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BundleError(f"cannot create bundle directory {out}: {exc}") from exc
    if not out.is_dir():
        raise BundleError(f"bundle path {out} is not a directory")
    write_ply(out / "cloud.ply", scene.cloud)
    write_pixel_table(out / "depth.bin", scene.table)
    write_intrinsics(out / "intrinsics.json", scene.intrinsics)
    pose_payload = _transform_payload(scene.gt_transform)
    pose_payload["seed"] = int(scene.seed)
    write_json(out / "gt_pose.json", pose_payload)


def load_scene_bundle(directory) -> SyntheticScene:
    """The bundle's scene; SyntheticScene's own check failing is a BundleError."""
    src = Path(directory)
    missing = [name for name in BUNDLE_FILES if not (src / name).is_file()]
    if missing:
        raise BundleError(f"bundle {src} is missing {missing}")
    cloud = read_ply(src / "cloud.ply")
    intrinsics = read_intrinsics(src / "intrinsics.json")
    table = read_pixel_table(src / "depth.bin")
    transform, seed = _read_gt_pose(src / "gt_pose.json")
    try:
        return SyntheticScene(cloud, table, intrinsics, transform, seed)
    except ValueError as exc:
        raise BundleError(f"bundle {src}: {exc}") from exc
