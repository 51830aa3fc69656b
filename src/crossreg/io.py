"""File formats: point clouds, depth/normal rasters, JSON records, bundles.

Writers are byte-deterministic: text floats serialize with repr (shortest
round-trip form), JSON uses sorted keys and a fixed indent, and binary
payloads are little-endian behind an ASCII header. A scene bundle is a
directory holding cloud.ply, depth.bin, intrinsics.json, gt_pose.json,
and gt_corrs.csv, and it round-trips exactly:

- cloud.ply is binary_little_endian PLY with double x, y, z;
- depth.bin holds the valid pixels only, as float64 (u, v, depth) rows in
  row-major order behind a 'DEPTHROWS <w> <h> <n>' line;
- normal rasters are float32 behind a 'NORMAL <w> <h>' line.

An ASCII PLY or a float32 'DEPTH' raster (the bundle formats before the
lossless ones) is rejected, naming its format; no file is read two ways.
Readers report a malformed file as a BundleError naming it.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .errors import BundleError, CrossregError
from .geometry import CameraIntrinsics, F64, RigidTransform, as_points, unit_rows
from .matching import CorrespondenceSet
from .normals import DepthMap, NormalField
from .pose import PoseEstimate
from .synth import SyntheticScene

__all__ = [
    "write_ply",
    "read_ply",
    "write_depth",
    "read_depth",
    "write_normals",
    "read_normals",
    "write_json",
    "read_json",
    "write_intrinsics",
    "read_intrinsics",
    "write_pose_estimate",
    "read_pose",
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

BUNDLE_FILES = ("cloud.ply", "depth.bin", "intrinsics.json", "gt_pose.json", "gt_corrs.csv")


def _reader(read):
    """read(path, ...) with a parse failure, not an OS error, raised as a BundleError."""

    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except CrossregError:
            raise
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise BundleError(f"{path}: {type(exc).__name__}: {exc}") from exc

    return checked


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
_ROW_BYTES = 24  # three little-endian float64 per vertex or depth row


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
    if lines[1] == b"format ascii 1.0":
        raise BundleError(
            f"{path}: ASCII PLY ('format ascii 1.0') is no longer read; "
            "expected 'format binary_little_endian 1.0'"
        )
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
    payload = blob[len(header):]
    if len(payload) != count * _ROW_BYTES:
        raise BundleError(
            f"{path}: {count} vertices need {count * _ROW_BYTES} payload bytes, "
            f"found {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(count, 3).astype(np.float64)


# --------------------------------------------------------------------------- #
#  Rasters: one ASCII header line, then little-endian data
# --------------------------------------------------------------------------- #


def _write_raster(path, magic: str, width: int, height: int, data: np.ndarray) -> None:
    header = f"{magic} {width} {height}\n".encode("ascii")
    Path(path).write_bytes(header + np.ascontiguousarray(data, dtype="<f4").tobytes())


def _read_raster(path, magic: str) -> tuple[int, int, np.ndarray]:
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise BundleError(f"{path}: missing raster header")
    tokens = blob[:nl].decode("ascii", errors="replace").split()
    if len(tokens) != 3 or tokens[0] != magic:
        raise BundleError(f"{path}: expected '{magic} <w> <h>' header, got {tokens}")
    width, height = int(tokens[1]), int(tokens[2])
    data = np.frombuffer(blob[nl + 1 :], dtype="<f4")
    return width, height, data


def write_depth(path, depth: DepthMap) -> None:
    """The valid pixels as float64 (u, v, depth) rows, in row-major order."""
    h, w = depth.shape
    vs, us = depth.valid_pixels()
    rows = np.column_stack([us, vs, depth.values[vs, us]]).astype("<f8")
    header = f"DEPTHROWS {w} {h} {vs.size}\n".encode("ascii")
    Path(path).write_bytes(header + rows.tobytes())


@_reader
def read_depth(path, shape: tuple[int, int] | None = None) -> DepthMap:
    """The DepthMap write_depth wrote: NaN and invalid off its rows.

    The rows must be distinct integer pixels inside the image, in
    row-major order, with finite positive depths, as write_depth writes
    them; so any depth.bin that loads is rewritten byte for byte. With
    shape (h, w) given, an image of another size is rejected before its
    grid is allocated.
    """
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    tokens = blob[:max(nl, 0)].decode("ascii", errors="replace").split()
    if tokens[:1] == ["DEPTH"]:
        raise BundleError(
            f"{path}: a float32 'DEPTH <w> <h>' raster is no longer read; "
            "expected float64 rows behind 'DEPTHROWS <w> <h> <n>'"
        )
    if len(tokens) != 4 or tokens[0] != "DEPTHROWS":
        raise BundleError(f"{path}: expected 'DEPTHROWS <w> <h> <n>' header, got {tokens}")
    width, height, count = (int(t) for t in tokens[1:])
    if min(width, height) < 1 or count < 0:
        raise BundleError(f"{path}: expected a positive size and a row count >= 0, got {tokens}")
    if shape is not None and (height, width) != tuple(shape):
        raise BundleError(f"{path}: a {width}x{height} depth, expected {shape[1]}x{shape[0]}")
    payload = blob[nl + 1:]
    if len(payload) != count * _ROW_BYTES:
        raise BundleError(
            f"{path}: {count} depth rows need {count * _ROW_BYTES} payload bytes, "
            f"found {len(payload)}"
        )
    u, v, z = np.frombuffer(payload, dtype="<f8").reshape(count, 3).T
    inside = (u >= 0) & (u < width) & (v >= 0) & (v < height)
    bad = (u != np.floor(u)) | (v != np.floor(v)) | ~inside | ~(np.isfinite(z) & (z > 0.0))
    if not np.any(bad):
        cells = v.astype(np.int64) * width + u.astype(np.int64)
        bad[1:] = cells[1:] <= cells[:-1]
    if np.any(bad):
        row = int(np.argmax(bad))
        found = (float(u[row]), float(v[row]), float(z[row]))
        raise BundleError(
            f"{path}: depth row {row} (u, v, depth) = {found}: rows must "
            f"be distinct integer pixels inside the {width}x{height} image, in row-major "
            "order, with finite positive depths"
        )
    values = np.full((height, width), np.nan)
    values.flat[cells] = z
    valid = np.zeros((height, width), dtype=bool)
    valid.flat[cells] = True
    return DepthMap(values, valid)


def write_normals(path, field: NormalField) -> None:
    arr = np.where(field.valid[..., None], field.normals, np.nan)
    if arr.ndim == 2:
        _write_raster(path, "NORMAL", arr.shape[0], 1, arr)
    else:
        _write_raster(path, "NORMAL", arr.shape[1], arr.shape[0], arr)


@_reader
def read_normals(path) -> NormalField:
    width, height, data = _read_raster(path, "NORMAL")
    if data.size != width * height * 3:
        raise BundleError(f"{path}: normal payload size mismatch")
    arr = data.astype(np.float64).reshape(height, width, 3)
    if height == 1:
        arr = arr[0]
    valid = np.all(np.isfinite(arr), axis=-1)
    # Re-normalize to absorb float32 quantization of unit vectors.
    return NormalField(np.where(valid[..., None], unit_rows(arr), 0.0), valid)


# --------------------------------------------------------------------------- #
#  JSON records
# --------------------------------------------------------------------------- #


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def write_intrinsics(path, intrinsics: CameraIntrinsics) -> None:
    write_json(
        path,
        {
            "fx": intrinsics.fx,
            "fy": intrinsics.fy,
            "cx": intrinsics.cx,
            "cy": intrinsics.cy,
            "width": intrinsics.width,
            "height": intrinsics.height,
        },
    )


@_reader
def read_intrinsics(path) -> CameraIntrinsics:
    raw = read_json(path)
    return CameraIntrinsics(
        fx=float(raw["fx"]),
        fy=float(raw["fy"]),
        cx=float(raw["cx"]),
        cy=float(raw["cy"]),
        width=int(raw["width"]),
        height=int(raw["height"]),
    )


def _transform_payload(transform: RigidTransform) -> dict:
    return {
        "rotation": [float(x) for x in transform.rotation.ravel()],
        "translation": [float(x) for x in transform.translation],
    }


def _transform_from_payload(raw) -> RigidTransform:
    rot = np.array(raw["rotation"], dtype=np.float64).reshape(3, 3)
    tra = np.array(raw["translation"], dtype=np.float64)
    return RigidTransform(rot, tra)


def write_pose_estimate(path, estimate: PoseEstimate) -> None:
    payload = _transform_payload(estimate.transform)
    payload["inliers"] = int(estimate.inlier_count)
    payload["mean_reproj_px"] = float(estimate.mean_reprojection_px)
    write_json(path, payload)


@_reader
def read_pose(path) -> RigidTransform:
    """Read the transform from a pose record (gt or estimated); extras ignored."""
    return _transform_from_payload(read_json(path))


@_reader
def _read_gt_pose(path) -> tuple[RigidTransform, int]:
    """The transform and scene seed of a bundle's gt_pose.json."""
    raw = read_json(path)
    return _transform_from_payload(raw), int(raw.get("seed", 0))


def write_correspondences(path, corrs: CorrespondenceSet) -> None:
    lines = ["u,v,point_index,score"]
    columns = zip(
        corrs.pixels.tolist(), corrs.point_indices.tolist(), corrs.scores.tolist()
    )
    lines.extend(f"{u!r},{v!r},{idx},{score!r}" for (u, v), idx, score in columns)
    Path(path).write_text("\n".join(lines) + "\n")


@_reader
def read_correspondences(path) -> CorrespondenceSet:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "u,v,point_index,score":
        raise BundleError(f"{path}: bad correspondence CSV header")
    pixels, indices, scores = [], [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        u, v, idx, score = line.split(",")
        pixels.append((float(u), float(v)))
        indices.append(int(idx))
        scores.append(float(score))
    return CorrespondenceSet(
        np.array(pixels, dtype=np.float64).reshape(-1, 2),
        np.array(indices, dtype=np.int64),
        np.array(scores, dtype=np.float64),
    )


_PATCH_HEADER = "img_patch_id,cloud_patch_id,score"


def write_patches(path, patches) -> None:
    """Coarse (image tile id, cloud cell id, score) pairs, one per row."""
    lines = [_PATCH_HEADER]
    lines.extend(f"{tile},{cell},{score!r}" for tile, cell, score in patches)
    Path(path).write_text("\n".join(lines) + "\n")


@_reader
def read_patches(path) -> tuple[tuple[int, int, float], ...]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _PATCH_HEADER:
        raise BundleError(f"{path}: bad patch CSV header")
    out = []
    for line in lines[1:]:
        if not line.strip():
            continue
        tile, cell, score = line.split(",")
        out.append((int(tile), int(cell), float(score)))
    return tuple(out)


def write_grid(path, tile_rows: int, tile_cols: int, voxel_size: float) -> None:
    """The patch grid that the ids of a patches.csv refer to."""
    write_json(path, {"tile_rows": tile_rows, "tile_cols": tile_cols, "voxel_size": voxel_size})


@_reader
def read_grid(path) -> tuple[int, int, float]:
    """(tile_rows, tile_cols, voxel_size) from a grid.json."""
    if not Path(path).is_file():
        raise BundleError(f"{path}: missing; patch ids cannot be read without their grid")
    raw = read_json(path)
    rows, cols, voxel = raw["tile_rows"], raw["tile_cols"], raw["voxel_size"]
    if not all(type(v) is int for v in (rows, cols)) or type(voxel) not in (int, float):
        raise BundleError(f"{path}: expected integer tile counts and a numeric voxel size")
    return rows, cols, float(voxel)


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
    write_depth(out / "depth.bin", scene.depth)
    write_intrinsics(out / "intrinsics.json", scene.intrinsics)
    pose_payload = _transform_payload(scene.gt_transform)
    pose_payload["seed"] = int(scene.seed)
    write_json(out / "gt_pose.json", pose_payload)
    write_correspondences(out / "gt_corrs.csv", scene.gt_correspondences)


def load_scene_bundle(directory) -> SyntheticScene:
    """The bundle's scene; SyntheticScene's own check failing is a BundleError."""
    src = Path(directory)
    missing = [name for name in BUNDLE_FILES if not (src / name).is_file()]
    if missing:
        raise BundleError(f"bundle {src} is missing {missing}")
    cloud = read_ply(src / "cloud.ply")
    intrinsics = read_intrinsics(src / "intrinsics.json")
    depth = read_depth(src / "depth.bin", (intrinsics.height, intrinsics.width))
    transform, seed = _read_gt_pose(src / "gt_pose.json")
    corrs = read_correspondences(src / "gt_corrs.csv")
    try:
        return SyntheticScene(cloud, depth, intrinsics, transform, corrs, seed)
    except ValueError as exc:
        raise BundleError(f"bundle {src}: {exc}") from exc
