"""File formats: point clouds, depth/normal rasters, JSON records, bundles.

Writers are byte-deterministic: floats serialize with repr (shortest
round-trip form), JSON uses sorted keys and a fixed indent, and binary
rasters are little-endian float32 behind a one-line ASCII header. A
scene bundle is a directory holding cloud.ply, depth.bin,
intrinsics.json, gt_pose.json, and gt_corrs.csv. Readers report a
malformed file as a BundleError naming it.
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


def write_ply(path, points) -> None:
    pts = as_points(points, name="points")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in pts.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


@_reader
def read_ply(path) -> F64:
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise BundleError(f"{path}: not a PLY file")
    count = None
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if tokens[:2] == ["element", "vertex"]:
            count = int(tokens[2])
        elif tokens[:1] == ["end_header"]:
            body_at = i + 1
            break
    if count is None or body_at is None:
        raise BundleError(f"{path}: PLY header missing vertex element")
    rows = lines[body_at : body_at + count]
    if len(rows) != count:
        raise BundleError(f"{path}: expected {count} vertices, found {len(rows)}")
    if count == 0:
        return np.zeros((0, 3))
    return np.array([[float(t) for t in row.split()[:3]] for row in rows])


# --------------------------------------------------------------------------- #
#  Rasters: one ASCII header line, then little-endian float32
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
    h, w = depth.shape
    _write_raster(path, "DEPTH", w, h, np.where(depth.valid, depth.values, np.nan))


@_reader
def read_depth(path) -> DepthMap:
    width, height, data = _read_raster(path, "DEPTH")
    if data.size != width * height:
        raise BundleError(f"{path}: depth payload size mismatch")
    return DepthMap.from_values(data.astype(np.float64).reshape(height, width))


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
    depth = read_depth(src / "depth.bin")
    intrinsics = read_intrinsics(src / "intrinsics.json")
    transform, seed = _read_gt_pose(src / "gt_pose.json")
    corrs = read_correspondences(src / "gt_corrs.csv")
    try:
        return SyntheticScene(cloud, depth, intrinsics, transform, corrs, seed)
    except ValueError as exc:
        raise BundleError(f"bundle {src}: {exc}") from exc
