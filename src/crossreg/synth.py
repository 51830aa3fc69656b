"""Synthetic scenes and constructed features standing in for trained backbones.

A scene is built by sampling points on simple primitives placed inside
the camera frustum, choosing a random ground-truth pose, and rendering
a depth map by z-buffer splatting. The cloud is stored in its own frame
(the ground-truth transform maps cloud frame to camera frame), so every
z-buffer winner is a perfect pixel/point correspondence by construction.

Features are constructed, not learned: both sides of a ground-truth
pair share one random unit vector, which models a perfectly trained
matcher; Gaussian feature noise, row outliers, depth noise, and depth
masking model its degradation.

SyntheticScene checks every scene, generated or loaded, on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyVisibleSetError
from .geometry import (
    CameraIntrinsics,
    F64,
    RigidTransform,
    as_points,
    as_vec3,
    project_points,
    rotation_from_axis_angle,
    unit_rows,
)
from .matching import CorrespondenceSet
from .normals import DepthMap

# Independent RNG stream tags, combined with seeds via SeedSequence tuples.
_POSE_STREAM = 1
_DEPTH_STREAM = 2
_BASE_STREAM = 3
_IMG_NOISE_STREAM = 4
_CLOUD_NOISE_STREAM = 5
_OUTLIER_STREAM = 6

__all__ = [
    "Plane",
    "Box",
    "Sphere",
    "SceneSpec",
    "SyntheticScene",
    "CorruptionConfig",
    "generate_scene",
    "render_depth",
    "corrupt_depth",
    "synthesize_features",
]


# --------------------------------------------------------------------------- #
#  Primitives
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Plane:
    """Rectangular patch spanned by two unit axes around a center point."""

    center: tuple[float, float, float]
    x_axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    y_axis: tuple[float, float, float] = (0.0, 1.0, 0.0)
    half_extents: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("x_axis", "y_axis"):
            ax = as_vec3(getattr(self, name), name=name)
            if abs(np.linalg.norm(ax) - 1.0) > 1e-6:
                raise ValueError(f"{name} must be a unit vector")
        if min(self.half_extents) <= 0.0:
            raise ValueError("half_extents must be positive")

    def sample(self, rng: np.random.Generator, count: int) -> F64:
        uv = rng.uniform(-1.0, 1.0, (count, 2))
        c = as_vec3(self.center, name="center")
        hx, hy = self.half_extents
        return (
            c
            + uv[:, :1] * hx * as_vec3(self.x_axis)
            + uv[:, 1:] * hy * as_vec3(self.y_axis)
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box sampled on its six faces with area weighting."""

    center: tuple[float, float, float]
    half_sizes: tuple[float, float, float]

    def __post_init__(self) -> None:
        if min(self.half_sizes) <= 0.0:
            raise ValueError("half_sizes must be positive")

    def sample(self, rng: np.random.Generator, count: int) -> F64:
        c = as_vec3(self.center, name="center")
        h = np.asarray(self.half_sizes, dtype=np.float64)
        # Face k/2 fixes axis k//2 at +/-h; the other two axes are free.
        areas = np.array([h[1] * h[2], h[1] * h[2], h[0] * h[2], h[0] * h[2],
                          h[0] * h[1], h[0] * h[1]])
        faces = rng.choice(6, size=count, p=areas / areas.sum())
        pts = rng.uniform(-1.0, 1.0, (count, 3)) * h
        for face in range(6):
            sel = faces == face
            pts[sel, face // 2] = h[face // 2] * (1.0 if face % 2 == 0 else -1.0)
        return c + pts


@dataclass(frozen=True)
class Sphere:
    """Sphere surface, sampled uniformly via normalized Gaussian deviates."""

    center: tuple[float, float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    def sample(self, rng: np.random.Generator, count: int) -> F64:
        c = as_vec3(self.center, name="center")
        dirs = unit_rows(rng.standard_normal((count, 3)))
        return c + self.radius * dirs


Primitive = Plane | Box | Sphere


def _default_primitives() -> tuple[Primitive, ...]:
    tilt = math.radians(25.0)
    return (
        Plane(
            center=(0.0, 0.0, 2.8),
            x_axis=(1.0, 0.0, 0.0),
            y_axis=(0.0, math.cos(tilt), -math.sin(tilt)),
            half_extents=(1.5, 1.1),
        ),
        Box(center=(-0.45, 0.25, 1.9), half_sizes=(0.3, 0.25, 0.3)),
        Sphere(center=(0.5, -0.3, 1.7), radius=0.28),
    )


DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480
)


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic scene: what to sample and how far to move it."""

    primitives: tuple[Primitive, ...] = field(default_factory=_default_primitives)
    point_count: int = 2000
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    max_rotation_deg: float = 30.0
    max_translation_m: float = 0.5

    def __post_init__(self) -> None:
        if len(self.primitives) == 0:
            raise ValueError("at least one primitive is required")
        if self.point_count < 100:
            raise ValueError(f"point_count must be >= 100, got {self.point_count}")
        if self.max_rotation_deg < 0.0 or self.max_translation_m < 0.0:
            raise ValueError("pose range bounds must be >= 0")


@dataclass(frozen=True)
class SyntheticScene:
    """A rendered scene with its ground truth.

    cloud is (N, 3) in the cloud's own frame; gt_transform maps cloud
    frame to camera frame; gt_correspondences holds one entry per
    z-buffer-winning point, with score 1. Construction checks that the
    depth has the intrinsics' shape and that the pixels are distinct
    integer cells inside the image in row-major order, as rendered.
    """

    cloud: F64
    depth: DepthMap
    intrinsics: CameraIntrinsics
    gt_transform: RigidTransform
    gt_correspondences: CorrespondenceSet
    seed: int

    def __post_init__(self) -> None:
        pts = as_points(self.cloud, name="cloud")
        object.__setattr__(self, "cloud", pts)
        w, h = self.intrinsics.width, self.intrinsics.height
        if self.depth.shape != (h, w):
            raise ValueError(f"depth shape {self.depth.shape} does not match {w}x{h} intrinsics")
        idx = self.gt_correspondences.point_indices
        if idx.size and (idx.min() < 0 or idx.max() >= pts.shape[0]):
            raise ValueError("gt correspondence indices out of cloud range")
        px = self.gt_correspondences.pixels
        u, v = px.T
        bad = np.any((px != np.floor(px)) | (px < 0.0) | (px >= [w, h]), axis=1)
        bad[1:] |= (v[1:] < v[:-1]) | ((v[1:] == v[:-1]) & (u[1:] <= u[:-1]))
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ValueError(
                f"gt pixel {tuple(px[row].tolist())} at row {row}: gt pixels must be "
                f"distinct integer cells inside the {w}x{h} image, in row-major order"
            )


# --------------------------------------------------------------------------- #
#  Rendering
# --------------------------------------------------------------------------- #


def render_depth(
    points_cam, intrinsics: CameraIntrinsics
) -> tuple[DepthMap, CorrespondenceSet]:
    """Z-buffer splat of camera-frame points into a one-point-per-pixel depth map.

    Each point in front of the camera projects to its nearest pixel;
    the smallest depth wins a pixel, ties go to the lower point index.
    Returns the depth map and the winners as exact correspondences.
    """
    pts = as_points(points_cam, name="points_cam")
    w, h = intrinsics.width, intrinsics.height
    idx = np.flatnonzero(pts[:, 2] > 0.0)
    sub = pts[idx]
    iu, iv = np.rint(project_points(intrinsics, sub)).astype(np.int64).T
    inside = (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
    idx, iu, iv = idx[inside], iu[inside], iv[inside]
    depths = sub[inside, 2]
    if idx.size == 0:
        raise EmptyVisibleSetError("no point projects inside the image")

    pixel_id = iv * w + iu
    order = np.lexsort((idx, depths, pixel_id))
    first = np.ones(order.size, dtype=bool)
    first[1:] = pixel_id[order][1:] != pixel_id[order][:-1]
    win = order[first]

    values = np.full((h, w), np.nan)
    values[iv[win], iu[win]] = depths[win]
    pixels = np.column_stack([iu[win], iv[win]]).astype(np.float64)
    corrs = CorrespondenceSet(pixels, idx[win], np.ones(win.size))
    return DepthMap.from_values(values), corrs


def _allocate(total: int, buckets: int) -> list[int]:
    base, rem = divmod(total, buckets)
    return [base + (1 if i < rem else 0) for i in range(buckets)]


def generate_scene(spec: SceneSpec, seed: int) -> SyntheticScene:
    """Build a deterministic scene: sampled surfaces, random pose, rendered depth."""
    pose_rng = np.random.default_rng(np.random.SeedSequence((seed, _POSE_STREAM)))
    axis = pose_rng.standard_normal(3)
    norm = float(np.linalg.norm(axis))
    axis = axis / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    angle = pose_rng.uniform(0.0, math.radians(spec.max_rotation_deg))
    tra = pose_rng.uniform(-spec.max_translation_m, spec.max_translation_m, 3)
    gt = RigidTransform(rotation_from_axis_angle(axis * angle), tra)

    sample_rng = np.random.default_rng(np.random.SeedSequence((seed, _DEPTH_STREAM)))
    parts = [
        prim.sample(sample_rng, count)
        for prim, count in zip(spec.primitives, _allocate(spec.point_count, len(spec.primitives)))
    ]
    samples_cam = np.vstack(parts)
    depth, corrs = render_depth(samples_cam, spec.intrinsics)
    cloud = gt.inverse().apply(samples_cam)
    return SyntheticScene(cloud, depth, spec.intrinsics, gt, corrs, seed)


# --------------------------------------------------------------------------- #
#  Corruption
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CorruptionConfig:
    """Degradation knobs for depth maps and constructed features."""

    gaussian_sigma_m: float = 0.0
    mask_ratio: float = 0.0
    feature_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gaussian_sigma_m < 0.0 or self.feature_noise_sigma < 0.0:
            raise ValueError("noise sigmas must be >= 0")
        for name in ("mask_ratio", "outlier_fraction"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")


def corrupt_depth(depth: DepthMap, cfg: CorruptionConfig) -> DepthMap:
    """Add Gaussian noise to valid pixels, then drop a random pixel fraction.

    Pixels whose noisy value becomes non-positive are invalidated too,
    since a depth map cannot represent them. Deterministic per cfg.seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _DEPTH_STREAM)))
    values = depth.values.copy()
    valid = depth.valid.copy()
    if cfg.gaussian_sigma_m > 0.0:
        noise = rng.normal(0.0, cfg.gaussian_sigma_m, values.shape)
        values = np.where(valid, values + noise, values)
    if cfg.mask_ratio > 0.0:
        valid &= rng.random(values.shape) >= cfg.mask_ratio
    valid &= np.isfinite(values) & (values > 0.0)
    return DepthMap(np.where(valid, values, np.nan), valid)


def synthesize_features(
    scene: SyntheticScene, channels: int, noise: CorruptionConfig
) -> tuple[F64, F64]:
    """Construct aligned features: one image row per gt pair, one cloud row per point.

    Ground-truth pairs share a base unit vector; every other cloud point
    gets its own. Feature noise perturbs both sides independently before
    re-normalization; outlier_fraction of image rows are then replaced
    with fresh random directions.
    """
    if channels < 4:
        raise ValueError(f"channels must be >= 4, got {channels}")
    n = scene.cloud.shape[0]
    m = len(scene.gt_correspondences)
    base_rng = np.random.default_rng(np.random.SeedSequence((scene.seed, _BASE_STREAM)))
    base = unit_rows(base_rng.standard_normal((n, channels)))
    f_cloud = base.copy()
    f_img = base[scene.gt_correspondences.point_indices].copy()

    if noise.feature_noise_sigma > 0.0:
        img_rng = np.random.default_rng(
            np.random.SeedSequence((scene.seed, noise.seed, _IMG_NOISE_STREAM))
        )
        cloud_rng = np.random.default_rng(
            np.random.SeedSequence((scene.seed, noise.seed, _CLOUD_NOISE_STREAM))
        )
        f_img = unit_rows(f_img + img_rng.normal(0.0, noise.feature_noise_sigma, f_img.shape))
        f_cloud = unit_rows(
            f_cloud + cloud_rng.normal(0.0, noise.feature_noise_sigma, f_cloud.shape)
        )

    outliers = int(round(noise.outlier_fraction * m))
    if outliers > 0:
        out_rng = np.random.default_rng(
            np.random.SeedSequence((scene.seed, noise.seed, _OUTLIER_STREAM))
        )
        rows = out_rng.choice(m, size=outliers, replace=False)
        f_img[rows] = unit_rows(out_rng.standard_normal((outliers, channels)))
    return f_img, f_cloud
