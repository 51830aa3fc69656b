"""Synthetic scenes and constructed features standing in for trained backbones.

A scene is built by sampling points on simple primitives placed inside
the camera frustum, choosing a random ground-truth pose, and rendering
a depth image by z-buffer splatting. The cloud is stored in its own frame
(the ground-truth transform maps cloud frame to camera frame), so every
z-buffer winner is a perfect pixel/point correspondence by construction.

A scene keeps its pixels once, in a PixelTable of (u, v, depth, point
index) rows, and builds no image-sized array; the ground-truth
correspondences are a read-only view of the table.

Features are constructed, not learned: both sides of a ground-truth
pair share one random unit vector, which models a perfectly trained
matcher; Gaussian feature noise, row outliers, depth noise, and depth
masking model its degradation. A StandIn, registration's only reader of
that ground truth, holds its base rows, the noise-free cloud features,
read-only, in the first columns of a (points, channels + 3) matrix: the
prep that register_scene makes for itself serves one registration and
lends that matrix to the cloud side, whose normal channels fill the rest.
This module keeps no draw between calls; a caller may.

corrupt_depth works per scene and per table row: the rows, in row-major
order, take one Gaussian deviate and one uniform each, from two
independent child streams of (scene seed, noise seed). Every scene of a
batch thus gets its own noise and mask, and a sweep of the noise sigma
keeps the mask while a sweep of the mask ratio keeps the noise.

Every draw comes from a stream that _settings.stream_rng opens. PixelTable
and SyntheticScene check every scene, generated or loaded, on construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._settings import check, check_fields, setting, stream_rng
from .errors import EmptyVisibleSetError
from .geometry import (
    UNIT_ROWS_BLOCK_ENTRIES,
    CameraIntrinsics,
    F64,
    RigidTransform,
    as_points,
    as_unit_rows,
    as_vec3,
    project_points,
    rotation_from_axis_angle,
    sq_dists,
    unit_rows,
)
from .matching import CorrespondenceSet

__all__ = [
    "Plane",
    "Box",
    "Sphere",
    "SceneSpec",
    "PixelTable",
    "SyntheticScene",
    "CorruptionConfig",
    "generate_scene",
    "render_depth",
    "corrupt_depth",
    "StandIn",
    "synthesize_features",
]

_SWAP_CANDIDATES = 16  # cloud points a swapped row draws to find a far one


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
            as_unit_rows(as_vec3(getattr(self, name), name=name), name)
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
    point_count: int = setting("point_count")
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    max_rotation_deg: float = setting("max_rotation_deg")
    max_translation_m: float = setting("max_translation_m")

    def __post_init__(self) -> None:
        if len(self.primitives) == 0:
            raise ValueError("at least one primitive is required")
        check_fields(self)


@dataclass(frozen=True)
class PixelTable:
    """A depth image's valid pixels, one (u, v), depth and point index per row.

    The rows are distinct integer pixels inside the width x height image
    (at most 2**53 pixels, so each row-major key is exact in float64),
    in row-major order, with finite positive depths, as render_depth
    emits them; a point index names the pixel's ground-truth cloud point,
    or is -1. Construction checks all of this (SyntheticScene checks the
    index range); it is the package's only pixel check.
    """

    width: int
    height: int
    pixels: F64  # (rows, 2) float64 (u, v)
    depths: F64
    point_indices: np.ndarray  # int64; given as whole floats, cast exactly

    def __post_init__(self) -> None:
        w, h = self.width, self.height
        if min(w, h) < 1:
            raise ValueError(f"image size must be positive, got {w}x{h}")
        if int(w) * int(h) > 2**53:  # a row-major key v * w + u is exact in float64
            raise ValueError(f"image size {w}x{h} has more than 2**53 pixels")
        px = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        z = np.asarray(self.depths, dtype=np.float64).reshape(-1)
        idx = np.asarray(self.point_indices).reshape(-1)
        if not px.shape[0] == z.shape[0] == idx.shape[0]:
            raise ValueError(f"column lengths differ: {len(px)}, {len(z)}, {len(idx)}")
        u, v = px.T
        inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
        whole = np.isfinite(idx) & (idx == np.floor(idx)) & (np.abs(idx) < 2.0**53)
        bad = (u != np.floor(u)) | (v != np.floor(v)) | ~inside | ~whole
        bad |= ~(np.isfinite(z) & (z > 0.0))
        bad[1:] |= (v[1:] < v[:-1]) | ((v[1:] == v[:-1]) & (u[1:] <= u[:-1]))
        if np.any(bad):
            row = int(np.argmax(bad))
            found = (float(u[row]), float(v[row]), float(z[row]), float(idx[row]))
            raise ValueError(
                f"depth row {row} (u, v, depth, point index) = {found}: rows must be "
                f"distinct integer pixels inside the {w}x{h} image, in row-major order, "
                "with finite positive depths and integer point indices"
            )
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "depths", z)
        object.__setattr__(self, "point_indices", idx.astype(np.int64))

    def __len__(self) -> int:
        return self.depths.shape[0]


@dataclass(frozen=True)
class SyntheticScene:
    """A rendered scene with its ground truth.

    cloud is (N, 3) in the cloud's own frame; gt_transform maps cloud
    frame to camera frame. Construction checks that the seed is >= 0, that
    the table has the intrinsics' size and that each point index is -1 or
    a cloud row.
    gt_rows and gt_correspondences are views of the table, derived on
    first read (a cached_property writes the instance __dict__).
    """

    cloud: F64
    table: PixelTable
    intrinsics: CameraIntrinsics
    gt_transform: RigidTransform
    seed: int

    def __post_init__(self) -> None:
        pts = as_points(self.cloud, name="cloud")
        object.__setattr__(self, "cloud", pts)
        if self.seed < 0:
            raise ValueError(f"scene seed must be >= 0, got {self.seed}")
        w, h = self.intrinsics.width, self.intrinsics.height
        table = self.table
        if (table.width, table.height) != (w, h):
            raise ValueError(
                f"a {table.width}x{table.height} depth does not match {w}x{h} intrinsics"
            )
        idx = table.point_indices
        bad = (idx < -1) | (idx >= pts.shape[0])
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ValueError(
                f"depth row {row} names point {int(idx[row])}: a point index must be -1 "
                f"or a row of the {pts.shape[0]}-point cloud"
            )

    @functools.cached_property
    def gt_rows(self) -> np.ndarray:
        """The table rows with a ground-truth point, ascending."""
        return np.flatnonzero(self.table.point_indices >= 0)

    @functools.cached_property
    def gt_correspondences(self) -> CorrespondenceSet:
        """One correspondence per gt_rows row, with score 1."""
        rows = self.gt_rows
        return CorrespondenceSet(
            self.table.pixels[rows], self.table.point_indices[rows], np.ones(rows.size)
        )


# --------------------------------------------------------------------------- #
#  Rendering
# --------------------------------------------------------------------------- #


def render_depth(points_cam, intrinsics: CameraIntrinsics) -> PixelTable:
    """Z-buffer splat of camera-frame points, one point per pixel.

    Each point in front of the camera projects to its nearest pixel;
    the smallest depth wins a pixel, ties go to the lower point index.
    Returns one table row per won pixel, naming its winner.
    """
    pts = as_points(points_cam, name="points_cam")
    w, h = intrinsics.width, intrinsics.height
    idx = np.flatnonzero(pts[:, 2] > 0.0)
    sub = pts[idx]
    # a point near z = 0 projects to inf or past int64: cast only the rows inside
    with np.errstate(over="ignore"):
        iu, iv = np.rint(project_points(intrinsics, sub)).T
    inside = (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
    idx, iu, iv = idx[inside], iu[inside].astype(np.int64), iv[inside].astype(np.int64)
    depths = sub[inside, 2]
    if idx.size == 0:
        raise EmptyVisibleSetError("no point projects inside the image")

    # pixel_id is the primary key, so the winners come out in row-major order
    pixel_id = iv * w + iu
    order = np.lexsort((idx, depths, pixel_id))
    first = np.ones(order.size, dtype=bool)
    first[1:] = pixel_id[order][1:] != pixel_id[order][:-1]
    win = order[first]
    pixels = np.column_stack([iu[win], iv[win]]).astype(np.float64)
    return PixelTable(w, h, pixels, depths[win], idx[win])


def _allocate(total: int, buckets: int) -> list[int]:
    base, rem = divmod(total, buckets)
    return [base + (1 if i < rem else 0) for i in range(buckets)]


def generate_scene(spec: SceneSpec, seed: int) -> SyntheticScene:
    """Build a deterministic scene: sampled surfaces, random pose, rendered depth."""
    pose_rng = stream_rng("pose", seed)
    axis = pose_rng.standard_normal(3)
    norm = float(np.linalg.norm(axis))
    axis = axis / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    angle = pose_rng.uniform(0.0, math.radians(spec.max_rotation_deg))
    tra = pose_rng.uniform(-spec.max_translation_m, spec.max_translation_m, 3)
    gt = RigidTransform(rotation_from_axis_angle(axis * angle), tra)

    sample_rng = stream_rng("sample", seed)
    parts = [
        prim.sample(sample_rng, count)
        for prim, count in zip(spec.primitives, _allocate(spec.point_count, len(spec.primitives)))
    ]
    samples_cam = np.vstack(parts)
    table = render_depth(samples_cam, spec.intrinsics)
    cloud = gt.inverse().apply(samples_cam)
    return SyntheticScene(cloud, table, spec.intrinsics, gt, seed)


# --------------------------------------------------------------------------- #
#  Corruption
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CorruptionConfig:
    """Degradation knobs for depth maps and constructed features."""

    gaussian_sigma_m: float = setting("gaussian_sigma_m")
    mask_ratio: float = setting("mask_ratio")
    feature_noise_sigma: float = setting("feature_noise_sigma")
    outlier_fraction: float = setting("outlier_fraction")
    guidance_noise_scale: float = setting("guidance_noise_scale")
    guidance_swap_scale: float = setting("guidance_swap_scale")
    tau1_m: float = setting("tau1_m")  # a swap's point lies farther than 3 * tau1_m
    seed: int = setting("noise_seed")

    def __post_init__(self) -> None:
        check_fields(self)


def corrupt_depth(depths: F64, cfg: CorruptionConfig, scene_seed: int) -> tuple[F64, np.ndarray]:
    """Noise the depths of a scene's table rows, then drop a random fraction.

    Returns the noisy depths and which rows survive; a row whose noisy
    depth is not finite and positive is dropped too. Row i takes the i-th
    Gaussian deviate of one child stream of (scene_seed, cfg.seed) and the
    i-th uniform of the other; a stream is drawn only when its knob is
    positive. So the noise does not depend on mask_ratio, the mask does not
    depend on gaussian_sigma_m, and a higher mask_ratio drops a superset of
    the rows.
    """
    noise_rng, mask_rng = stream_rng("depth_corruption", scene_seed, cfg.seed).spawn(2)
    values = depths
    if cfg.gaussian_sigma_m > 0.0:
        values = depths + noise_rng.normal(0.0, cfg.gaussian_sigma_m, depths.shape)
    keep = np.ones(depths.shape, dtype=bool)
    if cfg.mask_ratio > 0.0:
        keep = mask_rng.random(depths.shape) >= cfg.mask_ratio
    keep &= np.isfinite(values) & (values > 0.0)
    return values, keep


@dataclass(frozen=True)
class StandIn:
    """The trained backbones' stand-in: registration's only ground-truth reader.

    of snapshots, from the scene's ground truth, the table rows that have
    a point (ascending), their point indices and one unit base vector per
    cloud point (read-only); the rest is observation (the cloud and the seed).
    The base rows are the first columns of an (N, channels + 3) matrix, drawn
    a block of rows at a time (the bytes of one whole draw), whose last 3
    columns are left for the cloud normals: lend_base gives it away.
    """

    seed: int
    cloud: F64
    rows: np.ndarray
    points: np.ndarray
    base: F64  # (N, channels)

    @classmethod
    def of(cls, scene: SyntheticScene, channels: int) -> "StandIn":
        n, channels = len(scene.cloud), check("channels", channels)
        matrix = np.empty((n, channels + 3))
        base = matrix[:, :channels]
        base_rng = stream_rng("base", scene.seed)
        block = max(1, UNIT_ROWS_BLOCK_ENTRIES // channels)
        for start in range(0, n, block):
            draw = base_rng.standard_normal((min(block, n - start), channels))
            unit_rows(draw, out=base[start:start + block])
        base.flags.writeable = False
        rows = scene.gt_rows
        return cls(scene.seed, scene.cloud, rows, scene.table.point_indices[rows], base)

    def lend_base(self) -> F64:
        """The writeable (N, channels + 3) matrix whose first columns are base.
        Writing it changes base, so only a stand-in's last reader may take it."""
        return self.base.base

    def cloud_normals(self, row_normals: F64) -> F64:
        """(N, 3): each point's normal from its row of row_normals, or zero."""
        out = np.zeros((self.cloud.shape[0], 3))
        out[self.points] = row_normals[self.rows]
        return out


def synthesize_features(
    stand_in: StandIn, noise: CorruptionConfig, agreement: float = 1.0, out: F64 | None = None,
    keep=None,
) -> tuple[F64, F64]:
    """Aligned features: one image row per stand-in row, one cloud row per point.

    A row and its point share the point's base vector. Feature noise perturbs
    both sides independently, outlier_fraction of image rows take fresh random
    directions, and then the lost depth agreement, 1 - agreement, scales the
    guidance noise on the image rows and the rate of a swap that points a row
    at a cloud point farther than 3 * tau1_m (an outlier downstream); swapped
    rows bypass the noise; each Gaussian step re-normalizes. Draws are sized
    by the row count, so more corruption only grows the affected sets.
    The image rows go to out, a (rows, channels) float64 array or view such
    as the first columns of a wider matrix, else to a new array, a block of
    rows at a time. The caller owns them; the cloud rows are read-only, base
    at sigma 0.
    keep(name, key, make), as ScenePrep.keep, may return a value kept from an
    earlier call; the cloud rows and the guidance and swap draws are read
    through it, under the values they read. Without it every call draws them,
    the guidance deviates a block of rows at a time from one generator (the
    bytes of one whole draw), so no draw of f_img's size is made.
    """
    base, points, cloud = stand_in.base, stand_in.points, stand_in.cloud
    m, shape = points.size, (points.size, base.shape[1])
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(f"out is {out.dtype} {out.shape}, expected float64 {shape}")
    f_img = np.empty(shape) if out is None else out
    block = max(1, UNIT_ROWS_BLOCK_ENTRIES // shape[1])
    for start in range(0, m, block):
        f_img[start:start + block] = base[points[start:start + block]]

    def noised(features: F64, stream: str, sigma: float, dst: F64 | None = None) -> F64:
        """features plus the stream's noise, as unit rows in dst (else in the
        draw); features themselves at sigma 0."""
        if sigma > 0.0:
            rng = stream_rng(stream, stand_in.seed, noise.seed)
            draw = rng.normal(0.0, sigma, features.shape)
            features = unit_rows(np.add(features, draw, out=draw), out=draw if dst is None else dst)
        return features

    noised(f_img, "img_noise", noise.feature_noise_sigma, dst=f_img)
    keep_or_make = keep or (lambda _name, _key, make: make())
    f_cloud = keep_or_make(  # base at sigma 0
        "cloud_rows", (noise.feature_noise_sigma, noise.seed),
        lambda: noised(base, "cloud_noise", noise.feature_noise_sigma))
    f_cloud.flags.writeable = False
    outliers = int(round(noise.outlier_fraction * m))
    if outliers > 0:
        out_rng = stream_rng("outlier", stand_in.seed, noise.seed)
        rows = out_rng.choice(m, size=outliers, replace=False)
        f_img[rows] = unit_rows(out_rng.standard_normal((outliers, base.shape[1])))

    scale = noise.guidance_noise_scale * (1.0 - agreement)
    if scale > 0.0:
        # 0.0 + scale * z is rng.normal(0.0, scale)'s deviate,
        # added one block of rows at a time, so no step of f_img's size is made
        if keep is None:  # and z is drawn a block at a time too
            rng = stream_rng("guidance", stand_in.seed, noise.seed)
            deviates = lambda rows: rng.standard_normal(f_img[rows].shape)
        else:
            deviates = keep("guidance", noise.seed, lambda: stream_rng(
                "guidance", stand_in.seed, noise.seed).standard_normal(shape)).__getitem__
        for start in range(0, m, block):
            rows = slice(start, min(start + block, m))
            step = scale * deviates(rows)
            f_img[rows] += np.add(0.0, step, out=step)
        unit_rows(f_img, out=f_img)
    swap_p = min(1.0, noise.guidance_swap_scale * (1.0 - agreement))
    if swap_p > 0.0:
        gate, cand = keep_or_make("swap", noise.seed, lambda: (
            (rng := stream_rng("swap", stand_in.seed, noise.seed)).uniform(size=m),
            rng.integers(0, cloud.shape[0], size=(m, _SWAP_CANDIDATES))))
        rows = np.flatnonzero(gate < swap_p)
        if rows.size:
            gaps = np.sqrt(sq_dists(cloud, points[rows][:, None], cand[rows]))
            far = gaps > 3.0 * noise.tau1_m
            pick = np.where(far.any(axis=1), np.argmax(far, axis=1), np.argmax(gaps, axis=1))
            f_img[rows] = f_cloud[cand[rows, pick]]
    return f_img, f_cloud
