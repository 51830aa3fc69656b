"""Scene-level evaluation metrics for 2D-3D registration.

All ratio metrics use the strict inequalities of their definitions:
inliers fall strictly inside tau1, recalls count strictly-above /
strictly-below thresholds, and patch pairs must exceed the overlap
threshold. Rotation error decomposes the relative rotation into
intrinsic XYZ Euler angles (R = Rx @ Ry @ Rz) and sums their absolute
values in degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._settings import PARAMETERS, SETTINGS, check
from .errors import (
    EmptyCorrespondencesError,
    EmptySampleError,
    MissingDepthError,
)
from .geometry import (
    CameraIntrinsics,
    F64,
    RigidTransform,
    as_float_array,
    as_points,
    as_rotation,
    as_vec3,
    backproject_pixels,
)
from .matching import CorrespondenceSet, PatchPair
from .normals import DepthMap

TAU1_M, TAU2_RATIO, TAU3_M = (SETTINGS[k].default for k in ("tau1_m", "tau2_ratio", "tau3_m"))
PIR_THRESHOLD = PARAMETERS["pir_threshold"].default

__all__ = [
    "SceneEvaluation",
    "inlier_ratio",
    "feature_matching_recall",
    "registration_rmse",
    "registration_recall",
    "patch_inlier_ratio",
    "relative_rotation_error",
    "relative_translation_error",
]


@dataclass(frozen=True)
class SceneEvaluation:
    """Full metric readout for one image / point-cloud pair."""

    inlier_ratio: float
    fmr_flag: bool
    rmse_m: float
    rr_flag: bool
    pir: float
    rre_deg: float
    rte_m: float

    def __post_init__(self) -> None:
        for name in ("inlier_ratio", "pir"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in ("rmse_m", "rre_deg", "rte_m"):
            val = getattr(self, name)
            if val < 0.0 or not math.isfinite(val):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")


def _depth_at(depth, pixels: F64) -> F64:
    """Depths at nearest-integer pixels by row-major key; a PixelTable's rows are in key order."""
    if isinstance(depth, DepthMap):
        (h, w), keys = depth.shape, np.flatnonzero(depth.valid)
        values = depth.values.reshape(-1)[keys]
    else:
        h, w, values = depth.height, depth.width, depth.depths
        keys = (depth.pixels[:, 1] * w + depth.pixels[:, 0]).astype(np.int64)
    cols, rows = np.rint(pixels).T  # cast only once inside: a far pixel overflows int64
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    if not np.all(inside):
        bad = pixels[~inside][0]
        raise MissingDepthError(f"pixel {tuple(bad.tolist())} outside the depth map")
    want = (rows * w + cols).astype(np.int64)
    at = np.searchsorted(keys, want)
    found = np.append(keys, h * w)[at] == want  # h * w: past every key
    if not np.all(found):
        bad = pixels[~found][0]
        raise MissingDepthError(f"no valid depth at pixel {tuple(bad.tolist())}")
    return values[at]


def inlier_ratio(
    corrs: CorrespondenceSet,
    cloud,
    depth,
    intrinsics: CameraIntrinsics,
    gt_transform: RigidTransform,
    tau1: float = TAU1_M,
) -> float:
    """Fraction of correspondences within tau1 meters of their lifted pixel.

    Each pixel is lifted to 3D with its measured depth, read from depth (a
    scene's PixelTable or a DepthMap); the matched cloud point is mapped
    into the camera frame by the ground-truth transform; the pair is an
    inlier when the gap is strictly below tau1.
    """
    tau1 = check("tau1", tau1)
    if len(corrs) == 0:
        raise EmptyCorrespondencesError("inlier ratio of an empty set")
    moved = gt_transform.apply(corrs.matched_points(cloud))
    depths = _depth_at(depth, corrs.pixels)
    lifted = backproject_pixels(intrinsics, corrs.pixels, depths)
    gaps = np.linalg.norm(moved - lifted, axis=1)
    return float(np.count_nonzero(gaps < tau1) / len(corrs))


def feature_matching_recall(inlier_ratios, tau2: float = TAU2_RATIO) -> float:
    """Fraction of scenes whose inlier ratio is strictly above tau2."""
    tau2 = check("tau2_ratio", tau2, "tau2")
    irs = as_float_array(inlier_ratios, name="inlier_ratios").reshape(-1)
    if irs.size == 0:
        raise EmptySampleError("feature matching recall of an empty batch")
    return float(np.count_nonzero(irs > tau2) / irs.size)


def registration_rmse(cloud, est_transform: RigidTransform, gt_transform: RigidTransform) -> float:
    """Root-mean-square gap between the two transforms applied to the cloud."""
    pts = as_points(cloud, name="cloud")
    if pts.shape[0] == 0:
        raise EmptySampleError("registration RMSE of an empty cloud")
    gaps = est_transform.apply(pts) - gt_transform.apply(pts)
    return float(np.sqrt(np.mean(np.sum(gaps * gaps, axis=1))))


def registration_recall(rmses, tau3: float = TAU3_M) -> float:
    """Fraction of scenes whose RMSE is strictly below tau3; +inf (unregistered) misses."""
    tau3 = check("tau3_m", tau3, "tau3")
    vals = np.asarray(rmses, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise EmptySampleError("registration recall of an empty batch")
    hits = as_float_array(vals[vals != np.inf], name="rmses") < tau3
    return float(np.count_nonzero(hits) / vals.size)


def patch_inlier_ratio(pairs: Sequence[PatchPair], threshold: float = PIR_THRESHOLD) -> float:
    """Fraction of patch pairs whose overlap ratio is strictly above threshold."""
    threshold = check("pir_threshold", threshold, "threshold")
    if len(pairs) == 0:
        raise EmptySampleError("patch inlier ratio of an empty pair list")
    hits = sum(1 for p in pairs if p.overlap_ratio > threshold)
    return hits / len(pairs)


def _euler_xyz(m: F64) -> tuple[float, float, float]:
    """Intrinsic XYZ Euler angles (radians) with m = Rx(a) @ Ry(b) @ Rz(c).

    Near gimbal lock (|b| = pi/2) the split between a and c is not
    unique; the third angle is pinned to zero there.
    """
    sb = min(1.0, max(-1.0, float(m[0, 2])))
    b = math.asin(sb)
    if abs(sb) > 1.0 - 1e-9:
        a = math.atan2(float(m[2, 1]), float(m[1, 1]))
        c = 0.0
    else:
        a = math.atan2(-float(m[1, 2]), float(m[2, 2]))
        c = math.atan2(-float(m[0, 1]), float(m[0, 0]))
    return a, b, c


def relative_rotation_error(gt_rotation, est_rotation) -> float:
    """Sum of absolute relative Euler angles, in degrees."""
    gt = as_rotation(gt_rotation, "gt_rotation")
    est = as_rotation(est_rotation, "est_rotation")
    # unchecked: rounding alone can push a product of two rotations past the tolerance
    a, b, c = _euler_xyz(gt.T @ est)
    return math.degrees(abs(a) + abs(b) + abs(c))


def relative_translation_error(gt_translation, est_translation) -> float:
    """Euclidean gap between the two translation vectors, in meters."""
    gt = as_vec3(gt_translation, name="gt_translation")
    est = as_vec3(est_translation, name="est_translation")
    return float(np.linalg.norm(gt - est))
