"""Rigid transforms, pinhole camera operations, and row normalization.

Conventions used throughout the package:

* 3D points are float64 arrays of shape (3,) or (N, 3), in meters.
* Pixel coordinates are (u, v) with u horizontal (column direction) and
  v vertical (row direction); image arrays are indexed [v, u].
* A rigid transform maps cloud-frame points into camera-frame points,
  p_cam = R @ p + t, with the camera at the origin looking down +z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

import numpy as np
import numpy.typing as npt

from .errors import InvalidRotationError, NonPositiveDepthError

F64: TypeAlias = npt.NDArray[np.float64]

ROTATION_TOL = 1e-9


# --------------------------------------------------------------------------- #
#  Validation helpers
# --------------------------------------------------------------------------- #


def as_float_array(x, shape: tuple[int, ...] | None = None, name: str = "array") -> F64:
    """Coerce to a float64 ndarray, checking finiteness and (optionally) shape."""
    arr = np.asarray(x, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite values")
    return arr


def as_points(x, name: str = "points") -> F64:
    """Coerce to an (N, 3) float64 array of finite 3D points."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name}: expected shape (N, 3), got {arr.shape}")
    return as_float_array(arr, name=name)


def as_vec3(x, name: str = "vector") -> F64:
    return as_float_array(x, shape=(3,), name=name)


def as_rotation(x, name: str = "rotation") -> F64:
    """Coerce to a 3x3 rotation: R^T R = I and det R = +1, both within ROTATION_TOL."""
    rot = as_float_array(x, shape=(3, 3), name=name)
    err = np.abs(rot.T @ rot - np.eye(3)).max()
    if err > ROTATION_TOL:
        raise InvalidRotationError(f"{name}: R^T R deviates from identity by {err:.3e}")
    det = float(np.linalg.det(rot))
    if abs(det - 1.0) > ROTATION_TOL:
        raise InvalidRotationError(f"{name}: det(R) = {det:.12f}, expected +1")
    return rot


def unit_rows(rows) -> F64:
    """Scale each vector along the last axis to unit length; zero rows stay zero."""
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


# --------------------------------------------------------------------------- #
#  Rigid transforms
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: a rotation, checked by as_rotation, plus a translation."""

    rotation: F64
    translation: F64

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", as_rotation(self.rotation))
        object.__setattr__(self, "translation", as_vec3(self.translation, name="translation"))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> F64:
        """Apply to a single (3,) point or an (N, 3) batch."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape == (3,):
            return self.rotation @ pts + self.translation
        pts = as_points(pts)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rot_inv = self.rotation.T
        return RigidTransform(rot_inv, -rot_inv @ self.translation)


def rotation_from_axis_angle(axis_angle) -> F64:
    """Rodrigues' formula; the vector's norm is the rotation angle in radians."""
    w = as_vec3(axis_angle, name="axis_angle")
    theta = float(np.linalg.norm(w))
    if theta < 1e-300:
        return np.eye(3)
    k = w / theta
    skew = np.array(
        [
            [0.0, -k[2], k[1]],
            [k[2], 0.0, -k[0]],
            [-k[1], k[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(theta) * skew + (1.0 - np.cos(theta)) * (skew @ skew)


# --------------------------------------------------------------------------- #
#  Pinhole camera
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with the principal point inside the image."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(f"principal point ({self.cx}, {self.cy}) outside image")


def project_points(intrinsics: CameraIntrinsics, points) -> F64:
    """Vectorized projection of (N, 3) camera-frame points; every z must be > 0."""
    pts = as_points(points)
    if (pts[:, 2] <= 0.0).any():
        raise NonPositiveDepthError("cannot project points with z <= 0")
    return project_unchecked(intrinsics, pts)


def project_unchecked(intrinsics: CameraIntrinsics, pts: F64) -> F64:
    """The pinhole model of project_points without its checks, for hot loops
    whose (N, 3) float64 points are already known finite with z > 0."""
    z = pts[:, 2]
    uv = np.empty((pts.shape[0], 2))
    uv[:, 0] = intrinsics.fx * pts[:, 0] / z + intrinsics.cx
    uv[:, 1] = intrinsics.fy * pts[:, 1] / z + intrinsics.cy
    return uv


def backproject_pixels(intrinsics: CameraIntrinsics, uv, depths) -> F64:
    """Vectorized backprojection; every depth must be > 0."""
    uv = np.asarray(uv, dtype=np.float64)
    d = np.asarray(depths, dtype=np.float64)
    if uv.ndim != 2 or uv.shape[1] != 2 or uv.shape[0] != d.shape[0]:
        raise ValueError(f"uv/depths shapes incompatible: {uv.shape} vs {d.shape}")
    if (d <= 0.0).any() or not np.isfinite(d).all():
        raise NonPositiveDepthError("cannot backproject depths <= 0")
    out = np.empty((uv.shape[0], 3))
    out[:, 0] = (uv[:, 0] - intrinsics.cx) * d / intrinsics.fx
    out[:, 1] = (uv[:, 1] - intrinsics.cy) * d / intrinsics.fy
    out[:, 2] = d
    return out
