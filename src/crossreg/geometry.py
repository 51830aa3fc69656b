"""Input checks, rigid transforms, pinhole camera operations, row normalization,
the median and pairwise squared distances.

Conventions used throughout the package:

* 3D points are float64 arrays of shape (N, 3), in meters.
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

from .errors import (
    ChannelMismatchError, CoordinateOverflowError, InvalidRotationError, NonPositiveDepthError,
    NotNormalizedError,
)

F64: TypeAlias = npt.NDArray[np.float64]

ROTATION_TOL = 1e-9
UNIT_TOL = 1e-6
# Entries per block of unit_rows: its norm temporaries stay near 128 kB.
UNIT_ROWS_BLOCK_ENTRIES = 16_384
# Within it, a gap between two points moved by a rigid transform, squared
# and summed over the axes, stays finite (the gaps reach about 6e150).
COORDINATE_LIMIT = 1e150


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


def as_unit_rows(x, name: str) -> F64:
    """as_float_array, with every vector along the last axis of unit length
    within UNIT_TOL; NotNormalizedError names the worst deviation."""
    arr = as_float_array(x, name=name)
    worst = float(np.max(np.abs(np.linalg.norm(arr, axis=-1) - 1.0), initial=0.0))
    if worst > UNIT_TOL:
        raise NotNormalizedError(f"{name}: row norm deviates from 1 by {worst:.3e}")
    return arr


def as_rows(x, name: str, width: int | None = None) -> F64:
    """as_float_array of an (N, C) matrix: a ValueError naming `name` unless
    x is 2-D, and a ChannelMismatchError when width is given and C is not it."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or (width is not None and arr.shape[1] != width):
        error = ValueError if arr.ndim != 2 else ChannelMismatchError
        raise error(f"{name}: expected shape (N, {'C' if width is None else width}), got {arr.shape}")
    return as_float_array(arr, name=name)


def as_points(x, name: str = "points") -> F64:
    """Coerce to an (N, 3) float64 array of finite 3D points."""
    return as_rows(x, name, 3)


def as_vec3(x, name: str = "vector") -> F64:
    return as_float_array(x, shape=(3,), name=name)


def check_coordinates(values, name: str) -> None:
    """CoordinateOverflowError unless every entry lies within COORDINATE_LIMIT."""
    if not np.all(np.abs(values) <= COORDINATE_LIMIT):
        raise CoordinateOverflowError(
            f"{name}: coordinates beyond {COORDINATE_LIMIT:g} overflow the squared gaps"
        )


def as_rotation(x, name: str = "rotation") -> F64:
    """Coerce to a 3x3 rotation: R^T R = I and det R = +1, both within ROTATION_TOL.

    A rotation's entries lie in [-1, 1], so a larger one is refused before
    R^T R is formed, which could overflow.
    """
    rot = as_float_array(x, shape=(3, 3), name=name)
    big = float(rot.flat[np.argmax(np.abs(rot))])
    if abs(big) > 1.0 + ROTATION_TOL:
        raise InvalidRotationError(f"{name}: entry {big!r} lies outside [-1, 1]")
    err = np.abs(rot.T @ rot - np.eye(3)).max()
    if err > ROTATION_TOL:
        raise InvalidRotationError(f"{name}: R^T R deviates from I by {err:.3e}")
    det = float(np.linalg.det(rot))
    if abs(det - 1.0) > ROTATION_TOL:
        raise InvalidRotationError(f"{name}: det(R) = {det:.12f}, expected +1")
    return rot


def unit_rows(rows, out: F64 | None = None) -> F64:
    """Scale each vector along the last axis to unit length; zero rows stay zero.

    Writes to out, a new array by default; a float64 array of rows' shape,
    rows itself included, may be given: C-contiguous, or 2-D with any row
    strides, such as the first columns of a wider matrix. The norms are taken
    about UNIT_ROWS_BLOCK_ENTRIES entries at a time, and a row's norm does
    not depend on its block: the bytes are those of one np.linalg.norm call.
    Strided rows pass through one contiguous block-sized copy, which costs
    less than numpy's short per-row loops over a strided operand.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if out is None:
        out = np.empty(rows.shape)
    width = rows.shape[-1]
    src = rows.reshape(-1, width)
    dst = out.reshape(-1, width, copy=False)
    step = max(1, UNIT_ROWS_BLOCK_ENTRIES // width)
    temp = None if src.flags.c_contiguous else np.empty((min(step, src.shape[0]), width))
    for start in range(0, src.shape[0], step):
        block = src[start:start + step]
        if temp is not None:
            temp[:len(block)] = block
            block = temp[:len(block)]
        norms = np.linalg.norm(block, axis=-1, keepdims=True)
        np.divide(block, np.where(norms > 0.0, norms, 1.0), out=dst[start:start + step])
    return out


def median(values) -> float:
    """np.median of values' entries, bit for bit; np.median imports numpy.ma.

    Like np.median it partitions, averages the middle entry or two with
    np.mean, and gives NaN when any entry is NaN.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    lo, hi, last = (x.size - 1) // 2, x.size // 2, x.size - 1
    part = np.partition(x, (lo, hi, last))  # NaN sorts last
    return np.nan if np.isnan(part[last]) else float(np.mean(part[lo:hi + 1]))


def sq_dists(pts: F64, rows: np.ndarray, cols: np.ndarray) -> F64:
    """Difference-form squared distances from the points at rows to those at
    cols (index arrays that broadcast): (p_j - p_i)^2 per axis, summed onto
    +0.0 in axis order. Each reads its two points alone and is within
    (d + 2) u of the true distance, relatively (u = eps / 2), however far
    the points sit from the origin. The package's one rule for a distance
    between rows of one point set: the k-NN, MMD and the stand-in's swaps
    read it."""
    d2 = np.zeros(np.broadcast_shapes(rows.shape, cols.shape))
    for axis in range(pts.shape[1]):
        col = pts[:, axis]
        diff = col[cols] - col[rows]
        d2 += diff * diff
    return d2


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

    def apply(self, points) -> F64:
        """Apply to an (N, 3) batch of points."""
        return as_points(points) @ self.rotation.T + self.translation

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
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError(
                f"focal lengths must be finite and positive, got ({self.fx}, {self.fy})"
            )
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
    """Vectorized backprojection; every depth must be > 0, and every finite
    pixel must lift within COORDINATE_LIMIT (checked without overflow); a
    non-finite pixel lifts to non-finite coordinates."""
    uv = np.asarray(uv, dtype=np.float64)
    d = np.asarray(depths, dtype=np.float64)
    if uv.ndim != 2 or uv.shape[1] != 2 or uv.shape[0] != d.shape[0]:
        raise ValueError(f"uv/depths shapes incompatible: {uv.shape} vs {d.shape}")
    if (d <= 0.0).any() or not np.isfinite(d).all():
        raise NonPositiveDepthError("cannot backproject depths <= 0")
    out = np.empty((uv.shape[0], 3))
    with np.errstate(over="ignore"):  # an inf is refused below
        out[:, 0] = (uv[:, 0] - intrinsics.cx) * d / intrinsics.fx
        out[:, 1] = (uv[:, 1] - intrinsics.cy) * d / intrinsics.fy
    out[:, 2] = d
    check_coordinates(out[np.isfinite(uv).all(axis=1)], "lifted pixels")
    return out
