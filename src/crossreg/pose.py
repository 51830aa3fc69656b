"""Pose estimation from 2D-3D correspondences: DLT + Gauss-Newton, with RANSAC.

The direct solver builds the classic 2n x 12 DLT system in normalized
camera coordinates, projects the linear solution onto SO(3) by orthogonal
Procrustes, and polishes with Gauss-Newton using multiplicative axis-angle
updates and step halving. RANSAC wraps the same solver in a seeded
hypothesize-and-verify loop; reruns with the same seed are bit-identical.

The camera is geometry's: backproject_pixels, project_points, and in the
RANSAC and Gauss-Newton loops, which check depth themselves, its unchecked
core project_unchecked. A pose's inliers are the correspondences in front
of it reprojecting strictly within the threshold, and RANSAC always returns
a pose with its own inliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    InsufficientPointsError,
    NoConsensusError,
)
from .geometry import (
    F64,
    CameraIntrinsics,
    RigidTransform,
    backproject_pixels,
    project_points,
    project_unchecked,
    rotation_from_axis_angle,
)
from .matching import CorrespondenceSet

MIN_SOLVE_POINTS = 6
DEGENERACY_GAP = 1e-9


@dataclass(frozen=True)
class RansacConfig:
    """Hypothesize-and-verify settings.

    min_sample is floored at 6 because the DLT hypothesis solver is
    underdetermined below that.
    """

    max_iterations: int = 1000
    inlier_threshold_px: float = 8.0
    confidence: float = 0.999
    min_sample: int = MIN_SOLVE_POINTS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.inlier_threshold_px <= 0:
            raise ValueError("inlier_threshold_px must be > 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_sample < MIN_SOLVE_POINTS:
            raise ValueError(f"min_sample must be >= {MIN_SOLVE_POINTS}")


@dataclass(frozen=True)
class PoseEstimate:
    """RANSAC output: pose, per-correspondence inlier mask, mean inlier error."""

    transform: RigidTransform
    inlier_mask: np.ndarray
    mean_reprojection_px: float

    @property
    def inlier_count(self) -> int:
        return int(np.count_nonzero(self.inlier_mask))


# --------------------------------------------------------------------------- #
#  Direct linear transform
# --------------------------------------------------------------------------- #


def _dlt_pose(pts: F64, obs: F64, intrinsics: CameraIntrinsics) -> tuple[F64, F64]:
    """Linear [R|t] estimate from >= 6 correspondences.

    Raises DegenerateConfigurationError when the system has more than one
    vanishing singular value (coplanar or collinear geometry).
    """
    n = pts.shape[0]
    x, y, _ = backproject_pixels(intrinsics, obs, np.ones(n)).T  # unit-depth rays

    # Hartley-style conditioning of the 3D side
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scale = float(np.mean(np.linalg.norm(centered, axis=1)))
    if scale < 1e-12:
        raise DegenerateConfigurationError("3D points coincide")
    s = math.sqrt(3.0) / scale
    pn = centered * s

    a = np.zeros((2 * n, 12))
    a[0::2, 0:3] = pn
    a[0::2, 3] = 1.0
    a[0::2, 8:11] = -x[:, None] * pn
    a[0::2, 11] = -x
    a[1::2, 4:7] = pn
    a[1::2, 7] = 1.0
    a[1::2, 8:11] = -y[:, None] * pn
    a[1::2, 11] = -y

    # thin SVD: the full U would be 2n x 2n, and only sv and vt are used
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    if sv[-2] <= DEGENERACY_GAP * sv[0]:
        raise DegenerateConfigurationError(
            f"DLT system rank-deficient (gap {sv[-2] / sv[0]:.3e})"
        )
    p = vt[-1].reshape(3, 4)
    # undo normalization: p acts on s * (X - centroid)
    p = np.concatenate([p[:, :3] * s, (p[:, 3] - p[:, :3] * s @ centroid)[:, None]], axis=1)

    b = p[:, :3]
    if np.linalg.det(b) < 0:
        p = -p
        b = -b
    u, sb, vtb = np.linalg.svd(b)
    rot = u @ vtb
    if np.linalg.det(rot) < 0:  # numerical guard; det(b) > 0 should prevent this
        u[:, 2] = -u[:, 2]
        rot = u @ vtb
    scale_fix = 3.0 / sb.sum()
    tra = scale_fix * p[:, 3]
    return rot, tra


# --------------------------------------------------------------------------- #
#  Gauss-Newton refinement
# --------------------------------------------------------------------------- #


def _reprojection_residuals(
    pts: F64, obs: F64, intrinsics: CameraIntrinsics, rot: F64, tra: F64
) -> tuple[F64, F64, float] | None:
    """Per-point pixel residuals, the camera-frame points and the squared
    error; None unless every point lies in front of the camera under (rot, tra)."""
    pc = pts @ rot.T + tra
    if not (pc[:, 2] > 0.0).all():  # also False for a NaN depth
        return None
    res = project_unchecked(intrinsics, pc) - obs
    return res, pc, float(np.sum(res * res))


def _gauss_newton(
    pts: F64,
    obs: F64,
    intrinsics: CameraIntrinsics,
    rot: F64,
    tra: F64,
    max_iterations: int = 50,
    step_tol: float = 1e-10,
) -> tuple[F64, F64, float]:
    """Minimize total squared reprojection error over (axis-angle, translation).

    The rotation update composes multiplicatively: R <- exp(delta) R.
    A step that would increase the error is halved (up to 20 times) and
    dropped if it never helps, so the accepted error sequence is
    non-increasing.
    """
    start = _reprojection_residuals(pts, obs, intrinsics, rot, tra)
    if start is None:
        return rot, tra, float("inf")
    res, pc, err = start

    for _ in range(max_iterations):
        z = pc[:, 2]
        # d(residual)/d(camera point)
        zeros = np.zeros_like(z)
        j_u = np.stack([intrinsics.fx / z, zeros, -intrinsics.fx * pc[:, 0] / z**2], axis=1)
        j_v = np.stack([zeros, intrinsics.fy / z, -intrinsics.fy * pc[:, 1] / z**2], axis=1)
        # d(camera point)/d(axis angle) = -[R X]_x ; translation part is identity
        y = pc - tra
        skews = np.zeros((pts.shape[0], 3, 3))
        skews[:, 0, 1] = y[:, 2]
        skews[:, 0, 2] = -y[:, 1]
        skews[:, 1, 0] = -y[:, 2]
        skews[:, 1, 2] = y[:, 0]
        skews[:, 2, 0] = y[:, 1]
        skews[:, 2, 1] = -y[:, 0]

        jac = np.zeros((2 * pts.shape[0], 6))
        jac[0::2, :3] = np.einsum("nc,nck->nk", j_u, skews)
        jac[0::2, 3:] = j_u
        jac[1::2, :3] = np.einsum("nc,nck->nk", j_v, skews)
        jac[1::2, 3:] = j_v
        rhs = res.reshape(-1)

        jtj = jac.T @ jac
        jtr = jac.T @ rhs
        try:
            delta = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(jac, -rhs, rcond=None)

        factor = 1.0
        for _ in range(20):
            cand_rot = rotation_from_axis_angle(factor * delta[:3]) @ rot
            cand_tra = tra + factor * delta[3:]
            cand = _reprojection_residuals(pts, obs, intrinsics, cand_rot, cand_tra)
            if cand is not None and cand[2] <= err:
                rot, tra, (res, pc, err) = cand_rot, cand_tra, cand
                break
            factor *= 0.5
        else:  # no halving helped
            break
        if float(np.linalg.norm(factor * delta)) < step_tol:
            break
    return rot, tra, err


# --------------------------------------------------------------------------- #
#  Public solvers
# --------------------------------------------------------------------------- #


def pnp_solve(
    corrs: CorrespondenceSet,
    cloud,
    intrinsics: CameraIntrinsics,
    max_iterations: int = 50,
    step_tol: float = 1e-10,
) -> RigidTransform:
    """Full-set PnP: DLT initialization plus Gauss-Newton refinement."""
    if len(corrs) < MIN_SOLVE_POINTS:
        raise InsufficientPointsError(
            f"pnp_solve needs >= {MIN_SOLVE_POINTS} correspondences, got {len(corrs)}"
        )
    pts, obs = corrs.matched_points(cloud), corrs.pixels
    rot, tra = _dlt_pose(pts, obs, intrinsics)
    rot, tra, _ = _gauss_newton(pts, obs, intrinsics, rot, tra, max_iterations, step_tol)
    return RigidTransform(rot, tra)


def pnp_ransac(
    corrs: CorrespondenceSet,
    cloud,
    intrinsics: CameraIntrinsics,
    config: RansacConfig = RansacConfig(),
) -> PoseEstimate:
    """Robust pose from contaminated correspondences.

    Classic loop: sample min_sample correspondences, solve, count strict
    reprojection inliers, keep the best (ties keep the earlier hypothesis),
    stop early once the usual confidence bound is met, then refit on all
    inliers and recompute the mask with the refit pose. When the refit
    fails (a degenerate inlier set) or leaves fewer than min_sample
    inliers, the voted hypothesis's pose and mask are returned together.
    """
    n = len(corrs)
    if n < config.min_sample:
        raise InsufficientPointsError(
            f"pnp_ransac needs >= {config.min_sample} correspondences, got {n}"
        )
    pts, obs = corrs.matched_points(cloud), corrs.pixels
    rng = np.random.default_rng(config.seed)
    thr2 = config.inlier_threshold_px**2

    def inlier_mask(rot: F64, tra: F64) -> np.ndarray:
        pc = pts @ rot.T + tra
        ok = pc[:, 2] > 0.0
        mask = np.zeros(n, dtype=bool)
        d = project_unchecked(intrinsics, pc[ok]) - obs[ok]
        mask[ok] = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < thr2
        return mask

    best_count = 0
    best_mask: np.ndarray | None = None
    best_pose: tuple[F64, F64] | None = None
    needed = config.max_iterations
    for iteration in range(config.max_iterations):
        sample = rng.choice(n, size=config.min_sample, replace=False)
        try:
            rot, tra = _dlt_pose(pts[sample], obs[sample], intrinsics)
        except DegenerateConfigurationError:
            continue
        rot, tra, _ = _gauss_newton(
            pts[sample], obs[sample], intrinsics, rot, tra, max_iterations=10
        )
        mask = inlier_mask(rot, tra)
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            best_pose = (rot, tra)
            if best_count == n:
                break
            # adaptive stopping: enough iterations for the current inlier rate
            w = best_count / n
            denom = math.log1p(-min(w**config.min_sample, 1.0 - 1e-16))
            needed = math.ceil(math.log1p(-config.confidence) / denom)
        if iteration + 1 >= needed:
            break

    if best_mask is None or best_count < config.min_sample:
        raise NoConsensusError(
            f"no hypothesis reached {config.min_sample} inliers "
            f"(best {best_count} of {n})"
        )

    kept = CorrespondenceSet(
        corrs.pixels[best_mask], corrs.point_indices[best_mask], corrs.scores[best_mask]
    )
    try:
        transform = pnp_solve(kept, cloud, intrinsics)
        final_mask = inlier_mask(transform.rotation, transform.translation)
    except DegenerateConfigurationError:  # the inliers as a whole are degenerate
        final_mask = np.zeros(n, dtype=bool)
    if int(final_mask.sum()) < config.min_sample:  # a failed or degraded refit
        transform, final_mask = RigidTransform(*best_pose), best_mask

    res = project_points(intrinsics, transform.apply(pts[final_mask])) - obs[final_mask]
    mean_err = float(np.linalg.norm(res, axis=1).mean())
    return PoseEstimate(transform, final_mask, mean_err)
