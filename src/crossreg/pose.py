"""Pose estimation from 2D-3D correspondences: DLT + Gauss-Newton, with RANSAC.

The one solve, _solve, builds the classic 2n x 12 DLT system in normalized
camera coordinates, projects the linear solution onto SO(3) by orthogonal
Procrustes, and polishes with Gauss-Newton using multiplicative axis-angle
updates and step halving. pnp_solve runs it on a whole set and RANSAC on
each sampled hypothesis, in a seeded loop; reruns with the same seed are
bit-identical.

The camera is geometry's: backproject_pixels for the DLT's rays, and
project_unchecked inside _reproject, the one residual that Gauss-Newton,
the RANSAC vote, the refit and the mean error read. A pose's inliers are the correspondences in front
of it reprojecting strictly within the threshold, and RANSAC always returns
a pose with its own inliers and their mean error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._settings import SETTINGS, check_fields, setting, stream_rng
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
    project_unchecked,
    rotation_from_axis_angle,
)
from .matching import CorrespondenceSet

MIN_SOLVE_POINTS = SETTINGS["ransac_min_sample"].lo  # the DLT's floor
DEGENERACY_GAP = 1e-9
STEP_TOL = 1e-10  # Gauss-Newton stops once an accepted step is shorter


@dataclass(frozen=True)
class RansacConfig:
    """Hypothesize-and-verify settings.

    The config table's range refuses a min_sample below MIN_SOLVE_POINTS,
    where the DLT hypothesis solver is underdetermined; nothing floors it.
    """

    max_iterations: int = setting("ransac_iterations")
    inlier_threshold_px: float = setting("ransac_threshold_px")
    confidence: float = setting("ransac_confidence")
    min_sample: int = setting("ransac_min_sample")
    seed: int = setting("base_seed")  # a scene's seed, ranged as the seeds it comes from

    def __post_init__(self) -> None:
        check_fields(self)


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


def _reproject(
    pts: F64, obs: F64, intrinsics: CameraIntrinsics, rot: F64, tra: F64
) -> tuple[F64, F64]:
    """The camera-frame points under (rot, tra) and their per-point pixel
    residuals; a point not in front of the camera (depth <= 0 or NaN) gets an
    infinite residual, and no depth <= 0 is divided by."""
    pc = pts @ rot.T + tra
    front = (pc[:, 2] > 0.0)[:, None]  # also False for a NaN depth
    # a point not in front is projected from (1, 1, 1), then given inf
    res = project_unchecked(intrinsics, np.where(front, pc, 1.0)) - obs
    return pc, np.where(front, res, np.inf)


def _solve(
    pts: F64, obs: F64, intrinsics: CameraIntrinsics, max_iterations: int = 50
) -> tuple[F64, F64]:
    """The DLT pose polished by Gauss-Newton, which minimizes total squared
    reprojection error over (axis-angle, translation) unless a point lies behind it.

    The rotation update composes multiplicatively: R <- exp(delta) R.
    A step that would increase the error or put a point behind the camera
    is halved (up to 20 times) and dropped if it never helps, so the
    accepted error sequence is non-increasing.
    """
    rot, tra = _dlt_pose(pts, obs, intrinsics)
    pc, res = _reproject(pts, obs, intrinsics, rot, tra)
    if not (pc[:, 2] > 0.0).all():  # also False for a NaN depth
        return rot, tra
    err = float(np.sum(res * res))

    for _ in range(max_iterations):
        z = pc[:, 2]
        # d(residual)/d(camera point)
        zeros = np.zeros_like(z)
        j_u = np.stack([intrinsics.fx / z, zeros, -intrinsics.fx * pc[:, 0] / z**2], axis=1)
        j_v = np.stack([zeros, intrinsics.fy / z, -intrinsics.fy * pc[:, 1] / z**2], axis=1)
        # d(camera point)/d(axis angle) = -[R X]_x ; translation part is I
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
            cand_pc, cand_res = _reproject(pts, obs, intrinsics, cand_rot, cand_tra)
            # the error is summed only once every point is in front
            if (cand_pc[:, 2] > 0.0).all() and (
                cand_err := float(np.sum(cand_res * cand_res))
            ) <= err:
                rot, tra, pc, res, err = cand_rot, cand_tra, cand_pc, cand_res, cand_err
                break
            factor *= 0.5
        else:  # no halving helped
            break
        if float(np.linalg.norm(factor * delta)) < STEP_TOL:
            break
    return rot, tra


# --------------------------------------------------------------------------- #
#  Public solvers
# --------------------------------------------------------------------------- #


def pnp_solve(corrs: CorrespondenceSet, cloud, intrinsics: CameraIntrinsics) -> RigidTransform:
    """Full-set PnP: DLT initialization plus Gauss-Newton refinement."""
    if len(corrs) < MIN_SOLVE_POINTS:
        raise InsufficientPointsError(
            f"pnp_solve needs >= {MIN_SOLVE_POINTS} correspondences, got {len(corrs)}"
        )
    pts, obs = corrs.matched_points(cloud), corrs.pixels
    return RigidTransform(*_solve(pts, obs, intrinsics))


def pnp_ransac(
    corrs: CorrespondenceSet,
    cloud,
    intrinsics: CameraIntrinsics,
    config: RansacConfig = RansacConfig(),
) -> PoseEstimate:
    """Robust pose from contaminated correspondences.

    Classic loop: sample min_sample correspondences, solve, count strict
    reprojection inliers, keep the best (ties keep the earlier hypothesis),
    and stop after the k-th solved hypothesis once every correspondence is
    an inlier or k * log1p(-(best / n) ** min_sample) <= log1p(-confidence);
    an underflowing rate gives -0.0 and runs to max_iterations. Then refit
    on all inliers and recompute the mask with the refit pose. When the
    refit fails (a degenerate inlier set) or leaves fewer than min_sample
    inliers, the voted hypothesis's pose and mask are returned together.
    """
    n = len(corrs)
    if n < config.min_sample:
        raise InsufficientPointsError(
            f"pnp_ransac needs >= {config.min_sample} correspondences, got {n}"
        )
    pts, obs = corrs.matched_points(cloud), corrs.pixels
    rng = stream_rng("ransac", config.seed)
    thr2 = config.inlier_threshold_px**2

    def squared_errors(rot: F64, tra: F64) -> F64:
        _, d = _reproject(pts, obs, intrinsics, rot, tra)
        return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]

    best_count = 0
    best: tuple[F64, F64, F64] | None = None  # the voted pose and its squared errors
    log_miss = math.log1p(-config.confidence)
    for iteration in range(config.max_iterations):
        sample = rng.choice(n, size=config.min_sample, replace=False)
        try:
            rot, tra = _solve(pts[sample], obs[sample], intrinsics, max_iterations=10)
        except DegenerateConfigurationError:
            continue
        err2 = squared_errors(rot, tra)
        count = int(np.count_nonzero(err2 < thr2))
        if count > best_count:
            best_count = count
            best = (rot, tra, err2)
            if best_count == n:  # log1p(-1.0) below would raise
                break
        if (iteration + 1) * math.log1p(-(best_count / n) ** config.min_sample) <= log_miss:
            break

    if best is None or best_count < config.min_sample:
        raise NoConsensusError(
            f"no hypothesis reached {config.min_sample} inliers "
            f"(best {best_count} of {n})"
        )

    rot, tra, err2 = best
    voted = err2 < thr2
    kept = CorrespondenceSet(corrs.pixels[voted], corrs.point_indices[voted], corrs.scores[voted])
    try:
        refit = pnp_solve(kept, cloud, intrinsics)
        refit_err2 = squared_errors(refit.rotation, refit.translation)
        if np.count_nonzero(refit_err2 < thr2) >= config.min_sample:
            rot, tra, err2 = refit.rotation, refit.translation, refit_err2
    except DegenerateConfigurationError:  # the inliers as a whole are degenerate
        pass  # a failed or degraded refit leaves the vote's pose and errors
    mask = err2 < thr2
    return PoseEstimate(RigidTransform(rot, tra), mask, float(np.sqrt(err2[mask]).mean()))
