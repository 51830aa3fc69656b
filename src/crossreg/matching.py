"""Coarse-to-fine matching between image pixels and cloud points.

Scores are plain cosine similarities. Coarse matching keeps mutual
top-k patch pairs; fine matching keeps mutual argmax pixel/point pairs
above a score floor. Patch overlap applies the supervision-side
positive-pair rule.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ChannelMismatchError, EmptyPatchError
from .geometry import (
    F64,
    CameraIntrinsics,
    RigidTransform,
    as_points,
    backproject_pixels,
    unit_rows,
)

# A pixel/point pair is positive when its 3D gap is below POS_3D_M meters
# and its reprojection gap below POS_2D_PX pixels (both strict).
POS_3D_M = 0.0375
POS_2D_PX = 8.0


# --------------------------------------------------------------------------- #
#  Correspondences
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CorrespondenceSet:
    """Column-wise correspondence storage: the currency between stages."""

    pixels: F64
    point_indices: np.ndarray
    scores: F64

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        idx = np.asarray(self.point_indices, dtype=np.int64).reshape(-1)
        sc = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if not (px.shape[0] == idx.shape[0] == sc.shape[0]):
            raise ValueError(
                f"column lengths differ: {px.shape[0]}, {idx.shape[0]}, {sc.shape[0]}"
            )
        if px.size and not np.all(np.isfinite(px)):
            raise ValueError("pixels contain non-finite values")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "point_indices", idx)
        object.__setattr__(self, "scores", sc)

    @classmethod
    def empty(cls) -> "CorrespondenceSet":
        return cls(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(0))

    def __len__(self) -> int:
        return self.pixels.shape[0]


# --------------------------------------------------------------------------- #
#  Score maps
# --------------------------------------------------------------------------- #


def _normalize_rows(features, name: str) -> F64:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"{name}: expected (M, C), got {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise ValueError(f"{name}: contains non-finite values")
    return unit_rows(feats)


def cosine_score_map(f_img, f_cloud) -> F64:
    """(M_img, M_cloud) cosine similarities; zero-norm rows score 0 everywhere."""
    img = np.asarray(f_img, dtype=np.float64)
    cloud = np.asarray(f_cloud, dtype=np.float64)
    if img.ndim != 2 or cloud.ndim != 2 or img.shape[1] != cloud.shape[1]:
        raise ChannelMismatchError(
            f"feature shapes incompatible: {img.shape} vs {cloud.shape}"
        )
    return _normalize_rows(img, "f_img") @ _normalize_rows(cloud, "f_cloud").T


# --------------------------------------------------------------------------- #
#  Coarse matching
# --------------------------------------------------------------------------- #


def coarse_match(scores, top_k: int) -> list[tuple[int, int, float]]:
    """Mutual top-k pairs of a score map.

    A pair (i, j) survives when j is among row i's top_k scores and i is
    among column j's top_k scores. Within a row or column, ties prefer the
    smaller index. The result is sorted by descending score, ties by (i, j).
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"score map must be 2D, got {s.shape}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    n_rows, n_cols = s.shape
    if n_rows == 0 or n_cols == 0:
        return []
    k_row = min(top_k, n_cols)
    k_col = min(top_k, n_rows)
    # stable argsort on negated scores: ties resolve to the smaller index
    row_top = np.argsort(-s, axis=1, kind="stable")[:, :k_row]
    col_top = np.argsort(-s, axis=0, kind="stable")[:k_col, :]

    in_row_top = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(in_row_top, row_top, True, axis=1)
    in_col_top = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(in_col_top, col_top, True, axis=0)

    ii, jj = np.nonzero(in_row_top & in_col_top)
    pairs = [(int(i), int(j), float(s[i, j])) for i, j in zip(ii, jj)]
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    return pairs


# --------------------------------------------------------------------------- #
#  Fine matching
# --------------------------------------------------------------------------- #


def fine_match(
    f_img,
    f_cloud,
    pixel_coords,
    point_indices,
    min_score: float = 0.0,
) -> CorrespondenceSet:
    """Mutual-argmax pixel/point matches with a score floor.

    Scores below min_score are dropped. Argmax ties resolve to the
    smaller index on both sides, and the output is ordered by pixel row,
    so the result is deterministic. Emits at most one correspondence per
    pixel.
    """
    pix = np.asarray(pixel_coords, dtype=np.float64)
    pts_idx = np.asarray(point_indices, dtype=np.int64)
    scores = cosine_score_map(f_img, f_cloud)
    if pix.shape != (scores.shape[0], 2):
        raise ValueError(f"pixel_coords shape {pix.shape} != ({scores.shape[0]}, 2)")
    if pts_idx.shape != (scores.shape[1],):
        raise ValueError(f"point_indices shape {pts_idx.shape} != ({scores.shape[1]},)")
    if scores.shape[0] == 0 or scores.shape[1] == 0:
        return CorrespondenceSet.empty()

    row_best = np.argmax(scores, axis=1)
    col_best = np.argmax(scores, axis=0)
    rows = np.arange(scores.shape[0])
    picked = scores[rows, row_best]
    mutual = col_best[row_best] == rows
    keep = mutual & (picked >= min_score)
    return CorrespondenceSet(pix[keep], pts_idx[row_best[keep]], picked[keep])


# --------------------------------------------------------------------------- #
#  Patch overlap
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PatchPair:
    """A coarse image-tile / cloud-cell pair with its overlap fractions."""

    img_patch_id: int
    cloud_patch_id: int
    overlap_2d: float
    overlap_3d: float

    @property
    def overlap_ratio(self) -> float:
        return min(self.overlap_2d, self.overlap_3d)


def patch_overlap(
    img_patch_id: int,
    cloud_patch_id: int,
    pixels,
    pixel_depths,
    points,
    intrinsics: CameraIntrinsics,
    gt_transform: RigidTransform,
) -> PatchPair:
    """Bidirectional overlap between an image patch and a cloud patch.

    A pixel/point pair counts as overlapped when it is positive (3D gap
    < POS_3D_M and pixel gap < POS_2D_PX; a point behind the camera has
    an infinite pixel gap). overlap_2d is the fraction of patch pixels
    touching any point; overlap_3d the fraction of patch points touching
    any pixel. Pixels without valid depth stay in the denominator but can
    touch nothing.
    """
    pix = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    dep = np.asarray(pixel_depths, dtype=np.float64).reshape(-1)
    pts = as_points(points, name="points")
    if pix.shape[0] == 0 or pts.shape[0] == 0:
        raise EmptyPatchError(
            f"patch pair ({img_patch_id}, {cloud_patch_id}) has an empty side"
        )
    if dep.shape[0] != pix.shape[0]:
        raise ValueError("pixel_depths must align with pixels")

    transformed = gt_transform.apply(pts)  # (Q, 3)
    liftable = np.isfinite(dep) & (dep > 0.0)
    hit = np.zeros((pix.shape[0], pts.shape[0]), dtype=bool)
    if np.any(liftable):
        lifted = backproject_pixels(intrinsics, pix[liftable], dep[liftable])
        d3 = np.linalg.norm(lifted[:, None, :] - transformed[None, :, :], axis=2)
        in_front = transformed[:, 2] > 0.0
        d2 = np.full((int(liftable.sum()), pts.shape[0]), np.inf)
        if np.any(in_front):
            front = transformed[in_front]
            pu = intrinsics.fx * front[:, 0] / front[:, 2] + intrinsics.cx
            pv = intrinsics.fy * front[:, 1] / front[:, 2] + intrinsics.cy
            du = pu[None, :] - pix[liftable][:, 0:1]
            dv = pv[None, :] - pix[liftable][:, 1:2]
            d2[:, in_front] = np.hypot(du, dv)
        hit[liftable] = (d3 < POS_3D_M) & (d2 < POS_2D_PX)

    overlap_2d = float(hit.any(axis=1).mean())
    overlap_3d = float(hit.any(axis=0).mean())
    return PatchPair(img_patch_id, cloud_patch_id, overlap_2d, overlap_3d)
