"""Coarse-to-fine matching between image pixels and cloud points.

Scores are plain cosine similarities. Coarse matching keeps mutual
top-k patch pairs; fine matching keeps mutual argmax pixel/point pairs
above a score floor. Patch overlap applies the supervision-side
positive-pair rule.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ChannelMismatchError, CoordinateOverflowError, EmptyPatchError, PointIndexError
from .geometry import (
    F64,
    CameraIntrinsics,
    RigidTransform,
    as_float_array,
    as_points,
    backproject_pixels,
    project_points,
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

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def matched_points(self, cloud) -> F64:
        """The cloud rows the correspondences name; PointIndexError when one is not a row."""
        pts = as_points(cloud, name="cloud")
        idx = self.point_indices
        bad = (idx < 0) | (idx >= len(pts))
        if np.any(bad):
            raise PointIndexError(
                f"point index {idx[bad][0]} is not a row of the {len(pts)}-point cloud"
            )
        return pts[idx]


# --------------------------------------------------------------------------- #
#  Score maps
# --------------------------------------------------------------------------- #


def unit_features(f_img, f_cloud) -> tuple[F64, F64]:
    """Both feature sets checked as cosine_score_map checks them, with unit rows.

    unit_rows scales each row on its own, so a block of rows of the result
    equals the unit rows of that block of the input, to the bit.
    """
    img = np.asarray(f_img, dtype=np.float64)
    cloud = np.asarray(f_cloud, dtype=np.float64)
    if img.ndim != 2 or cloud.ndim != 2 or img.shape[1] != cloud.shape[1]:
        raise ChannelMismatchError(
            f"feature shapes incompatible: {img.shape} vs {cloud.shape}"
        )
    return (
        unit_rows(as_float_array(img, name="f_img")),
        unit_rows(as_float_array(cloud, name="f_cloud")),
    )


def cosine_score_map(f_img, f_cloud) -> F64:
    """(M_img, M_cloud) cosine similarities; zero-norm rows score 0 everywhere."""
    img, cloud = unit_features(f_img, f_cloud)
    return img @ cloud.T


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
    if not np.all(np.isfinite(s)):
        raise ValueError("score map contains non-finite values")
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
    img, cloud = unit_features(f_img, f_cloud)
    if pix.shape != (img.shape[0], 2):
        raise ValueError(f"pixel_coords shape {pix.shape} != ({img.shape[0]}, 2)")
    if pts_idx.shape != (cloud.shape[0],):
        raise ValueError(f"point_indices shape {pts_idx.shape} != ({cloud.shape[0]},)")
    rows, cols, scores = fine_match_unit(img, cloud, min_score)
    return CorrespondenceSet(pix[rows], pts_idx[cols], scores)


def fine_match_unit(
    img: F64, cloud: F64, min_score: float
) -> tuple[np.ndarray, np.ndarray, F64]:
    """fine_match on rows unit_features has checked and scaled, as positions:
    the (image rows, cloud rows, scores) of the matches, by image row."""
    if img.shape[0] == 0 or cloud.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    scores = img @ cloud.T
    row_best = np.argmax(scores, axis=1)
    col_best = np.argmax(scores, axis=0)
    rows = np.arange(scores.shape[0])
    picked = scores[rows, row_best]
    keep = np.flatnonzero((col_best[row_best] == rows) & (picked >= min_score))
    return keep, row_best[keep], picked[keep]


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
    pairs,
    pixel_patch_ids,
    point_patch_ids,
    pixels,
    pixel_depths,
    points,
    intrinsics: CameraIntrinsics,
    gt_transform: RigidTransform,
) -> list[PatchPair]:
    """Bidirectional overlap of each (image patch id, cloud patch id) pair.

    pixel_patch_ids and point_patch_ids name each pixel's and each point's
    patch. A pixel/point pair is positive when its 3D gap is below POS_3D_M
    and its pixel gap below POS_2D_PX, both strict. A pixel without valid
    depth touches nothing, and a point at or behind the camera has an
    infinite pixel gap. A pair's overlap_2d is the fraction of its image
    patch's pixels touching a point of its cloud patch; overlap_3d is the
    fraction of its cloud patch's points touching a pixel of its image patch.

    Every positive is found in one pass over the scene. The cloud is moved
    once, the points in front of the camera are projected, and points
    outside the liftable pixels' bounding box +- POS_2D_PX are dropped (they
    touch no pixel). The rest are bucketed into an image-plane grid of
    POS_2D_PX cells, and each liftable pixel is checked against the points
    of its 3x3 neighbouring cells only. This misses no positive: a pixel gap
    below POS_2D_PX needs |du| and |dv| below it, and a cell index is the
    floor of an exact division by POS_2D_PX (a power of two), so a partner
    lies at most one cell away on each axis. Candidates are scored with the
    same elementwise expressions as a dense pixel x point block, so the
    fractions are the same to the bit.

    Raises EmptyPatchError for the first pair with no pixel or no point, and
    CoordinateOverflowError when a liftable pixel lies beyond 2**33 in
    either coordinate, where the grid's cell keys would overflow int64.
    """
    pix = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    dep = np.asarray(pixel_depths, dtype=np.float64).reshape(-1)
    pts = as_points(points, name="points")
    img_ids = np.asarray(pixel_patch_ids, dtype=np.int64).reshape(-1)
    cloud_ids = np.asarray(point_patch_ids, dtype=np.int64).reshape(-1)
    if dep.shape[0] != pix.shape[0] or img_ids.shape[0] != pix.shape[0]:
        raise ValueError("pixel_depths and pixel_patch_ids must align with pixels")
    if cloud_ids.shape[0] != pts.shape[0]:
        raise ValueError("point_patch_ids must align with points")

    img_patches, img_rank, img_sizes = np.unique(
        img_ids, return_inverse=True, return_counts=True
    )
    cloud_patches, cloud_rank, cloud_sizes = np.unique(
        cloud_ids, return_inverse=True, return_counts=True
    )
    img_row = {patch: row for row, patch in enumerate(img_patches.tolist())}
    cloud_row = {patch: row for row, patch in enumerate(cloud_patches.tolist())}
    pairs = [(int(i), int(c)) for i, c in pairs]
    for i, c in pairs:
        if i not in img_row or c not in cloud_row:
            raise EmptyPatchError(f"patch pair ({i}, {c}) has an empty side")

    pi, qj = _positive_pairs(pix, dep, pts, intrinsics, gt_transform)
    hits_2d = _touch_counts(pi, img_rank, cloud_rank[qj], cloud_patches.size)
    hits_3d = _touch_counts(qj, cloud_rank, img_rank[pi], img_patches.size)
    out = []
    for i, c in pairs:
        ri, rc = img_row[i], cloud_row[c]
        out.append(PatchPair(
            i, c,
            hits_2d.get((ri, rc), 0) / int(img_sizes[ri]),
            hits_3d.get((rc, ri), 0) / int(cloud_sizes[rc]),
        ))
    return out


def _touch_counts(
    members: np.ndarray, own_rank: np.ndarray, other_rank: np.ndarray, n_other: int
) -> dict[tuple[int, int], int]:
    """(own patch, other patch) -> distinct members touching the other patch.

    members[k] touched a member of patch other_rank[k]; own_rank maps each
    member to its own patch. Codes stay below members x patches.
    """
    touched = np.unique(members * n_other + other_rank)  # distinct (member, other patch)
    keys, counts = np.unique(
        own_rank[touched // n_other] * n_other + touched % n_other, return_counts=True
    )
    return {divmod(key, n_other): count for key, count in zip(keys.tolist(), counts.tolist())}


def _positive_pairs(
    pix: F64, dep: F64, pts: F64, intrinsics: CameraIntrinsics, gt_transform: RigidTransform
) -> tuple[np.ndarray, np.ndarray]:
    """(pixel rows, point rows) of every positive pair, via the image-plane grid."""
    moved = gt_transform.apply(pts)
    live = np.flatnonzero(np.isfinite(dep) & (dep > 0.0) & np.all(np.isfinite(pix), axis=1))
    front = np.flatnonzero(moved[:, 2] > 0.0)
    if live.size == 0 or front.size == 0:
        return live[:0], front[:0]
    if np.abs(pix[live]).max() > 2.0**33:
        raise CoordinateOverflowError(
            "pixel coordinates beyond 2**33: image-plane grid keys overflow int64"
        )
    u, v = pix[live, 0], pix[live, 1]
    pu, pv = project_points(intrinsics, moved[front]).T
    # a point outside the pixels' box +- POS_2D_PX touches no pixel; dropping
    # it before the cast keeps every cell id inside int64
    inside = (
        (pu >= u.min() - POS_2D_PX) & (pu <= u.max() + POS_2D_PX)
        & (pv >= v.min() - POS_2D_PX) & (pv <= v.max() + POS_2D_PX)
    )
    front, pu, pv = front[inside], pu[inside], pv[inside]

    def cell(x: F64) -> np.ndarray:
        return np.floor(x / POS_2D_PX).astype(np.int64)

    # cells numbered row-major from the box corner, with one cell of margin
    # on each side, so the cells (u - 1 .. u + 1, v) are one run of keys
    cu, cv = cell(u), cell(v)
    u0, v0 = cu.min() - 1, cv.min() - 1
    width = int(cu.max() - u0) + 2
    pixel_keys = (cv - v0) * width + (cu - u0)
    point_keys = (cell(pv) - v0) * width + (cell(pu) - u0)
    order = np.argsort(point_keys, kind="stable")
    sorted_keys = point_keys[order]
    starts = np.concatenate(
        [np.searchsorted(sorted_keys, pixel_keys + dv * width - 1, "left") for dv in (-1, 0, 1)]
    )
    ends = np.concatenate(
        [np.searchsorted(sorted_keys, pixel_keys + dv * width + 1, "right") for dv in (-1, 0, 1)]
    )
    runs = ends - starts
    rows = np.repeat(np.tile(np.arange(live.size), 3), runs)
    cols = order[np.arange(runs.sum()) + np.repeat(starts - np.cumsum(runs) + runs, runs)]

    # the pixel gate first, then the 3D gate on its survivors only
    near = np.hypot(pu[cols] - u[rows], pv[cols] - v[rows]) < POS_2D_PX
    rows, cols = rows[near], cols[near]
    lifted = backproject_pixels(intrinsics, pix[live], dep[live])
    hit = np.linalg.norm(lifted[rows] - moved[front[cols]], axis=1) < POS_3D_M
    return live[rows[hit]], front[cols[hit]]
