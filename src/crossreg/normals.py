"""Surface normal estimation for point clouds and depth maps.

Point-cloud normals come from the covariance of each point's k nearest
neighbors: the normal is the eigenvector of the smallest eigenvalue,
flipped to face the coordinate origin (the camera). Depth-map normals
come from central finite differences of the raw depth values; note the
differences span two pixels and are used as-is, without dividing by 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNeighborhoodError
from .geometry import F64, CameraIntrinsics, as_points, backproject_pixels
from .graph import knn_indices

EIGENVALUE_GAP_TOL = 1e-12


# --------------------------------------------------------------------------- #
#  Gridded data carriers
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth in meters; invalid pixels carry no constraint.

    values is (H, W) float64 indexed [v, u]; valid is a matching bool
    mask. Valid entries must be finite and strictly positive.
    """

    values: F64
    valid: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.valid, dtype=bool)
        if vals.ndim != 2 or vals.shape != mask.shape:
            raise ValueError(f"values {vals.shape} and valid {mask.shape} must match 2D")
        picked = vals[mask]
        if picked.size and (not np.all(np.isfinite(picked)) or np.any(picked <= 0.0)):
            raise ValueError("valid depth entries must be finite and > 0")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "valid", mask)

    @classmethod
    def from_values(cls, values) -> "DepthMap":
        """Build a map treating NaN/inf/non-positive entries as invalid."""
        vals = np.asarray(values, dtype=np.float64)
        mask = np.isfinite(vals) & (vals > 0.0)
        return cls(vals, mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class NormalField:
    """Unit normals with a validity mask; shape (N, 3) or (H, W, 3)."""

    normals: F64
    valid: np.ndarray

    def __post_init__(self) -> None:
        nor = np.asarray(self.normals, dtype=np.float64)
        mask = np.asarray(self.valid, dtype=bool)
        if nor.ndim not in (2, 3) or nor.shape[-1] != 3 or nor.shape[:-1] != mask.shape:
            raise ValueError(f"normals {nor.shape} and valid {mask.shape} do not align")
        picked = nor[mask]
        if picked.size:
            norms = np.linalg.norm(picked, axis=-1)
            if not np.all(np.isfinite(picked)) or np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("valid normals must be finite unit vectors")
        object.__setattr__(self, "normals", nor)
        object.__setattr__(self, "valid", mask)


# --------------------------------------------------------------------------- #
#  Point-cloud normals
# --------------------------------------------------------------------------- #


def _canonical_sign(normals: F64, positions: F64) -> F64:
    """Flip each normal to have non-negative dot with (origin - position).

    Exactly perpendicular cases fall back to making the first nonzero
    component positive, so the result never depends on eigensolver sign.
    """
    toward = np.einsum("nd,nd->n", normals, -positions)
    flip = toward < 0.0
    out = np.where(flip[:, None], -normals, normals)
    undecided = toward == 0.0
    if np.any(undecided):
        sub = out[undecided]
        first = np.argmax(np.abs(sub) > 0.0, axis=1)
        lead = sub[np.arange(sub.shape[0]), first]
        sub = np.where((lead < 0.0)[:, None], -sub, sub)
        out[undecided] = sub
    return out


def normal_ks(k: int, adaptive: bool) -> tuple[int, int]:
    """(k0, k_sparse) of the normal fit for a neighbour count k: k floored at
    3, the fit's own precondition; an adaptive fit's sparse points take 4 more."""
    k0 = max(k, 3)
    return k0, k0 + 4 if adaptive else k0


def estimate_point_normals(cloud, k: int | np.ndarray = 8) -> NormalField:
    """Covariance normals over each point's k nearest neighbors.

    Args:
        cloud: (N, 3) points.
        k: neighborhood size, a scalar >= 3 or a per-point int array.

    Returns:
        NormalField with (N, 3) unit normals oriented toward the origin.
        Points whose two smallest covariance eigenvalues coincide within
        EIGENVALUE_GAP_TOL are marked invalid (normal direction ambiguous).
        Raises DegenerateNeighborhoodError when the cloud has at most k points.
    """
    return _fit_normals(as_points(cloud, name="cloud"), k)


def _fit_normals(pts: F64, k, neigh: np.ndarray | None = None) -> NormalField:
    """estimate_point_normals over checked points, reusing a k-NN list if given."""
    n = pts.shape[0]
    ks = np.asarray(k, dtype=np.int64)
    if ks.ndim == 0:
        ks = np.full(n, int(ks))
    elif ks.shape != (n,):
        raise ValueError(f"per-point k must have shape ({n},), got {ks.shape}")
    k_min, k_max = int(ks.min()), int(ks.max())
    if k_min < 3:
        raise ValueError(f"k must be >= 3, got {k_min}")
    if n < k_max + 1:
        raise DegenerateNeighborhoodError(f"cloud of {n} points cannot support k = {k_max}")

    if neigh is None:
        neigh = knn_indices(pts, k_max)
    normals = np.zeros((n, 3))
    gaps = np.zeros(n)
    for kv in np.unique(ks):
        rows = np.nonzero(ks == kv)[0]
        gathered = pts[neigh[rows, :kv]]  # (m, kv, 3)
        centroid = gathered.mean(axis=1, keepdims=True)
        centered = gathered - centroid
        cov = np.einsum("mki,mkj->mij", centered, centered) / float(kv)
        eigvals, eigvecs = np.linalg.eigh(cov)
        normals[rows] = eigvecs[:, :, 0]
        gaps[rows] = eigvals[:, 1] - eigvals[:, 0]

    valid = gaps > EIGENVALUE_GAP_TOL
    lengths = np.linalg.norm(normals, axis=1)
    # eigh returns orthonormal vectors; renormalize to pin down the last ulp
    normals = np.where(valid[:, None], normals / np.where(valid, lengths, 1.0)[:, None], 0.0)
    normals[valid] = _canonical_sign(normals[valid], pts[valid])
    return NormalField(normals, valid)


def estimate_point_normals_adaptive(cloud, k0: int = 8, k_sparse: int | None = None) -> NormalField:
    """Density-adaptive variant of estimate_point_normals.

    A point's density is its mean distance to its k0 nearest neighbors.
    Points sparser than the cloud-wide mean density (strictly) fit over
    k_sparse neighbors (by default normal_ks's k0 + 4), the rest over k0.
    The density and the fit both read one k-NN list of max(k0, k_sparse).
    """
    if k0 < 3:
        raise ValueError(f"k0 must be >= 3, got {k0}")
    if k_sparse is None:
        k_sparse = normal_ks(k0, True)[1]
    pts = as_points(cloud, name="cloud")
    n = pts.shape[0]
    if n < k0 + 1:
        raise DegenerateNeighborhoodError(f"cloud of {n} points cannot support k0 = {k0}")
    neigh, dists = knn_indices(pts, max(k0, k_sparse), return_distances=True)
    rho = dists[:, :k0].mean(axis=1)
    ks = np.where(rho > rho.mean(), k_sparse, k0).astype(np.int64)
    return _fit_normals(pts, ks, neigh)


# --------------------------------------------------------------------------- #
#  Depth-map normals
# --------------------------------------------------------------------------- #


def _stencil_valid(mask: np.ndarray) -> np.ndarray:
    """Pixels whose center and four axis neighbors are all valid (border excluded)."""
    ok = np.zeros_like(mask)
    ok[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[1:-1, 2:]
        & mask[1:-1, :-2]
        & mask[2:, 1:-1]
        & mask[:-2, 1:-1]
    )
    return ok


def depth_to_normals(depth: DepthMap) -> NormalField:
    """Normals from raw central differences of depth, in pixel units.

    g_u = D(u+1, v) - D(u-1, v) and g_v = D(u, v+1) - D(u, v-1) (spanning
    two pixels, no halving); the normal is normalize((-g_u, -g_v, 1)).
    Border pixels and pixels adjacent to invalid depth are invalid.
    """
    vals, mask = depth.values, depth.valid
    h, w = vals.shape
    ok = _stencil_valid(mask)
    normals = np.zeros((h, w, 3))
    if np.any(ok):
        g_u = np.zeros((h, w))
        g_v = np.zeros((h, w))
        g_u[:, 1:-1] = vals[:, 2:] - vals[:, :-2]
        g_v[1:-1, :] = vals[2:, :] - vals[:-2, :]
        vec = np.stack([-g_u, -g_v, np.ones((h, w))], axis=-1)
        vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
        normals[ok] = vec[ok]
    return NormalField(normals, ok)


def metric_normals_from_depth(depth: DepthMap, intrinsics: CameraIntrinsics) -> NormalField:
    """Camera-frame surface normals from backprojected tangent vectors.

    Uses the same two-pixel central-difference stencil as depth_to_normals
    but on backprojected 3D positions, so the result lives in metric camera
    space. Normals are oriented to face the camera. Pixels with a (near)
    degenerate tangent cross product are invalid.
    """
    vals, mask = depth.values, depth.valid
    h, w = vals.shape
    ok = _stencil_valid(mask)
    normals = np.zeros((h, w, 3))
    if not np.any(ok):
        return NormalField(normals, ok)

    vs, us = np.indices((h, w), dtype=np.float64).reshape(2, -1)
    safe = np.where(mask, vals, 1.0).reshape(-1)
    pos = backproject_pixels(intrinsics, np.column_stack([us, vs]), safe).reshape(h, w, 3)

    tan_u = np.zeros((h, w, 3))
    tan_v = np.zeros((h, w, 3))
    tan_u[:, 1:-1] = pos[:, 2:] - pos[:, :-2]
    tan_v[1:-1, :] = pos[2:, :] - pos[:-2, :]
    cross = np.cross(tan_u, tan_v)
    length = np.linalg.norm(cross, axis=-1)
    ok = ok & (length > 1e-300)
    cross[ok] /= length[ok][:, None]
    # orient toward the camera at the origin
    inward = np.einsum("hwc,hwc->hw", cross, pos) > 0.0
    cross[inward] = -cross[inward]
    normals[ok] = cross[ok]
    return NormalField(normals, ok)


def normal_agreement(reference: NormalField, other: NormalField) -> float:
    """Mean cosine between two pixel-normal fields over the reference's support.

    Pixels valid in the reference but not in the other contribute zero,
    so lost coverage lowers the score. Identical fields score exactly 1.
    Raises DegenerateNeighborhoodError when the reference has no valid pixel.
    """
    if reference.normals.shape != other.normals.shape:
        raise ValueError("normal fields must share a shape")
    ref_mask = reference.valid
    if not np.any(ref_mask):
        raise DegenerateNeighborhoodError("reference normal field has no valid pixels")
    both = ref_mask & other.valid
    dots = np.zeros(ref_mask.shape)
    dots[both] = np.einsum("nc,nc->n", reference.normals[both], other.normals[both])
    return float(dots[ref_mask].mean())
