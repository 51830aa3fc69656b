"""Surface normal estimation for point clouds and depth maps.

Point-cloud normals come from the covariance of each point's k nearest
neighbors: the normal is the eigenvector of the smallest eigenvalue,
flipped to face the coordinate origin (the camera). Depth-map normals
come from central finite differences of the raw depth values; note the
differences span two pixels and are used as-is, without dividing by 2.

The 3x3 eigenproblem is solved in closed form, elementwise over all
points, with + - * / and sqrt alone: no LAPACK, no BLAS and none of the
numpy functions (arccos, exp, ...) whose last bits depend on the CPU's
SIMD kernels, so the fit adds no dependence on the CPU's kernels to the
k-NN ranking it reads.

- Only the 6 distinct entries of each covariance are formed, and each
  covariance is divided by its largest diagonal entry, which bounds every
  entry of a positive semidefinite matrix, so no term of the cubic
  overflows at any scale of finite entries.
- The smallest eigenvalue lambda0 is found by Newton's method on
  det(C - lambda I) from 0. On [0, lambda0] the cubic is convex and
  falling, so every step rises toward lambda0 without passing it (in
  exact arithmetic). A point stops once its step rises by no more than
  one double epsilon, the rounding of C - lambda I itself.
- The gap lambda1 - lambda0 is the smaller root of the quadratic left by
  deflation, x^2 - t x + s, where t is the trace of C - lambda0 I and s
  the sum of its principal 2x2 minors. Validity reads that gap against
  EIGENVALUE_GAP_TOL, as it always has.
- The normal is the largest column of the adjugate of C - lambda0 I (by
  its largest entry), each column the cross product of two of its rows,
  divided by that entry and then scaled to unit length.

It lies within 8 eps lambda2 / (lambda1 - lambda0) rad of np.linalg.eigh's
eigenvector (eps the double epsilon; tests/test_normals.py checks this on
random, near-planar, collinear and zero covariances scaled from 1e-150 to
1e150, and 2.6 eps lambda2 / (lambda1 - lambda0) was the largest angle seen).

Orientation: each normal faces the camera at the origin; one exactly
perpendicular to its ray takes the sign that makes its first nonzero
component positive. A neighbourhood that lies exactly in an axis plane
through the origin has a normal with exact zeros off the axis, so it is
perpendicular to every ray in that plane and faces +axis, by rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._settings import check
from .errors import DegenerateNeighborhoodError
from .geometry import F64, CameraIntrinsics, as_points, as_unit_rows, backproject_pixels, unit_rows
from .graph import knn_indices

EIGENVALUE_GAP_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)


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
        as_unit_rows(nor[mask], "valid normals")
        object.__setattr__(self, "normals", nor)
        object.__setattr__(self, "valid", mask)


# --------------------------------------------------------------------------- #
#  Point-cloud normals
# --------------------------------------------------------------------------- #


def _canonical_sign(normals: F64, positions: F64) -> F64:
    """Flip each normal to have non-negative dot with (origin - position).

    Exactly perpendicular cases fall back to making the first nonzero
    component positive, so the sign of such a normal never depends on the
    sign the fit happened to produce.
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
    k0 = max(check("knn_k", k, "k"), 3)
    return k0, k0 + 4 if adaptive else k0


def estimate_point_normals(cloud, k: int | np.ndarray = 8) -> NormalField:
    """Covariance normals over each point's k nearest neighbors.

    Args:
        cloud: (N, 3) points.
        k: neighborhood size, a whole number >= 3 or a per-point array of them.

    Returns:
        NormalField with (N, 3) unit normals oriented toward the origin.
        Points whose two smallest covariance eigenvalues coincide within
        EIGENVALUE_GAP_TOL are marked invalid (normal direction ambiguous),
        with a zero normal.
        Raises DegenerateNeighborhoodError when the cloud has at most k points.
    """
    pts = as_points(cloud, name="cloud")
    n = pts.shape[0]
    ks = np.asarray(k)
    if ks.ndim and ks.shape != (n,):
        raise ValueError(f"per-point k must have shape ({n},), got {ks.shape}")
    for value in set(ks.ravel().tolist()):  # as Python numbers, bools kept
        check("normal_k", value, "k")
    return _fit_normals(pts, np.broadcast_to(ks, (n,)).astype(np.int64))


def _fit_normals(pts: F64, ks: np.ndarray, neigh: np.ndarray | None = None) -> NormalField:
    """estimate_point_normals over checked points and per-point int64 ks,
    reusing a k-NN list if given."""
    n = pts.shape[0]
    k_max = int(ks.max())
    if n < k_max + 1:
        raise DegenerateNeighborhoodError(f"cloud of {n} points cannot support k = {k_max}")

    if neigh is None:
        neigh = knn_indices(pts, k_max)
    axes = np.ascontiguousarray(pts.T)
    cov = np.empty((6, n))  # xx, yy, zz, xy, xz, yz of each point's covariance
    for kv in np.flatnonzero(np.bincount(ks)):  # the distinct k values, ascending
        rows = np.nonzero(ks == kv)[0]
        idx = neigh[rows, :kv].T  # (kv, m): sums over axis 0 add whole rows in order
        x, y, z = (g - g.mean(axis=0) for g in (axis[idx] for axis in axes))
        for out, (p, q) in zip(cov, ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))):
            out[rows] = (p * q).sum(axis=0) / float(kv)
    gaps, normals = _smallest_eigenpairs(cov)

    valid = gaps > EIGENVALUE_GAP_TOL
    normals = np.where(valid[:, None], unit_rows(normals), 0.0)
    normals[valid] = _canonical_sign(normals[valid], pts[valid])
    return NormalField(normals, valid)


def _smallest_eigenpairs(cov: F64) -> tuple[F64, F64]:
    """(lambda1 - lambda0, an eigenvector of lambda0 whose largest entry is
    +-1, or zero) of m symmetric positive semidefinite 3x3 matrices given as
    (6, m) entries xx, yy, zz, xy, xz, yz; the module docstring gives the
    method. A positive gap implies a nonzero eigenvector.
    """
    scale = cov[:3].max(axis=0)  # no entry of a PSD matrix exceeds its largest diagonal one
    a, d, f, b, c, e = cov / np.where(scale > 0.0, scale, 1.0)
    lam = np.zeros(a.shape)
    todo = np.arange(a.size)
    while todo.size:  # Newton on det(C - lam I) from 0, for the rows still rising
        now = lam[todo]
        at, dt, ft = a[todo] - now, d[todo] - now, f[todo] - now
        bt, ct, et = b[todo], c[todo], e[todo]
        adj00 = dt * ft - et * et
        det = at * adj00 + bt * (ct * et - bt * ft) + ct * (bt * et - ct * dt)
        slope = adj00 + (at * ft - ct * ct) + (at * dt - bt * bt)  # -d det / d lam
        rise = det / np.where(slope > 0.0, slope, np.inf)
        rose = rise > _EPS  # lam stays below 2, so now + rise > now
        lam[todo[rose]] = now[rose] + rise[rose]
        todo = todo[rose]

    a, d, f = a - lam, d - lam, f - lam
    adj = np.array([  # the adjugate of C - lam I; column j is a cross product of two rows
        [d * f - e * e, c * e - b * f, b * e - c * d],
        [c * e - b * f, a * f - c * c, b * c - a * e],
        [b * e - c * d, b * c - a * e, a * d - b * b],
    ])
    trace, minors = a + d + f, adj[0, 0] + adj[1, 1] + adj[2, 2]
    root = trace + np.sqrt(np.maximum(trace * trace - 4.0 * minors, 0.0))
    gaps = 2.0 * minors / np.where(root > 0.0, root, np.inf) * scale
    size = np.abs(adj).max(axis=1)  # each column's largest entry, which cannot underflow
    best = size.argmax(axis=0)
    columns = np.arange(a.size)
    peak = size[best, columns]
    return gaps, adj[best, :, columns] / np.where(peak > 0.0, peak, 1.0)[:, None]


def estimate_point_normals_adaptive(cloud, k0: int = 8) -> NormalField:
    """Density-adaptive variant of estimate_point_normals.

    A point's density is its mean distance to its k0 nearest neighbors.
    Points sparser than the cloud-wide mean density (strictly) fit over
    normal_ks's k_sparse = k0 + 4 neighbors, the rest over k0. The density
    and the fit both read one k-NN list of k_sparse.
    """
    k0 = check("normal_k", k0, "k0")
    k_sparse = normal_ks(k0, True)[1]
    pts = as_points(cloud, name="cloud")
    n = pts.shape[0]
    if n < k0 + 1:
        raise DegenerateNeighborhoodError(f"cloud of {n} points cannot support k0 = {k0}")
    neigh, dists = knn_indices(pts, k_sparse, return_distances=True)
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


def _central_differences(grid: F64) -> tuple[F64, F64]:
    """The two-pixel stencil, not halved, of an (H, W, ...) grid: (grid[v, u+1] -
    grid[v, u-1], grid[v+1, u] - grid[v-1, u]), zero where a neighbor is missing."""
    d_u = np.zeros(grid.shape)
    d_v = np.zeros(grid.shape)
    d_u[:, 1:-1] = grid[:, 2:] - grid[:, :-2]
    d_v[1:-1, :] = grid[2:, :] - grid[:-2, :]
    return d_u, d_v


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
        g_u, g_v = _central_differences(vals)
        normals[ok] = unit_rows(np.stack([-g_u, -g_v, np.ones((h, w))], axis=-1))[ok]
    return NormalField(normals, ok)


def metric_normals_from_depth(depth: DepthMap, intrinsics: CameraIntrinsics) -> NormalField:
    """Camera-frame surface normals from backprojected tangent vectors.

    Uses the same two-pixel central-difference stencil as depth_to_normals
    but on backprojected 3D positions, so the result lives in metric camera
    space. Normals are oriented by _canonical_sign, as point normals are: to
    face the camera at the origin, and where a normal is exactly perpendicular
    to its pixel's ray, with its first nonzero component positive. Pixels with
    a (near) degenerate tangent cross product are invalid.
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

    cross = np.cross(*_central_differences(pos))
    ok = ok & (np.linalg.norm(cross, axis=-1) > 1e-300)
    normals[ok] = _canonical_sign(unit_rows(cross[ok]), pos[ok])
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
