"""k-NN graphs, single-head neighbor attention, and gated feature fusion.

Feature fields are plain (N, C) float64 arrays. Attention and fusion
parameters are explicit data (no hidden module state) so that every run
is reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ChannelMismatchError, CoordinateOverflowError
from .geometry import F64

# (name, shape builder) pairs fixing the canonical parameter order used by
# the deterministic initializer and the shape checks.
PARAM_LAYOUT: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("query_proj", ("C", "C")),
    ("key_proj", ("C", "C")),
    ("value_proj", ("C", "C")),
    ("gate_w1", ("C", "2C")),
    ("gate_b1", ("C",)),
    ("gate_w2", ("C", "C")),
    ("gate_b2", ("C",)),
)


def _param_shape(spec: tuple[str, ...], channels: int) -> tuple[int, ...]:
    lookup = {"C": channels, "2C": 2 * channels}
    return tuple(lookup[s] for s in spec)


# --------------------------------------------------------------------------- #
#  Exact k nearest neighbors
# --------------------------------------------------------------------------- #

# Entries per squared-distance block: each of a block's few temporaries
# stays near 1 MB, small enough to live in cache while it is built and read.
KNN_BLOCK_ENTRIES = 131_072


def _morton_order(pts: F64) -> np.ndarray:
    """Point order along a Z-order (Morton) curve over the bounding box.

    A heuristic only: near points tend to sit near each other in this
    order, which keeps the k-NN bound tight. Any order would give the
    same neighbors.
    """
    n, d = pts.shape
    bits = 63 // d  # 0 past 63 axes: a single cell keeps the input order
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    unit = (pts - lo) / np.where(span > 0, span, 1.0)  # in [0, 1]
    cells = (unit * (2**bits - 1)).astype(np.uint64)
    # spread[v] puts bit t of the byte v at bit t * d
    spread = np.zeros(256, dtype=np.uint64)
    for t in range(8):
        spread |= ((np.arange(256, dtype=np.uint64) >> t) & 1) << (t * d)
    code = np.zeros(n, dtype=np.uint64)
    for byte in range((bits + 7) // 8):
        for axis in range(d):
            part = (cells[:, axis] >> (8 * byte)) & 255
            code |= spread[part] << (8 * byte * d + axis)
    return np.argsort(code, kind="stable")


def _kth_bound(pts: F64, k: int) -> F64:
    """Each row's k-th squared distance among its Morton-order neighbours.

    The w = min(n - 1, max(2k, 16)) points nearest a row in Morton order
    are w distinct other points, so the k-th smallest of their squared
    distances bounds the row's true k-th from above. Computed in
    difference form, which keeps its relative accuracy however far the
    points sit from the origin.
    """
    n = pts.shape[0]
    w = min(n - 1, max(2 * k, 16))
    order = _morton_order(pts)
    # w + 1 consecutive Morton positions around each point, the point
    # itself included, shifted inwards at both ends of the order
    first = np.clip(np.arange(n) - w // 2, 0, n - 1 - w)
    window = order[first[:, None] + np.arange(w + 1)]
    d2 = np.zeros(window.shape)
    for axis in range(pts.shape[1]):
        col = pts[:, axis]
        diff = col[window] - col[order][:, None]
        d2 += diff * diff
    # the point's own 0 is the smallest entry, so position k holds the
    # k-th smallest over the other points
    bound = np.empty(n)
    bound[order] = np.partition(d2, k, axis=1)[:, k]
    return bound


def knn_indices(
    points, k: int, return_distances: bool = False
) -> np.ndarray | tuple[np.ndarray, F64]:
    """Exact k nearest neighbors per point, self excluded.

    Squared distances are ranked in the dot form (|a|^2 + |b|^2) - 2 a.b,
    built in cache-sized row blocks of about KNN_BLOCK_ENTRIES entries.
    No row is selected over in full: each row's k-th squared distance is
    first bounded from above by its Morton-order neighbours, and a block
    keeps only the entries at most that bound plus a rounding margin.
    Every entry at or below the row's true k-th distance survives, so ties
    straddling the boundary all compete, and the survivors are ordered by
    (distance, index). Neighbors therefore come in ascending exact
    distance with ties broken by the smaller point index -- the order of a
    stable argsort of the whole row -- and results are reproducible
    bit-for-bit. k is clamped to n - 1.

    Returns (N, k') int64 indices, plus matching distances when asked:
    the square roots of the same squared distances the ranking used.
    Raises CoordinateOverflowError, a ValueError, when coordinates are so
    large that squared distances would overflow.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (N, d), got {pts.shape}")
    n, d = pts.shape
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    k_eff = min(k, n - 1)

    idx = np.empty((n, k_eff), dtype=np.int64)
    dst = np.empty((n, k_eff)) if return_distances else None
    sq = np.einsum("nd,nd->n", pts, pts)
    # |a|^2 + |b|^2 - 2 a.b never exceeds 4 max|p|^2 at any step
    max_sq = sq.max()
    f64 = np.finfo(np.float64)
    # 4 S is finite exactly when S <= max / 4, and the compare cannot overflow
    if not max_sq <= f64.max / 4.0:
        raise CoordinateOverflowError(
            "points too large: squared distances overflow float64"
        )
    # An entry is kept when F_ij <= 0, where one BLAS call per block gives
    #   F_ij = [p_i, 1, -limit_i] . [-2 p_j, |p_j|^2, 1]
    #        = |p_j|^2 - 2 p_i.p_j - ((bound_i + margin) - |p_i|^2).
    # The margin covers rounding. With u = eps / 2, S = max|p|^2 and every
    # intermediate at most 4S, to first order:
    #   - the ranked value is off the true distance by (4d + 6) u S: d u S
    #     per square, 2 d u S for -2 a.b, 2 u S + 4 u S for the additions;
    #   - the difference-form bound is off it by (d + 2) u 4S;
    #   - relating F to the ranked value costs (2d + 6) u S, rounding
    #     limit_i 8 u S, and F's own d + 2 products, whose magnitudes sum
    #     to at most 7S, (d + 2) u 7S.
    # So every entry at or below its row's k-th ranked value has
    # F <= (17d + 42) u S - margin. The margin is 8 times (17d + 42) u S,
    # plus a smallest subnormal per unit for products that underflow; a
    # larger margin only admits a few more candidates.
    margin = 4 * (17 * d + 42) * (f64.eps * max_sq + f64.smallest_subnormal)
    limit = (_kth_bound(pts, k_eff) + margin) - sq
    left = np.column_stack([pts, np.ones(n), -limit])
    right = np.column_stack([-2.0 * pts, sq, np.ones(n)])
    chunk = max(1, KNN_BLOCK_ENTRIES // n)
    rows_max = min(chunk, n)
    dot = np.empty((rows_max, n))
    filt = np.empty((rows_max, n))
    keep = np.empty((rows_max, n), dtype=bool)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        m = stop - start
        # the transposed view, not a contiguous copy: the BLAS call shape
        # fixes the rounding of each dot product
        np.matmul(pts[start:stop], pts.T, out=dot[:m])
        np.matmul(left[start:stop], right.T, out=filt[:m])
        rows = np.arange(m)
        filt[rows, rows + start] = np.inf
        np.less_equal(filt[:m], 0.0, out=keep[:m])
        # flat indices are row-major, so columns ascend within each row
        flat = np.flatnonzero(keep[:m])
        cand_row, cand_col = np.divmod(flat, n)
        # the value and clamp a full (sq_i + sq_j) + (-2 dot) block would
        # hold; doubling is exact, so x - 2 a.b rounds as x + (-2 a.b)
        cand_d2 = (sq[cand_row + start] + sq[cand_col]) - 2.0 * dot[:m].ravel()[flat]
        np.maximum(cand_d2, 0.0, out=cand_d2)
        # lexsort is stable, so equal distances keep the smaller index
        # first; a narrow row type lets its stable row pass radix-sort
        order = np.lexsort((cand_d2, cand_row.astype(np.min_scalar_type(m - 1))))
        counts = np.bincount(cand_row, minlength=m)
        first = np.cumsum(counts) - counts
        pick = order[first[:, None] + np.arange(k_eff)]
        idx[start:stop] = cand_col[pick]
        if dst is not None:
            dst[start:stop] = np.sqrt(cand_d2[pick])
    if return_distances:
        return idx, dst
    return idx


@dataclass(frozen=True)
class KnnGraph:
    """Directed k-NN graph: row i lists the neighbors of node i."""

    positions: F64
    neighbor_indices: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        neigh = np.asarray(self.neighbor_indices, dtype=np.int64)
        if pos.ndim != 2 or neigh.ndim != 2 or pos.shape[0] != neigh.shape[0]:
            raise ValueError(
                f"positions {pos.shape} and neighbors {neigh.shape} do not align"
            )
        n = pos.shape[0]
        if neigh.size and (neigh.min() < 0 or neigh.max() >= n):
            raise ValueError("neighbor index out of range")
        if np.any(neigh == np.arange(n)[:, None]):
            raise ValueError("self loop in neighbor lists")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "neighbor_indices", neigh)

    @property
    def node_count(self) -> int:
        return self.positions.shape[0]

    @property
    def neighbor_count(self) -> int:
        return self.neighbor_indices.shape[1]


def build_knn_graph(positions, k: int) -> KnnGraph:
    """Exact k-NN graph over (N, d) positions; every node gets min(k, N-1) neighbors."""
    pos = np.asarray(positions, dtype=np.float64)
    return KnnGraph(pos, knn_indices(pos, k))


# --------------------------------------------------------------------------- #
#  Attention parameters
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GraphAttentionParams:
    """Projection and fusion-gate weights for one refinement layer."""

    channels: int
    seed: int
    query_proj: F64
    key_proj: F64
    value_proj: F64
    gate_w1: F64
    gate_b1: F64
    gate_w2: F64
    gate_b2: F64

    def __post_init__(self) -> None:
        for name, spec in PARAM_LAYOUT:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            want = _param_shape(spec, self.channels)
            if arr.shape != want:
                raise ValueError(f"{name}: expected shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: contains non-finite values")
            object.__setattr__(self, name, arr)

    @classmethod
    def initialize(cls, channels: int, seed: int) -> "GraphAttentionParams":
        """Uniform init in [-1/sqrt(C), 1/sqrt(C)], drawn in canonical order."""
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(channels)
        drawn = {
            name: rng.uniform(-bound, bound, _param_shape(spec, channels))
            for name, spec in PARAM_LAYOUT
        }
        return cls(channels=channels, seed=seed, **drawn)

    def replace(self, **updates) -> "GraphAttentionParams":
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(updates)
        return GraphAttentionParams(**current)


# --------------------------------------------------------------------------- #
#  Forward passes
# --------------------------------------------------------------------------- #


def _check_features(graph: KnnGraph, features, params: GraphAttentionParams) -> F64:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"features must be (N, C), got {feats.shape}")
    if feats.shape[0] != graph.node_count:
        raise ValueError(
            f"feature rows {feats.shape[0]} != graph nodes {graph.node_count}"
        )
    if feats.shape[1] != params.channels:
        raise ChannelMismatchError(
            f"features have {feats.shape[1]} channels, params expect {params.channels}"
        )
    if not np.all(np.isfinite(feats)):
        raise ValueError("features contain non-finite values")
    return feats


def light_gat_forward(graph: KnnGraph, features, params: GraphAttentionParams) -> F64:
    """Single-head scaled dot-product attention restricted to graph neighbors.

    For node i with neighbor j: s_ij = (Q f_i) . (K f_j) / sqrt(C), weights
    are the softmax of s_i* over the neighbor list only, and the output is
    sum_j alpha_ij (V f_j). No residual connection here; blending with the
    input is the fusion gate's job.
    """
    feats = _check_features(graph, features, params)
    q = feats @ params.query_proj.T
    k = feats @ params.key_proj.T
    v = feats @ params.value_proj.T
    neigh = graph.neighbor_indices
    scores = np.einsum("nc,nkc->nk", q, k[neigh]) / np.sqrt(params.channels)
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("nk,nkc->nc", weights, v[neigh])


def stable_sigmoid(x) -> F64:
    """Logistic function computed piecewise so extremes saturate exactly.

    exp only ever sees -|x| <= 0, so nothing can overflow.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gated_fusion(original, refined, params: GraphAttentionParams) -> F64:
    """Blend refined features back into the originals through a learned gate.

    g = sigmoid(W2 relu(W1 [orig || refined] + b1) + b2), output is
    g * refined + (1 - g) * original, element-wise.
    """
    orig = np.asarray(original, dtype=np.float64)
    refi = np.asarray(refined, dtype=np.float64)
    if orig.shape != refi.shape or orig.ndim != 2:
        raise ValueError(f"shape mismatch: {orig.shape} vs {refi.shape}")
    if orig.shape[1] != params.channels:
        raise ChannelMismatchError(
            f"features have {orig.shape[1]} channels, params expect {params.channels}"
        )
    stacked = np.concatenate([orig, refi], axis=1)
    hidden = np.maximum(stacked @ params.gate_w1.T + params.gate_b1, 0.0)
    gate = stable_sigmoid(hidden @ params.gate_w2.T + params.gate_b2)
    return gate * refi + (1.0 - gate) * orig
