"""k-NN graphs, single-head neighbor attention, and gated feature fusion.

Feature fields are plain (N, C) float64 arrays. Attention and fusion
parameters are explicit data (no hidden module state) so that every run
is reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._settings import check, stream_rng
from .errors import CoordinateOverflowError
from .geometry import F64, as_float_array, as_rows


def _param_shapes(c: int) -> dict[str, tuple[int, ...]]:
    """Each attention parameter's shape at c channels, in the initializer's draw order."""
    return {
        "query_proj": (c, c), "key_proj": (c, c), "value_proj": (c, c),
        "gate_w1": (c, 2 * c), "gate_b1": (c,), "gate_w2": (c, c), "gate_b2": (c,),
    }


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


def _sq_dists(pts: F64, rows: np.ndarray, cols: np.ndarray) -> F64:
    """Difference-form squared distances from the points at rows to those at
    cols (index arrays that broadcast): (p_j - p_i)^2 per axis, summed onto
    +0.0 in axis order. Each reads its two points alone and is within
    (d + 2) u of the true distance, relatively (u = eps / 2), however far
    the points sit from the origin."""
    d2 = np.zeros(np.broadcast_shapes(rows.shape, cols.shape))
    for axis in range(pts.shape[1]):
        col = pts[:, axis]
        diff = col[cols] - col[rows]
        d2 += diff * diff
    return d2


def _kth_bound(pts: F64, k: int) -> F64:
    """Each row's k-th squared distance among its Morton-order neighbours.

    The w = min(n - 1, max(2k, 16)) points nearest a row in Morton order
    are w distinct other points, so the k-th smallest of their _sq_dists
    values is at least the row's k-th smallest over all other points.
    """
    n = pts.shape[0]
    w = min(n - 1, max(2 * k, 16))
    order = _morton_order(pts)
    # w + 1 consecutive Morton positions around each point, the point
    # itself included, shifted inwards at both ends of the order
    first = np.clip(np.arange(n) - w // 2, 0, n - 1 - w)
    window = order[first[:, None] + np.arange(w + 1)]
    d2 = _sq_dists(pts, order[:, None], window)
    # the point's own 0 is the smallest entry, so position k holds the
    # k-th smallest over the other points
    bound = np.empty(n)
    bound[order] = np.partition(d2, k, axis=1)[:, k]
    return bound


def knn_indices(
    points, k: int, return_distances: bool = False
) -> np.ndarray | tuple[np.ndarray, F64]:
    """Exact k nearest neighbors per point, self excluded.

    Neighbors come in ascending _sq_dists value, ties going to the smaller
    point index: the order of a stable argsort of each whole row of those
    values. Each value reads only its two points, so the result is the same,
    bit for bit, for any KNN_BLOCK_ENTRIES and BLAS kernel, and it keeps
    its accuracy far from the origin. k is clamped to n - 1.

    No row is ranked in full: each row's k-th squared distance is first
    bounded from above by its Morton-order neighbours, and one BLAS product
    per block of about KNN_BLOCK_ENTRIES entries keeps the entries at most
    that bound plus a rounding margin. Every entry at or below the row's
    k-th value survives, so ties straddling the boundary all compete, and
    only the survivors are ranked.

    Returns (N, k') int64 indices, plus matching distances when asked:
    the square roots of the same squared distances the ranking used.
    Raises CoordinateOverflowError, a ValueError, when coordinates are so
    large that squared distances would overflow.
    """
    pts = as_rows(points, "points")
    n, d = pts.shape
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    k_eff = min(check("knn_k", k, "k"), n - 1)

    idx = np.empty((n, k_eff), dtype=np.int64)
    dst = np.empty((n, k_eff)) if return_distances else None
    sq = np.einsum("nd,nd->n", pts, pts)
    # a squared distance never exceeds 4 max|p|^2
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
    # The bound is one of the row's own ranked values, at least its k-th,
    # so the margin covers only the difference form's error and the
    # filter's rounding. With u = eps / 2 and S = max|p|^2, to first order:
    #   - an entry ranked at most the bound is at most (d + 2) u 4S past it;
    #   - F is off that true distance minus (bound + margin) by 2 d u S for
    #     the two rounded |p|^2, 8 u S for rounding limit_i, and (d + 2) u 7S
    #     for F's own d + 2 products, whose magnitudes sum to at most 7S.
    # So every entry to keep has F <= (13d + 30) u S - margin. The margin,
    # 8 (17d + 42) u S, is more than 8 times that, plus a smallest subnormal
    # per unit for products that underflow; a larger margin only admits a
    # few more candidates.
    margin = 4 * (17 * d + 42) * (f64.eps * max_sq + f64.smallest_subnormal)
    limit = (_kth_bound(pts, k_eff) + margin) - sq
    left = np.column_stack([pts, np.ones(n), -limit])
    right = np.column_stack([-2.0 * pts, sq, np.ones(n)])
    chunk = max(1, KNN_BLOCK_ENTRIES // n)
    rows_max = min(chunk, n)
    block = np.empty((rows_max, n))
    keep = np.empty((rows_max, n), dtype=bool)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        m = stop - start
        np.matmul(left[start:stop], right.T, out=block[:m])
        rows = np.arange(m)
        block[rows, rows + start] = np.inf
        np.less_equal(block[:m], 0.0, out=keep[:m])
        # flat indices are row-major, so columns ascend within each row
        cand_row, cand_col = np.divmod(np.flatnonzero(keep[:m]), n)
        cand_d2 = _sq_dists(pts, cand_row + start, cand_col)
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
    """Directed k-NN graph: row i of neighbor_indices lists node i's neighbors."""

    neighbor_indices: np.ndarray

    def __post_init__(self) -> None:
        neigh = np.asarray(self.neighbor_indices, dtype=np.int64)
        if neigh.ndim != 2:
            raise ValueError(f"neighbor lists must be (N, k), got {neigh.shape}")
        n = neigh.shape[0]
        if neigh.size and (neigh.min() < 0 or neigh.max() >= n):
            raise ValueError("neighbor index out of range")
        if np.any(neigh == np.arange(n)[:, None]):
            raise ValueError("self loop in neighbor lists")
        object.__setattr__(self, "neighbor_indices", neigh)

    @property
    def node_count(self) -> int:
        return self.neighbor_indices.shape[0]


def build_knn_graph(positions, k: int) -> KnnGraph:
    """Exact k-NN graph over (N, d) positions; every node gets min(k, N-1) neighbors."""
    return KnnGraph(knn_indices(positions, k))


# --------------------------------------------------------------------------- #
#  Attention parameters
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GraphAttentionParams:
    """Projection and fusion-gate weights for one refinement layer."""

    channels: int
    query_proj: F64
    key_proj: F64
    value_proj: F64
    gate_w1: F64
    gate_b1: F64
    gate_w2: F64
    gate_b2: F64

    def __post_init__(self) -> None:
        for name, shape in _param_shapes(self.channels).items():
            object.__setattr__(self, name, as_float_array(getattr(self, name), shape, name))

    @classmethod
    def initialize(cls, channels: int, seed: int) -> "GraphAttentionParams":
        """Uniform init in [-1/sqrt(C), 1/sqrt(C)], drawn in canonical order."""
        channels = check("attention_channels", channels, "channels")
        rng = stream_rng("attention", check("param_seed", seed, "seed"))
        bound = 1.0 / np.sqrt(channels)
        drawn = {
            name: rng.uniform(-bound, bound, shape)
            for name, shape in _param_shapes(channels).items()
        }
        return cls(channels=channels, **drawn)


# --------------------------------------------------------------------------- #
#  Forward passes
# --------------------------------------------------------------------------- #


def _check_features(graph: KnnGraph, features, params: GraphAttentionParams) -> F64:
    feats = as_rows(features, "features", params.channels)
    if feats.shape[0] != graph.node_count:
        raise ValueError(
            f"feature rows {feats.shape[0]} != graph nodes {graph.node_count}"
        )
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
    orig = as_rows(original, "original", params.channels)
    refi = as_rows(refined, "refined", params.channels)
    if len(orig) != len(refi):
        raise ValueError(f"shape mismatch: {orig.shape} vs {refi.shape}")
    stacked = np.concatenate([orig, refi], axis=1)
    hidden = np.maximum(stacked @ params.gate_w1.T + params.gate_b1, 0.0)
    gate = stable_sigmoid(hidden @ params.gate_w2.T + params.gate_b2)
    return gate * refi + (1.0 - gate) * orig
