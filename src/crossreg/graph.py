"""k-NN graphs, single-head neighbor attention, and gated feature fusion.

Feature fields are plain (N, C) float64 arrays. Attention and fusion
parameters are explicit data (no hidden module state) so that every run
is reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ChannelMismatchError
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


def knn_indices(
    points, k: int, return_distances: bool = False
) -> np.ndarray | tuple[np.ndarray, F64]:
    """Exact k nearest neighbors per point, self excluded.

    Squared distances are built in cache-sized row blocks of about
    KNN_BLOCK_ENTRIES entries (1 MB per float64 temporary). Each row's
    k-th smallest squared distance is found by partial selection
    (np.partition, linear time per row) rather than a full sort; every
    entry at or below it is kept, so ties straddling the boundary all
    compete, and those candidates are ordered by (distance, index).
    Neighbors therefore come in ascending exact distance with ties broken
    by the smaller point index -- the order of a stable argsort of the
    whole row -- and results are reproducible bit-for-bit. k is clamped
    to n - 1.

    Returns (N, k') int64 indices, plus matching distances when asked:
    the square roots of the same squared distances the ranking used.
    Raises ValueError when coordinates are so large that squared
    distances would overflow.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (N, d), got {pts.shape}")
    n = pts.shape[0]
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
    if not np.isfinite(4.0 * sq.max()):
        raise ValueError("points too large: squared distances overflow float64")
    chunk = max(1, KNN_BLOCK_ENTRIES // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        # the transposed view, not a contiguous copy: the BLAS call shape
        # fixes the rounding of each dot product
        dot = pts[start:stop] @ pts.T
        dot *= -2.0  # exact; x + (-2 a.b) rounds as x - 2 a.b does
        d2 = sq[start:stop, None] + sq[None, :]
        d2 += dot
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(start, stop)
        d2[rows - start, rows] = np.inf
        # copy, so the partitioned block is freed before the candidate pass
        kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1].copy()
        # flat indices are row-major, so columns ascend within each row
        flat = np.flatnonzero(d2 <= kth[:, None])
        cand_row, cand_col = np.divmod(flat, n)
        cand_d2 = d2.ravel()[flat]
        # lexsort is stable, so equal distances keep the smaller index first
        order = np.lexsort((cand_d2, cand_row))
        counts = np.bincount(cand_row, minlength=stop - start)
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
    """Logistic function computed piecewise so extremes saturate exactly."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
