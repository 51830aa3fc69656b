"""Supervision losses and schedules, with analytic gradients where promised.

Everything here is a plain function of arrays; the only stateful concept
is the warm-up schedule, which is itself just data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelMismatchError,
    EmptyOverlapError,
    EmptySampleError,
    LengthMismatchError,
    NotNormalizedError,
)
from .geometry import F64, as_float_array
from .normals import NormalField

ROW_NORM_TOL = 1e-6


# --------------------------------------------------------------------------- #
#  Normal consistency
# --------------------------------------------------------------------------- #


def normal_consistency_loss(
    predicted: NormalField, target: NormalField
) -> tuple[float, F64]:
    """One minus the mean cosine between predicted and target normals.

    Only positions valid in both fields participate. Returns the loss and
    its gradient with respect to the predicted normals (zero at positions
    that do not participate).
    """
    if predicted.normals.shape != target.normals.shape:
        raise ValueError(
            f"field shapes differ: {predicted.normals.shape} vs {target.normals.shape}"
        )
    both = predicted.valid & target.valid
    count = int(both.sum())
    if count == 0:
        raise EmptyOverlapError("no jointly valid normals")
    dots = np.einsum("...c,...c->...", predicted.normals, target.normals)
    loss = 1.0 - float(dots[both].sum()) / count
    grad = np.zeros_like(predicted.normals)
    grad[both] = -target.normals[both] / count
    return loss, grad


# --------------------------------------------------------------------------- #
#  Distribution consistency
# --------------------------------------------------------------------------- #


def _check_normalized(features, name: str) -> F64:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError(f"{name}: expected (M, C) with M >= 1, got {feats.shape}")
    feats = as_float_array(feats, name=name)
    norms = np.linalg.norm(feats, axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > ROW_NORM_TOL:
        raise NotNormalizedError(f"{name}: row norm deviates from 1 by {worst:.3e}")
    return feats


def self_similarity(features) -> F64:
    """Row-wise similarity structure S = F F^T of a row-normalized field."""
    feats = _check_normalized(features, "features")
    return feats @ feats.T


def gdc_loss(f_img, f_cloud) -> tuple[float, F64, F64]:
    """Squared Frobenius gap between the two self-similarity structures.

    Inputs are matched row-normalized feature sets of equal size. Returns
    (loss, grad wrt f_img, grad wrt f_cloud); with D = S_img - S_cloud the
    gradients are 4 D f_img and -4 D f_cloud.
    """
    img = _check_normalized(f_img, "f_img")
    cloud = _check_normalized(f_cloud, "f_cloud")
    if img.shape[0] != cloud.shape[0]:
        raise LengthMismatchError(
            f"matched sets must have equal rows: {img.shape[0]} vs {cloud.shape[0]}"
        )
    if img.shape[1] != cloud.shape[1]:
        raise ChannelMismatchError(
            f"channel counts differ: {img.shape[1]} vs {cloud.shape[1]}"
        )
    diff = img @ img.T - cloud @ cloud.T
    loss = float(np.sum(diff * diff))
    return loss, 4.0 * diff @ img, -4.0 * diff @ cloud


# --------------------------------------------------------------------------- #
#  Circle loss over feature distances
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CircleLossConfig:
    """Margins and sharpness for the distance-domain circle loss."""

    gamma: float = 24.0
    delta_p: float = 0.1
    delta_n: float = 1.4

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


def _logsumexp(values: F64) -> float:
    m = float(values.max())
    return m + float(np.log(np.exp(values - m).sum()))


def circle_loss(
    pos_dists,
    neg_dists,
    config: CircleLossConfig = CircleLossConfig(),
    pos_weights=None,
    neg_weights=None,
) -> float:
    """Log-sum-exp circle loss over positive/negative feature distances.

    Positive pairs are pushed below delta_p, negatives above delta_n, with
    adaptive weights beta = gamma * lambda * (margin gap) taken as written,
    so each exponent is gamma * lambda * gap^2. Either side empty means
    there is nothing to contrast: the loss is exactly 0. Computed in
    log-sum-exp form so large gaps cannot overflow.
    """
    pos = np.asarray(pos_dists, dtype=np.float64).ravel()
    neg = np.asarray(neg_dists, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        return 0.0
    if np.any(pos < 0) or np.any(neg < 0):
        raise ValueError("distances must be non-negative")
    lam_p = np.ones_like(pos) if pos_weights is None else np.asarray(pos_weights, dtype=np.float64)
    lam_n = np.ones_like(neg) if neg_weights is None else np.asarray(neg_weights, dtype=np.float64)
    if lam_p.shape != pos.shape or lam_n.shape != neg.shape:
        raise ValueError("weights must match distances in shape")

    gap_p = pos - config.delta_p
    gap_n = config.delta_n - neg
    exp_p = config.gamma * lam_p * gap_p * gap_p
    exp_n = config.gamma * lam_n * gap_n * gap_n
    log_term = _logsumexp(exp_p) + _logsumexp(exp_n)
    return float(np.logaddexp(0.0, log_term) / config.gamma)


# --------------------------------------------------------------------------- #
#  Aggregation and scheduling
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LossWeights:
    lambda_match: float = 1.0
    lambda_normal: float = 1.0
    lambda_gdc: float = 0.5


def total_loss(
    match_loss: float,
    normal_loss: float,
    gdc_loss_value: float,
    weights: LossWeights = LossWeights(),
) -> float:
    return (
        weights.lambda_match * match_loss
        + weights.lambda_normal * normal_loss
        + weights.lambda_gdc * gdc_loss_value
    )


@dataclass(frozen=True)
class WarmupSchedule:
    """Linear ramp from 0 to 1 between start and end epochs."""

    start: int = 10
    end: int = 20

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"need 0 <= start <= end, got ({self.start}, {self.end})")


def warmup_weight(epoch: int, schedule: WarmupSchedule = WarmupSchedule()) -> float:
    """0 before start, linear on [start, end), 1 at and after end.

    A schedule with start == end degenerates to a step at that epoch.
    """
    if epoch >= schedule.end:
        return 1.0
    if epoch < schedule.start:
        return 0.0
    return (epoch - schedule.start) / (schedule.end - schedule.start)


# --------------------------------------------------------------------------- #
#  Maximum mean discrepancy
# --------------------------------------------------------------------------- #


def median_heuristic_bandwidth(a, b) -> float:
    """Median pairwise distance over the pooled sample (fallback 1.0)."""
    pooled = np.vstack([np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)])
    n = pooled.shape[0]
    if n < 2:
        return 1.0
    sq = np.einsum("nd,nd->n", pooled, pooled)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T)
    np.maximum(d2, 0.0, out=d2)
    upper = d2[np.triu_indices(n, k=1)]
    med = float(np.median(np.sqrt(upper)))
    return med if med > 0.0 else 1.0


def _gaussian_kernel_mean(x: F64, y: F64, bandwidth: float) -> float:
    sx = np.einsum("nd,nd->n", x, x)
    sy = np.einsum("nd,nd->n", y, y)
    d2 = sx[:, None] + sy[None, :] - 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return float(np.exp(-d2 / (2.0 * bandwidth * bandwidth)).mean())


def mmd(a, b, bandwidth: float | None = None) -> float:
    """Plug-in Gaussian-kernel MMD between two samples, clamped at 0.

    bandwidth defaults to the median heuristic over the pooled sample.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2:
        raise ValueError(f"samples must be (N, d), got {xa.shape} and {xb.shape}")
    if xa.shape[0] == 0 or xb.shape[0] == 0:
        raise EmptySampleError("mmd needs non-empty samples on both sides")
    if xa.shape[1] != xb.shape[1]:
        raise ChannelMismatchError(f"dimensions differ: {xa.shape[1]} vs {xb.shape[1]}")
    if bandwidth is None:
        bandwidth = median_heuristic_bandwidth(xa, xb)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    value = (
        _gaussian_kernel_mean(xa, xa, bandwidth)
        - 2.0 * _gaussian_kernel_mean(xa, xb, bandwidth)
        + _gaussian_kernel_mean(xb, xb, bandwidth)
    )
    return max(0.0, value)
