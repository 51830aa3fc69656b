"""Supervision losses and schedules, with analytic gradients where promised.

Everything here is a plain function of arrays; the only stateful concept
is the warm-up schedule, which is itself just data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._settings import PARAMETERS, check, check_fields, setting
from .errors import (
    ConfigError,
    EmptyOverlapError,
    EmptySampleError,
    LengthMismatchError,
)
from .geometry import (
    F64, as_float_array, as_rows, as_unit_rows, check_coordinates, median, sq_dists,
)
from .normals import NormalField


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


def _check_normalized(features, name: str, width: int | None = None) -> F64:
    feats = as_rows(features, name, width)
    if feats.shape[0] < 1:
        raise ValueError(f"{name}: expected (M, C) with M >= 1, got {feats.shape}")
    return as_unit_rows(feats, name)


def gdc_loss(f_img, f_cloud) -> tuple[float, F64, F64]:
    """Squared Frobenius gap between the two self-similarity structures.

    Inputs are matched row-normalized feature sets of equal size. Returns
    (loss, grad wrt f_img, grad wrt f_cloud); with D = S_img - S_cloud the
    gradients are 4 D f_img and -4 D f_cloud.
    """
    img = _check_normalized(f_img, "f_img")
    cloud = _check_normalized(f_cloud, "f_cloud", img.shape[1])
    if img.shape[0] != cloud.shape[0]:
        raise LengthMismatchError(
            f"matched sets must have equal rows: {img.shape[0]} vs {cloud.shape[0]}"
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

    gamma: float = setting("circle_gamma")
    delta_p: float = setting("circle_delta_p")
    delta_n: float = setting("circle_delta_n")

    def __post_init__(self) -> None:
        check_fields(self)


def _logsumexp(values: F64) -> float:
    m = float(values.max())
    if math.isinf(m):  # an exponent overflowed, or every term is 0
        return m
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
    so each exponent is gamma * lambda * gap^2; distances and weights must
    be non-negative. Either side empty means there is nothing to contrast:
    the loss is exactly 0. Computed in log-sum-exp form so large gaps
    cannot overflow; where an exponent or the final quotient passes the
    float64 range, the loss is inf.
    """
    pos = as_float_array(pos_dists, name="pos_dists").ravel()
    neg = as_float_array(neg_dists, name="neg_dists").ravel()
    if pos.size == 0 or neg.size == 0:
        return 0.0
    if np.any(pos < 0) or np.any(neg < 0):
        raise ValueError("distances must be non-negative")
    lam_p = np.ones_like(pos) if pos_weights is None else as_float_array(pos_weights, name="pos_weights")
    lam_n = np.ones_like(neg) if neg_weights is None else as_float_array(neg_weights, name="neg_weights")
    if lam_p.shape != pos.shape or lam_n.shape != neg.shape:
        raise ValueError("weights must match distances in shape")
    for lam, name in ((lam_p, "pos_weights"), (lam_n, "neg_weights")):
        if np.any(lam < 0):
            raise ValueError(f"{name} must be non-negative")

    gap_p = pos - config.delta_p
    gap_n = config.delta_n - neg
    with np.errstate(over="ignore"):  # an overflow is a diverging loss
        exp_p = config.gamma * lam_p * gap_p * gap_p
        exp_n = config.gamma * lam_n * gap_n * gap_n
        log_term = _logsumexp(exp_p) + _logsumexp(exp_n)
        return float(np.logaddexp(0.0, log_term) / config.gamma)


# --------------------------------------------------------------------------- #
#  Aggregation and scheduling
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LossWeights:
    lambda_match: float = setting("lambda_match")
    lambda_normal: float = setting("lambda_normal")
    lambda_gdc: float = setting("lambda_gdc")

    def __post_init__(self) -> None:
        check_fields(self)


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

    start: int = setting("warmup_start")
    end: int = setting("warmup_end")

    def __post_init__(self) -> None:
        check_fields(self)
        if self.end < self.start:
            raise ConfigError(f"warm-up end must be >= its start, got ({self.start}, {self.end})")


def warmup_weight(epoch: int, schedule: WarmupSchedule = WarmupSchedule()) -> float:
    """0 before start, linear on [start, end), 1 at and after end.

    A schedule with start == end degenerates to a step at that epoch.
    """
    epoch = check("epoch", epoch)
    if epoch >= schedule.end:
        return 1.0
    if epoch < schedule.start:
        return 0.0
    return (epoch - schedule.start) / (schedule.end - schedule.start)


# --------------------------------------------------------------------------- #
#  Maximum mean discrepancy
# --------------------------------------------------------------------------- #


def _pooled_sq(a, b) -> tuple[F64, int]:
    """sq_dists among every pair of rows of a and b pooled, with a's row
    count. a and b are read as as_rows of a's width, within
    COORDINATE_LIMIT, which keeps the squared distances finite."""
    check_coordinates(xa := as_rows(a, "a"), "a")
    check_coordinates(xb := as_rows(b, "b", xa.shape[1]), "b")
    rows = np.arange(xa.shape[0] + xb.shape[0])
    return sq_dists(np.vstack([xa, xb]), rows[:, None], rows), xa.shape[0]


def _median_bandwidth(d2: F64) -> float:
    """The median off-diagonal distance of _pooled_sq's d2; 1.0 where it falls
    below the smallest bandwidth mmd takes."""
    med = median(np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)]))
    return med if med >= PARAMETERS["mmd_bandwidth"].lo else 1.0


def median_heuristic_bandwidth(a, b) -> float:
    """Median pairwise distance over the pooled sample; 1.0 for fewer than two
    rows, or a median below the smallest bandwidth mmd takes."""
    d2, _ = _pooled_sq(a, b)
    return 1.0 if d2.shape[0] < 2 else _median_bandwidth(d2)


def mmd(a, b, bandwidth: float | None = None) -> float:
    """Plug-in Gaussian-kernel MMD between two samples, clamped at 0.

    bandwidth defaults to the median heuristic over the pooled sample. One
    matrix of pooled squared distances, each in difference form from its
    two rows alone, serves the heuristic and all three kernel means, so the
    value is as exact at any offset and separation of the samples as near
    the origin.
    """
    d2, m = _pooled_sq(a, b)
    if m == 0 or m == d2.shape[0]:
        raise EmptySampleError("mmd needs non-empty samples on both sides")
    if bandwidth is None:
        bandwidth = _median_bandwidth(d2)
    bandwidth = check("mmd_bandwidth", bandwidth, "bandwidth")
    with np.errstate(over="ignore"):  # an exponent past -max saturates the kernel to 0
        kernel = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    value = kernel[:m, :m].mean() - 2.0 * kernel[:m, m:].mean() + kernel[m:, m:].mean()
    return max(0.0, float(value))
