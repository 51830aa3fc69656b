"""The config table: each key's default and inclusive range, declared once.

PipelineConfig has one field per key, in table order. The parts it builds
(RansacConfig, CorruptionConfig, SceneSpec, WarmupSchedule, LossWeights)
and metrics' TAU* take their defaults from the same rows, and all of them
run the one range check, check. A key's type is its default's. An open
end is written as the nearest float inside it, with math.nextafter.

Upper bounds other than the float64 limit keep arithmetic finite: at most
_SCALE, the feature scales keep geometry.unit_rows' sums of squares finite,
gaussian_sigma_m keeps the lifted depths' products finite, the loss
weights keep losses.total_loss finite, and ransac_threshold_px keeps
pnp_ransac's squared threshold finite. The size bounds keep the tile ids
and normal_ks' k + 4 within int64, and the arrays that point_count and
channels shape within numpy's maximum size.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import NamedTuple

from .errors import ConfigError

_MAX = sys.float_info.max  # past it, float() of a value raises or is inf
_ABOVE_0 = math.nextafter(0.0, 1.0)
_SCALE = 1e100


class Setting(NamedTuple):
    """A key's default and inclusive range [lo, hi]."""

    default: bool | int | float
    lo: float
    hi: float


SETTINGS = {
    "k_neighbors": Setting(8, 2, 2**62),
    "adaptive_k": Setting(False, False, True),
    "channels": Setting(64, 4, 2**29),
    "top_k_coarse": Setting(3, 1, _MAX),
    "min_fine_score": Setting(0.75, -1.0, 1.0),
    "tile_rows": Setting(6, 1, 2**63 - 1),
    "tile_cols": Setting(8, 1, 2**63 - 1),
    "voxel_size": Setting(0.4, _ABOVE_0, _MAX),
    "normal_channel_weight": Setting(0.5, 0.0, _SCALE),
    "guidance_noise_scale": Setting(0.2, 0.0, _SCALE),
    "guidance_swap_scale": Setting(0.25, 0.0, _MAX),
    "warmup_start": Setting(10, 0, _MAX),
    "warmup_end": Setting(20, 0, _MAX),
    "epoch": Setting(0, 0, _MAX),
    "lambda_match": Setting(1.0, 0.0, _SCALE),
    "lambda_normal": Setting(1.0, 0.0, _SCALE),
    "lambda_gdc": Setting(0.5, 0.0, _SCALE),
    "ransac_iterations": Setting(1000, 1, _MAX),
    "ransac_threshold_px": Setting(8.0, _ABOVE_0, _SCALE),
    "ransac_confidence": Setting(0.999, _ABOVE_0, math.nextafter(1.0, 0.0)),
    "ransac_min_sample": Setting(6, 6, _MAX),  # lo is the DLT floor, pose.MIN_SOLVE_POINTS
    "tau1_m": Setting(0.05, _ABOVE_0, _MAX),
    "tau2_ratio": Setting(0.1, 0.0, 1.0),
    "tau3_m": Setting(0.1, _ABOVE_0, _MAX),
    "gaussian_sigma_m": Setting(0.0, 0.0, _SCALE),
    "mask_ratio": Setting(0.0, 0.0, 1.0),
    "feature_noise_sigma": Setting(0.0, 0.0, _SCALE),
    "outlier_fraction": Setting(0.0, 0.0, 1.0),
    "noise_seed": Setting(0, 0, _MAX),
    "param_seed": Setting(0, 0, _MAX),
    "scene_count": Setting(20, 1, _MAX),
    "base_seed": Setting(0, 0, _MAX),
    "point_count": Setting(2000, 100, 2**58),
    # a full turn covers every rotation; past max / 4 the draw or the
    # inverse pose overflows
    "max_rotation_deg": Setting(30.0, 0.0, 360.0),
    "max_translation_m": Setting(0.5, 0.0, _MAX / 4),
}


def setting(key: str):
    """A dataclass field holding key's default, checked by check_fields."""
    return dataclasses.field(default=SETTINGS[key].default, metadata={"key": key})


def one_field_per_setting(cls):
    """cls as a frozen dataclass with a setting field per key, in table order."""
    cls.__annotations__ = {key: type(row.default) for key, row in SETTINGS.items()}
    for key in SETTINGS:
        setattr(cls, key, setting(key))
    return dataclasses.dataclass(frozen=True)(cls)


def check(key: str, value, name: str = "") -> None:
    """ConfigError naming `name` (default key) unless value lies in key's range.

    NaN and inf lie in no range, and -0.0 lies outside one whose low end is 0.
    """
    _, lo, hi = SETTINGS[key]
    if not lo <= value <= hi or (value == lo == 0 and math.copysign(1.0, value) < 0):
        raise ConfigError(
            f"{name or key} must be finite and lie in [{lo!r}, {hi!r}], got {value!r}"
        )


def check_fields(obj) -> None:
    """check each of the dataclass obj's setting fields."""
    for f in dataclasses.fields(obj):
        if "key" in f.metadata:
            check(f.metadata["key"], getattr(obj, f.name), f"{type(obj).__name__}.{f.name}")
