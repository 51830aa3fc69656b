"""The config table: each key's default and inclusive range, declared once.

PipelineConfig has one field per key, in table order. The parts it builds
(RansacConfig, CorruptionConfig, SceneSpec, WarmupSchedule, LossWeights)
and metrics' TAU* take their defaults from the same rows, and each of
them keeps what the one check, check, makes of its fields: it types,
ranges and converts a value, as the CLI does. A key's type is its
default's. An open end is written as the nearest float inside it.

The second table, PARAMETERS, ranges the public functions' scalar
parameters that no config key's range fits; no PipelineConfig field or CLI
key reads it. Each public function checks its scalar parameters through
check, by a row of either table, and uses the value it returns.

Upper bounds other than the float64 limit keep arithmetic finite: at most
_SCALE, the feature scales keep geometry.unit_rows' sums of squares finite,
gaussian_sigma_m keeps the lifted depths' products finite, the loss
weights keep losses.total_loss finite, and ransac_threshold_px keeps
pnp_ransac's squared threshold finite. The size bounds keep the tile ids
and the normal fit's k + 4 within int64, and the arrays that point_count,
channels and the attention's channels shape within numpy's maximum size.

The third table, STREAM_TAGS, names every random stream, and stream_rng
alone opens one, as SeedSequence((*seeds, tag)). A None tag adds no word, so
RANSAC and the attention draw what default_rng of their seed draws, and are
one stream when the scene seed equals param_seed. Tags start at 1, since
SeedSequence((s,)) and SeedSequence((s, 0)) draw alike. SeedSequence joins
its seeds' 32-bit words, so (2**32 + 5, 7) would draw what (5, 1 + 7 * 2**32)
draws; stream_rng gives a tuple with a later seed past one word its own words.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

_MAX = sys.float_info.max  # past it, float() of a value raises or is inf
_ABOVE_0 = math.nextafter(0.0, 1.0)
_SCALE = 1e100
_WORD = 2**32  # SeedSequence's word


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

# A row's default is its parameter's, where it has one, else a value of its type.
PARAMETERS = {
    "knn_k": Setting(8, 1, _MAX),  # knn_indices clamps k to n - 1
    "normal_k": Setting(8, 3, 2**62),  # the fit's own precondition; k + 4 stays in int64
    "attention_channels": Setting(67, 1, 2**29 + 3),  # C + 3 at channels' bounds
    "circle_gamma": Setting(24.0, _ABOVE_0, _MAX),
    "circle_delta_p": Setting(0.1, 0.0, _MAX),  # margins of non-negative distances
    "circle_delta_n": Setting(1.4, 0.0, _MAX),
    "mmd_bandwidth": Setting(1.0, 2.0**-511, _MAX),  # below lo, 2 bandwidth^2 underflows
    "jobs": Setting(1, 1, _MAX),
    "pir_threshold": Setting(0.3, 0.0, 1.0),
    "tau1": Setting(SETTINGS["tau1_m"].default, 0.0, _MAX),  # 0 counts no inlier
}
_ROWS = {**SETTINGS, **PARAMETERS}

STREAM_TAGS = {
    "pose": 1,  # generate_scene's ground-truth pose
    "sample": 2,  # generate_scene's surface samples
    "base": 3,  # StandIn.of
    "img_noise": 4,  # synthesize_features
    "cloud_noise": 5,
    "outlier": 6,
    "guidance": 7,  # synthesize_features' guidance noise
    "swap": 8,  # and its row swaps
    "loss_fixture": 9,  # the losses command's fixture
    "depth_corruption": 10,  # corrupt_depth: noise and mask children
    "ransac": None,  # pnp_ransac, under the scene seed
    "attention": None,  # GraphAttentionParams.initialize, under param_seed
}


def stream_rng(name: str, *seeds: int) -> np.random.Generator:
    """The generator of stream `name` under these seeds: of (*seeds, tag) while
    every seed after the first is one word, else of each seed's word count and
    words, then the tag and a word no tag equals, so that no other tuple of a
    tagged stream draws alike."""
    tag = STREAM_TAGS[name]
    entropy = seeds if tag is None else (*seeds, tag)
    if any(seed >= _WORD for seed in seeds[1:]):
        entropy = []
        for seed in map(int, seeds):
            count = max(1, -(-seed.bit_length() // 32))
            entropy += [count, *((seed >> 32 * i) % _WORD for i in range(count))]
        entropy += [tag, _WORD - 1]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def setting(key: str):
    """A dataclass field holding key's default, checked by check_fields."""
    return dataclasses.field(default=_ROWS[key].default, metadata={"key": key})


def one_field_per_setting(cls):
    """cls as a frozen dataclass with a setting field per key, in table order."""
    cls.__annotations__ = {key: type(row.default) for key, row in SETTINGS.items()}
    for key in SETTINGS:
        setattr(cls, key, setting(key))
    return dataclasses.dataclass(frozen=True)(cls)


_KIND_NAMES = {bool: "true/false", int: "an integer", float: "a number"}


def check(key: str, value, name: str = "") -> bool | int | float:
    """value as the type of key, a row of either table, or a ConfigError
    naming `name` (default key).

    A bool key takes a bool; any other, a non-bool number (numpy's too) in
    its range, tested first since int() and float() raise past it, and a
    whole one for an int key. NaN and inf lie in no range, and -0.0 lies
    outside one whose low end is 0.
    """
    default, lo, hi = _ROWS[key]
    kind = type(default)
    name = name or key
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} expects {_KIND_NAMES[kind]}, got {value!r}")
    if not lo <= value <= hi or (value == lo == 0 and math.copysign(1.0, value) < 0):
        raise ConfigError(f"{name} must be finite and lie in [{lo!r}, {hi!r}], got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} expects an integer, got {value!r}")
    return kind(value)


def check_fields(obj) -> None:
    """Set each of the frozen dataclass obj's setting fields to check's value."""
    for f in dataclasses.fields(obj):
        if "key" in f.metadata:
            name = f"{type(obj).__name__}.{f.name}"
            object.__setattr__(obj, f.name, check(f.metadata["key"], getattr(obj, f.name), name))
