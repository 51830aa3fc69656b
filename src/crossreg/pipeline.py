"""End-to-end registration: corruption, features, refinement, matching, pose.

The register flow mirrors a trained system at desk scale. Depth
corruption lowers a normal-agreement score (k-NN covariance normals of
the backprojected live depth against the clean ones), which injects
guidance noise into the image features; both feature sets then carry
weighted normal channels, pass through the shared graph-attention
refinement blended in by the warm-up weight, and meet in coarse
tile/cell matching, per-patch fine matching, and PnP-RANSAC.

With zero corruption every stage is exact: agreement is 1, guidance
noise vanishes, both sides of a ground-truth pair carry identical rows,
and the emitted correspondences reproduce the ground truth.

No work is done whose result would be discarded: the refinement (its
k-NN graphs, attention and fusion) runs only at a positive warm-up
weight, the graphs are built on first use and then kept with the scene's
prep, and an uncorrupted depth reuses the prep's clean normals as the
live ones.

No work is repeated either. Registration reads the scene's pixel table,
never its 640x480 raster: corrupt_depth and lifted_pixel_normals work on
the table's rows (about 1.9k at the default size), and the agreement
compares row fields. The scene's base features are drawn once per prep,
and synthesize_features degrades a copy of them per registration. The
refined features are scaled to unit rows once per registration, so each
coarse pair's fine matching is a slice, a product and a mutual argmax;
its matches carry their rows, so the per-pixel dedup needs no pixel search.

Registration reads the true pose only where the synth features and
_corrupt_guidance stand in for trained backbones; it returns its coarse
patch pairs, and evaluation scores their overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from . import geometry, matching, normals, synth
from .errors import (
    REGISTRATION_FAILURES,
    ConfigError,
    CoordinateOverflowError,
    DegenerateNeighborhoodError,
    LengthMismatchError,
)
from .geometry import CameraIntrinsics, F64, RigidTransform, backproject_pixels
from .graph import (
    GraphAttentionParams,
    KnnGraph,
    build_knn_graph,
    gated_fusion,
    light_gat_forward,
)
from .losses import LossWeights, WarmupSchedule, warmup_weight
# fine_match is bound for bench/spans.py to wrap; registration calls fine_match_unit
from .matching import (
    CorrespondenceSet,
    coarse_match,
    cosine_score_map,
    fine_match,
    patch_overlap,
)
from .metrics import (
    SceneEvaluation,
    feature_matching_recall,
    inlier_ratio,
    patch_inlier_ratio,
    registration_recall,
    registration_rmse,
    relative_rotation_error,
    relative_translation_error,
)
from .normals import (
    NormalField,
    estimate_point_normals,
    estimate_point_normals_adaptive,
    normal_agreement,
)
from .pose import PoseEstimate, RansacConfig, pnp_ransac
from .synth import (
    CorruptionConfig,
    SceneSpec,
    SyntheticScene,
    corrupt_depth,
    generate_scene,
    synthesize_features,
)

_SWAP_CANDIDATES = 16

# sweep name -> the config field it sets
_SWEEP_FIELDS = {
    "gaussian_sigma": "gaussian_sigma_m",
    "mask_ratio": "mask_ratio",
    "k": "k_neighbors",
    "warmup": "epoch",
}
SWEEP_NAMES = tuple(_SWEEP_FIELDS)

SWEEP_DEFAULTS: dict[str, tuple] = {
    "gaussian_sigma": (0.0, 0.005, 0.01, 0.015),
    "mask_ratio": (0.0, 0.1, 0.2, 0.3, 0.4),
    "k": (2, 4, 8, 16),
    "warmup": (0, 5, 15, 25),
}

# the config fields a ScenePrep depends on
_PREP_FIELDS = (
    "k_neighbors", "adaptive_k", "tile_rows", "tile_cols", "voxel_size", "channels",
)

__all__ = [
    "PipelineConfig",
    "RegistrationResult",
    "ScenePrep",
    "SWEEP_NAMES",
    "SWEEP_DEFAULTS",
    "lifted_pixel_normals",
    "prepare_scene",
    "register_scene",
    "evaluate_scene",
    "evaluation_report",
    "apply_sweep_setting",
    "ablation_rows",
    "parallel_map",
]


# --------------------------------------------------------------------------- #
#  Configuration
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the end-to-end flow, flat and strictly validated."""

    k_neighbors: int = 8
    adaptive_k: bool = False
    channels: int = 64
    top_k_coarse: int = 3
    min_fine_score: float = 0.75
    tile_rows: int = 6
    tile_cols: int = 8
    voxel_size: float = 0.4
    normal_channel_weight: float = 0.5
    guidance_noise_scale: float = 0.2
    guidance_swap_scale: float = 0.25
    warmup_start: int = 10
    warmup_end: int = 20
    epoch: int = 0
    lambda_match: float = 1.0
    lambda_normal: float = 1.0
    lambda_gdc: float = 0.5
    ransac_iterations: int = 1000
    ransac_threshold_px: float = 8.0
    ransac_confidence: float = 0.999
    ransac_min_sample: int = 6
    tau1_m: float = 0.05
    tau2_ratio: float = 0.1
    tau3_m: float = 0.1
    gaussian_sigma_m: float = 0.0
    mask_ratio: float = 0.0
    feature_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    noise_seed: int = 0
    param_seed: int = 0
    scene_count: int = 20
    base_seed: int = 0
    point_count: int = 2000
    max_rotation_deg: float = 30.0
    max_translation_m: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.k_neighbors < 2:
            raise ConfigError(f"k_neighbors must be >= 2, got {self.k_neighbors}")
        if self.channels < 4:
            raise ConfigError(f"channels must be >= 4, got {self.channels}")
        if self.top_k_coarse < 1:
            raise ConfigError("top_k_coarse must be >= 1")
        if not -1.0 <= self.min_fine_score <= 1.0:
            raise ConfigError("min_fine_score must lie in [-1, 1]")
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ConfigError("tile grid must be at least 1x1")
        if self.voxel_size <= 0.0:
            raise ConfigError("voxel_size must be positive")
        if (
            self.normal_channel_weight < 0.0
            or self.guidance_noise_scale < 0.0
            or self.guidance_swap_scale < 0.0
        ):
            raise ConfigError("feature weights must be >= 0")
        if min(self.lambda_match, self.lambda_normal, self.lambda_gdc) < 0.0:
            raise ConfigError("loss weights must be >= 0")
        if self.tau1_m <= 0.0 or self.tau3_m <= 0.0 or not 0.0 <= self.tau2_ratio <= 1.0:
            raise ConfigError("metric thresholds out of range")
        if self.epoch < 0:
            raise ConfigError("epoch must be >= 0")
        if self.scene_count < 1:
            raise ConfigError("scene_count must be >= 1")
        # Constituent configs re-check their own invariants; surface those
        # failures as config errors too.
        try:
            self.corruption()
            self.ransac(seed=0)
            self.warmup()
            self.scene_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "PipelineConfig":
        unknown = sorted(set(mapping) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**{key: cls._coerce(key, raw) for key, raw in mapping.items()})

    @classmethod
    def _coerce(cls, key: str, raw):
        """raw as the type of field `key`; ConfigError when it is not one."""
        default = cls.__dataclass_fields__[key].default
        if isinstance(default, bool):
            if not isinstance(raw, bool):
                raise ConfigError(f"{key} expects true/false, got {raw!r}")
            return raw
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ConfigError(f"{key} expects {kind}, got {raw!r}")
        if not abs(raw) <= sys.float_info.max:  # NaN, inf, past float64: int()/float() raise
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        if isinstance(default, int):
            if float(raw) != int(raw):
                raise ConfigError(f"{key} expects an integer, got {raw!r}")
            return int(raw)
        return float(raw)

    def replace(self, **updates) -> "PipelineConfig":
        return dataclasses.replace(self, **updates)

    def corruption(self) -> CorruptionConfig:
        return CorruptionConfig(
            gaussian_sigma_m=self.gaussian_sigma_m,
            mask_ratio=self.mask_ratio,
            feature_noise_sigma=self.feature_noise_sigma,
            outlier_fraction=self.outlier_fraction,
            seed=self.noise_seed,
        )

    def ransac(self, seed: int) -> RansacConfig:
        return RansacConfig(
            max_iterations=self.ransac_iterations,
            inlier_threshold_px=self.ransac_threshold_px,
            confidence=self.ransac_confidence,
            min_sample=self.ransac_min_sample,
            seed=seed,
        )

    def warmup(self) -> WarmupSchedule:
        return WarmupSchedule(self.warmup_start, self.warmup_end)

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.lambda_match, self.lambda_normal, self.lambda_gdc)

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            point_count=self.point_count,
            max_rotation_deg=self.max_rotation_deg,
            max_translation_m=self.max_translation_m,
        )


# --------------------------------------------------------------------------- #
#  Geometry-aware feature construction
# --------------------------------------------------------------------------- #


def lifted_pixel_normals(
    uv: F64, depths: F64, intrinsics: CameraIntrinsics, k: int, adaptive: bool
) -> NormalField:
    """(rows, 3) camera-frame normals of pixels uv at their depths, zero where invalid.

    Each pixel is lifted to 3D and gets a covariance normal over its
    nearest lifted neighbors, as many as normal_ks gives for k. With no
    more pixels than the fit's largest k, every pixel is invalid.
    """
    k_norm, k_fit = normals.normal_ks(k, adaptive)
    if depths.size <= k_fit:
        return NormalField(np.zeros((depths.size, 3)), np.zeros(depths.size, dtype=bool))
    pts = backproject_pixels(intrinsics, uv, depths)
    if adaptive:
        return estimate_point_normals_adaptive(pts, k0=k_norm, k_sparse=k_fit)
    return estimate_point_normals(pts, k_norm)


def _tile_ids(pixels: F64, intrinsics: CameraIntrinsics, rows: int, cols: int) -> np.ndarray:
    tile_w = intrinsics.width / cols
    tile_h = intrinsics.height / rows
    cu = np.minimum((pixels[:, 0] // tile_w).astype(np.int64), cols - 1)
    cv = np.minimum((pixels[:, 1] // tile_h).astype(np.int64), rows - 1)
    return cv * cols + cu


def _voxel_ids(points: F64, size: float) -> tuple[np.ndarray, int]:
    """Each point's cell id and the cell count; ids rank the distinct cells
    in lexicographic (x, y, z) order, as np.unique(axis=0) numbers them."""
    with np.errstate(over="ignore"):
        floors = np.floor(points / size)
    # int64 holds exactly the floors in [-2^63, 2^63); casting any other
    # value would silently merge cells
    if not np.all((floors >= -(2.0**63)) & (floors < 2.0**63)):
        raise CoordinateOverflowError(
            f"points too large for voxel_size {size!r}: cell ids overflow int64"
        )
    cells = floors.astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    ranked = cells[order]
    starts_run = np.ones(cells.shape[0], dtype=bool)
    starts_run[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(cells.shape[0], dtype=np.int64)
    ids[order] = np.cumsum(starts_run) - 1
    return ids, int(np.count_nonzero(starts_run))


@dataclass(frozen=True)
class _Members:
    """Rows grouped by id: group g's rows, ascending, are order[offsets[g]:offsets[g + 1]]."""

    order: np.ndarray
    offsets: np.ndarray

    @classmethod
    def index(cls, ids: np.ndarray, group_count: int) -> "_Members":
        offsets = np.zeros(group_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=group_count), out=offsets[1:])
        return cls(np.argsort(ids, kind="stable"), offsets)

    def of(self, group) -> np.ndarray:
        return self.order[self.offsets[group]:self.offsets[group + 1]]

    def present(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.offsets))


def _group_means(features: F64, groups: _Members) -> tuple[F64, np.ndarray]:
    """Mean feature per nonempty group; returns (means, group ids present).

    Each group's rows are summed in row order onto +0.0, as np.add.at
    accumulates them, so the means match it to the bit.
    """
    present = groups.present()
    sums = np.zeros((present.size, features.shape[1]))
    for row, group in enumerate(present):
        sums[row] += features[groups.of(group)].sum(axis=0)
    return sums / np.diff(groups.offsets)[present, None].astype(np.float64), present


# --------------------------------------------------------------------------- #
#  Registration
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RegistrationResult:
    """Everything register produces for one scene."""

    estimate: PoseEstimate
    correspondences: CorrespondenceSet
    patches: tuple[tuple[int, int, float], ...]  # coarse (tile id, cell id, score)
    agreement: float
    blend: float


@dataclass(frozen=True)
class ScenePrep:
    """The work of a registration fixed by its scene and _PREP_FIELDS alone.

    Registration works on the rows of the scene's pixel table, never on
    the image grid: clean_normals holds one lifted normal per table row.
    base holds the scene's unit base features at the config's channel
    count.

    The refinement graphs are built on first read, so a registration at
    warm-up weight 0 never builds them; a cached_property writes the
    instance __dict__ directly, which the frozen dataclass allows.
    """

    scene: SyntheticScene
    key: tuple
    clean_normals: NormalField  # (table rows, 3), zero where invalid
    base: F64
    tiles: _Members  # ground-truth pixels by image tile
    cells: _Members  # cloud points by voxel cell

    @functools.cached_property
    def pixel_graph(self) -> KnnGraph | None:
        return self._graph(self.scene.gt_correspondences.pixels)

    @functools.cached_property
    def cloud_graph(self) -> KnnGraph | None:
        return self._graph(self.scene.cloud)

    def _field(self, name: str):
        return self.key[_PREP_FIELDS.index(name)]

    def _graph(self, positions: F64) -> KnnGraph | None:
        """None below 2 nodes: refinement is skipped."""
        if positions.shape[0] < 2:
            return None
        return build_knn_graph(positions, self._field("k_neighbors"))

    def live_normals(self, corruption: CorruptionConfig) -> NormalField:
        """The lifted normals of the corrupted depth, on the table's rows.

        Only the rows the corruption keeps are lifted; a dropped row is invalid.
        """
        if corruption.gaussian_sigma_m == 0.0 and corruption.mask_ratio == 0.0:
            # the corruption would keep every row at its depth
            return self.clean_normals
        table = self.scene.table
        depths, keep = corrupt_depth(table.depths, corruption, self.scene.seed)
        lifted = lifted_pixel_normals(
            table.pixels[keep], depths[keep], self.scene.intrinsics,
            self._field("k_neighbors"), self._field("adaptive_k"),
        )
        out = np.zeros(self.clean_normals.normals.shape)
        valid = np.zeros(keep.shape, dtype=bool)
        out[keep] = lifted.normals
        valid[keep] = lifted.valid
        return NormalField(out, valid)


def _prep_key(config: PipelineConfig) -> tuple:
    return tuple(getattr(config, name) for name in _PREP_FIELDS)


def prepare_scene(scene: SyntheticScene, config: PipelineConfig) -> ScenePrep:
    """The table rows' clean lifted normals, the base features and the tile
    and voxel member indexes; the graphs wait for first use."""
    table, pixels = scene.table, scene.gt_correspondences.pixels
    cells = _Members.index(*_voxel_ids(scene.cloud, config.voxel_size))
    tiles = _Members.index(
        _tile_ids(pixels, scene.intrinsics, config.tile_rows, config.tile_cols),
        config.tile_rows * config.tile_cols,
    )
    return ScenePrep(
        scene,
        _prep_key(config),
        lifted_pixel_normals(
            table.pixels, table.depths, scene.intrinsics, config.k_neighbors, config.adaptive_k
        ),
        synth.base_features(scene, config.channels),
        tiles,
        cells,
    )


def register_scene(
    scene: SyntheticScene, config: PipelineConfig, prep: ScenePrep | None = None
) -> RegistrationResult:
    """Register one scene; prep, from prepare_scene(scene, config), is reused."""
    if prep is None:
        prep = prepare_scene(scene, config)
    elif prep.scene is not scene or prep.key != _prep_key(config):
        raise ConfigError(f"prep is for another scene or other {', '.join(_PREP_FIELDS)}")
    corruption = config.corruption()
    live_normals = prep.live_normals(corruption)
    try:
        agreement = normal_agreement(prep.clean_normals, live_normals)
    except DegenerateNeighborhoodError:
        agreement = 0.0

    pixels = scene.gt_correspondences.pixels
    gt_idx = scene.gt_correspondences.point_indices

    f_img, f_cloud = synthesize_features(scene, prep.base, corruption)
    f_img = _corrupt_guidance(f_img, f_cloud, scene, gt_idx, agreement, config)
    # normals are zero where invalid, so the channels need no mask
    img_n = live_normals.normals[scene.gt_rows]
    cloud_n = np.zeros((scene.cloud.shape[0], 3))
    cloud_n[gt_idx] = prep.clean_normals.normals[scene.gt_rows]
    weight = config.normal_channel_weight
    f_img_aug = geometry.unit_rows(np.hstack([f_img, weight * img_n]))
    f_cloud_aug = geometry.unit_rows(np.hstack([f_cloud, weight * cloud_n]))

    blend = warmup_weight(config.epoch, config.warmup())
    if blend > 0.0:
        params = GraphAttentionParams.initialize(config.channels + 3, config.param_seed)
        f_img_final = _refine(prep.pixel_graph, f_img_aug, params, blend)
        f_cloud_final = _refine(prep.cloud_graph, f_cloud_aug, params, blend)
    else:
        # at weight 0 the blend keeps the features (up to the sign of a zero)
        f_img_final, f_cloud_final = f_img_aug, f_cloud_aug

    tile_desc, tiles_present = _group_means(f_img_final, prep.tiles)
    cell_desc, cells_present = _group_means(f_cloud_final, prep.cells)
    coarse = coarse_match(cosine_score_map(tile_desc, cell_desc), config.top_k_coarse)

    # rows are scaled one at a time, so scaling once here gives every
    # pair's fine_match the rows it would scale itself
    img_unit, cloud_unit = matching.unit_features(f_img_final, f_cloud_final)
    fine = []  # (rows of pixels, point indices, scores) per coarse pair
    for t_row, c_row, _score in coarse:
        members_i = prep.tiles.of(tiles_present[t_row])
        members_j = prep.cells.of(cells_present[c_row])
        rows, cols, scores = matching.fine_match_unit(
            img_unit[members_i], cloud_unit[members_j], config.min_fine_score
        )
        fine.append((members_i[rows], members_j[cols], scores))
    patches = tuple(
        (int(tiles_present[t_row]), int(cells_present[c_row]), score)
        for t_row, c_row, score in coarse
    )

    corrs = _best_per_pixel(pixels, fine)
    estimate = pnp_ransac(
        corrs, scene.cloud, scene.intrinsics, config.ransac(seed=scene.seed)
    )
    return RegistrationResult(estimate, corrs, patches, agreement, blend)


def _best_per_pixel(pixels: F64, fine: list[tuple]) -> CorrespondenceSet:
    """Keep each pixel's best fine match across all coarse pairs.

    fine holds (rows of pixels, point indices, scores) per coarse pair, and
    pixels is the scene's ground-truth pixels, in row-major order. On an
    exact score tie the earliest emission wins. Rows come out in row
    order, which is pixel order.
    """
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    rows, points, scores = (np.concatenate(column) for column in zip(empty, *fine))
    # highest score first within a row; lexsort is stable, so among equal
    # scores the earliest emission leads
    ranked = np.lexsort((-scores, rows))
    lead = np.ones(ranked.size, dtype=bool)
    lead[1:] = rows[ranked[1:]] != rows[ranked[:-1]]
    winner = ranked[lead]
    return CorrespondenceSet(pixels[rows[winner]], points[winner], scores[winner])


def _corrupt_guidance(
    f_img: F64,
    f_cloud: F64,
    scene: SyntheticScene,
    gt_idx: np.ndarray,
    agreement: float,
    config: PipelineConfig,
) -> F64:
    """Degrade image features in proportion to the lost depth agreement.

    Two effects, both vanishing exactly when agreement == 1: isotropic
    noise that weakens correct pair scores, and a row swap that points a
    fraction of pixels at the feature of a far-away cloud point (farther
    than 3 * tau1, so an emitted swap counts as an outlier downstream).
    Swapped rows bypass the noise, keeping their wrong-pair scores flat
    across corruption levels. Draw counts are fixed by the row count, so
    sweeping corruption upward only grows the affected sets.
    """
    sigma_sup = config.guidance_noise_scale * (1.0 - agreement)
    if sigma_sup > 0.0:
        rng = synth.stream_rng("guidance", scene.seed, config.noise_seed)
        f_img = geometry.unit_rows(f_img + rng.normal(0.0, sigma_sup, f_img.shape))

    swap_p = min(1.0, config.guidance_swap_scale * (1.0 - agreement))
    if swap_p > 0.0:
        rng = synth.stream_rng("swap", scene.seed, config.noise_seed)
        m = f_img.shape[0]
        gate = rng.uniform(size=m)
        cand = rng.integers(0, scene.cloud.shape[0], size=(m, _SWAP_CANDIDATES))
        rows = np.flatnonzero(gate < swap_p)
        if rows.size:
            gaps = np.linalg.norm(
                scene.cloud[cand[rows]] - scene.cloud[gt_idx[rows]][:, None, :], axis=2
            )
            far = gaps > 3.0 * config.tau1_m
            pick = np.where(far.any(axis=1), np.argmax(far, axis=1), np.argmax(gaps, axis=1))
            f_img = f_img.copy()
            f_img[rows] = f_cloud[cand[rows, pick]]
    return f_img


def _refine(
    graph: KnnGraph | None, features: F64, params: GraphAttentionParams, blend: float
) -> F64:
    if graph is None:
        return features
    refined = gated_fusion(features, light_gat_forward(graph, features, params), params)
    return (1.0 - blend) * features + blend * refined


# --------------------------------------------------------------------------- #
#  Evaluation and ablation
# --------------------------------------------------------------------------- #


def evaluate_scene(
    scene: SyntheticScene,
    corrs: CorrespondenceSet,
    est_transform: RigidTransform,
    patches,
    config: PipelineConfig,
) -> SceneEvaluation:
    """Score one scene's registration against its stored ground truth.

    patches are the registration's coarse (tile id, cell id, score) pairs.
    Their members are recomputed from the scene under the config's tile
    grid and voxel size, which must be the ones the pairs were matched
    under. The ids come first, so a cloud too large for the voxel grid
    fails before any metric overflows.
    """
    pixels = scene.gt_correspondences.pixels
    tiles = _tile_ids(pixels, scene.intrinsics, config.tile_rows, config.tile_cols)
    cells, _ = _voxel_ids(scene.cloud, config.voxel_size)
    ir = inlier_ratio(
        corrs, scene.cloud, scene.depth, scene.intrinsics, scene.gt_transform,
        config.tau1_m,
    )
    rmse = registration_rmse(scene.cloud, est_transform, scene.gt_transform)
    pir = 0.0
    if len(patches):
        pir = patch_inlier_ratio(patch_overlap(
            [(tile, cell) for tile, cell, _score in patches], tiles, cells,
            pixels, scene.table.depths[scene.gt_rows], scene.cloud,
            scene.intrinsics, scene.gt_transform,
        ))
    rre = relative_rotation_error(scene.gt_transform.rotation, est_transform.rotation)
    rte = relative_translation_error(
        scene.gt_transform.translation, est_transform.translation
    )
    return SceneEvaluation(
        inlier_ratio=ir,
        fmr_flag=ir > config.tau2_ratio,
        rmse_m=rmse,
        rr_flag=rmse < config.tau3_m,
        pir=pir,
        rre_deg=rre,
        rte_m=rte,
    )


_NUMERIC_FIELDS = ("inlier_ratio", "rmse_m", "pir", "rre_deg", "rte_m")


def evaluation_report(evaluations: list[SceneEvaluation]) -> dict:
    """Per-scene rows plus mean/median aggregates, ready for JSON."""
    if not evaluations:
        raise LengthMismatchError("no scenes to aggregate")
    scenes = [
        {f.name: getattr(ev, f.name) for f in fields(SceneEvaluation)}
        for ev in evaluations
    ]
    mean = {
        name: float(np.mean([getattr(ev, name) for ev in evaluations]))
        for name in _NUMERIC_FIELDS
    }
    mean["feature_matching_recall"] = float(
        np.mean([ev.fmr_flag for ev in evaluations])
    )
    mean["registration_recall"] = float(np.mean([ev.rr_flag for ev in evaluations]))
    median = {
        name: float(np.median([getattr(ev, name) for ev in evaluations]))
        for name in _NUMERIC_FIELDS
    }
    return {"scenes": scenes, "mean": mean, "median": median}


def apply_sweep_setting(config: PipelineConfig, sweep: str, value) -> PipelineConfig:
    """config with the sweep's field set to value, coerced as a config value."""
    if sweep not in _SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep '{sweep}', expected one of {SWEEP_NAMES}")
    key = _SWEEP_FIELDS[sweep]
    return config.replace(**{key: PipelineConfig._coerce(key, value)})


def parallel_map(fn, tasks, jobs: int) -> list:
    """[fn(t) for t in tasks], in forked worker processes when jobs > 1.

    Never starts more workers than there are tasks; results keep task order.
    """
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # imported here: it costs a serial run several ms of import time
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
        return pool.map(fn, tasks)


def _sweep_scene(task) -> list[tuple[float, float]]:
    """(IR, RMSE) of scene `index` per tuned config; one prep per run of equal keys."""
    tuned, index = task
    scene = generate_scene(tuned[0].scene_spec(), seed=tuned[0].base_seed + index)
    prep = None
    scores = []
    for cfg in tuned:
        if prep is None or prep.key != _prep_key(cfg):
            prep = prepare_scene(scene, cfg)
        # A setting harsh enough to break pose recovery still yields a row:
        # the scene scores zero inliers and an unbounded RMSE (a recall miss).
        try:
            result = register_scene(scene, cfg, prep)
            scores.append((
                inlier_ratio(
                    result.correspondences, scene.cloud, scene.depth,
                    scene.intrinsics, scene.gt_transform, cfg.tau1_m,
                ),
                registration_rmse(scene.cloud, result.estimate.transform, scene.gt_transform),
            ))
        except REGISTRATION_FAILURES:
            scores.append((0.0, np.inf))
    return scores


def ablation_rows(
    config: PipelineConfig, sweep: str, values, jobs: int = 1
) -> list[tuple[float, float, float, float]]:
    """One (setting, mean IR, FMR, RR) row per sweep value."""
    values = list(values)
    if not values:
        raise ConfigError("ablation sweep needs at least one value")
    # every value is checked before any scene is registered
    tuned = [apply_sweep_setting(config, sweep, v) for v in values]
    per_scene = parallel_map(
        _sweep_scene, [(tuned, i) for i in range(config.scene_count)], jobs
    )
    rows = []
    for value, cfg, scores in zip(values, tuned, zip(*per_scene)):
        irs, rmses = zip(*scores)  # scene order
        rows.append((
            float(value), float(np.mean(irs)),
            feature_matching_recall(irs, cfg.tau2_ratio),
            registration_recall(rmses, cfg.tau3_m),
        ))
    return rows
