"""End-to-end registration: corruption, features, refinement, matching, pose.

The register flow mirrors a trained system at desk scale, and
register_scene is the list of its stages. _normals lifts the corrupted
depth and scores the normals' agreement with the clean ones. _features
gives both sides weighted normal channels, the image side guidance noise
that grows as the agreement falls, and blends in the shared
graph-attention refinement by the warm-up weight. coarse_match pairs
image tiles with voxel cells, _fine matches within each pair and keeps
each pixel's best match, and pnp_ransac fits the pose.

With zero corruption every stage is exact: agreement is 1, guidance
noise vanishes, both sides of a ground-truth pair carry identical rows,
and the emitted correspondences reproduce the ground truth.

No work is done whose result would be discarded, and none is repeated.
The refinement runs only at a positive warm-up weight, on graphs built
on first use and kept with the scene's prep. Registration and evaluation
read the scene's pixel table, never a 640x480 raster: the depth stages
work on its rows (about 1.9k at the default size), and inlier_ratio
looks its depths up in it. The stand-in's base features are drawn once
per prep. Each side's feature matrix, normal channels included, is
allocated once and scaled to unit rows in place (synthesize_features
writes the image rows straight into the first columns of theirs), so
each coarse pair's fine matching is a slice, a product and a mutual
argmax.

Registration reads the observation (table pixels and depths, cloud,
intrinsics, seed) plus synth.StandIn, the only ground-truth reader, which
stands in for trained backbones: the rows registered, the features and their
corruption, the cloud's normal channels. Evaluation scores its patch pairs.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from . import _settings, geometry, matching, normals, synth
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
    StandIn,
    SyntheticScene,
    corrupt_depth,
    generate_scene,
    synthesize_features,
)

# sweep name -> (the config field it sets, its default values)
_SWEEPS = {
    "gaussian_sigma": ("gaussian_sigma_m", (0.0, 0.005, 0.01, 0.015)),
    "mask_ratio": ("mask_ratio", (0.0, 0.1, 0.2, 0.3, 0.4)),
    "k": ("k_neighbors", (2, 4, 8, 16)),
    "warmup": ("epoch", (0, 5, 15, 25)),
}
SWEEP_NAMES = tuple(_SWEEPS)
SWEEP_DEFAULTS: dict[str, tuple] = {name: values for name, (_, values) in _SWEEPS.items()}

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
    "point_normals",
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


@_settings.one_field_per_setting
class PipelineConfig:
    """Every knob of the end-to-end flow, flat and strictly validated: one
    field per key of the config table, _settings.SETTINGS, with its default."""

    def __post_init__(self) -> None:
        _settings.check_fields(self)
        if self.tile_rows * self.tile_cols > 2**63:  # tile ids run to rows * cols - 1
            raise ConfigError(f"tile grid {self.tile_rows}x{self.tile_cols} overflows int64 ids")
        self.warmup()  # its end >= start rule

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "PipelineConfig":
        unknown = sorted(set(mapping) - set(_settings.SETTINGS))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**{key: _settings.check(key, raw) for key, raw in mapping.items()})

    def replace(self, **updates) -> "PipelineConfig":
        return dataclasses.replace(self, **updates)

    def _part(self, cls, **given):
        """cls with each setting field taken from this config's field of its key."""
        taken = {f.name: getattr(self, f.metadata["key"]) for f in fields(cls) if f.metadata}
        return cls(**(taken | given))

    def corruption(self) -> CorruptionConfig:
        return self._part(CorruptionConfig)

    def ransac(self, seed: int) -> RansacConfig:
        return self._part(RansacConfig, seed=seed)

    def warmup(self) -> WarmupSchedule:
        return self._part(WarmupSchedule)

    def loss_weights(self) -> LossWeights:
        return self._part(LossWeights)

    def scene_spec(self) -> SceneSpec:
        return self._part(SceneSpec)


# --------------------------------------------------------------------------- #
#  Geometry-aware feature construction
# --------------------------------------------------------------------------- #


def point_normals(points: F64, k: int, adaptive: bool) -> NormalField:
    """Covariance normals of points over as many neighbours as normal_ks
    gives for k: a density-adaptive fit when adaptive, else a plain one."""
    k_norm = normals.normal_ks(k, adaptive)[0]
    if adaptive:
        return estimate_point_normals_adaptive(points, k0=k_norm)
    return estimate_point_normals(points, k_norm)


def lifted_pixel_normals(
    uv: F64, depths: F64, intrinsics: CameraIntrinsics, k: int, adaptive: bool
) -> NormalField:
    """(rows, 3) point_normals of pixels uv lifted to 3D at their depths, zero
    where invalid; all invalid with no more pixels than the fit's largest k."""
    if depths.size <= normals.normal_ks(k, adaptive)[1]:
        return NormalField(np.zeros((depths.size, 3)), np.zeros(depths.size, dtype=bool))
    return point_normals(backproject_pixels(intrinsics, uv, depths), k, adaptive)


def _tile_ids(pixels: F64, intrinsics: CameraIntrinsics, rows: int, cols: int) -> np.ndarray:
    tile_w = intrinsics.width / cols
    tile_h = intrinsics.height / rows
    cu = np.minimum((pixels[:, 0] // tile_w).astype(np.int64), cols - 1)
    cv = np.minimum((pixels[:, 1] // tile_h).astype(np.int64), rows - 1)
    return cv * cols + cu


def _patch_ids(
    pixels: F64, points: F64, intrinsics: CameraIntrinsics, config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(tile id of each pixel, (N, 3) voxel cell of each point): the patches
    registration matches and evaluation scores."""
    tiles = _tile_ids(pixels, intrinsics, config.tile_rows, config.tile_cols)
    with np.errstate(over="ignore"):
        floors = np.floor(points / config.voxel_size)
    # int64 holds exactly the floors in [-2^63, 2^63); casting any other
    # value would silently merge cells
    if not np.all((floors >= -(2.0**63)) & (floors < 2.0**63)):
        raise CoordinateOverflowError(
            f"points too large for voxel_size {config.voxel_size!r}: cell ids overflow int64"
        )
    return tiles, floors.astype(np.int64)


@dataclass(frozen=True)
class _Members:
    """Rows grouped by id, one group per id present, ascending: group g holds
    the rows of id ids[g], ascending, as order[offsets[g]:offsets[g + 1]].
    A voxel cell's id is its group, as np.unique(axis=0) numbers the cells."""

    order: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray

    @classmethod
    def index(cls, keys: np.ndarray) -> tuple["_Members", np.ndarray]:
        """The groups of keys, (N,) ids or (N, 3) cells, and each row's group."""
        order = np.argsort(keys, kind="stable") if keys.ndim == 1 else np.lexsort(keys.T[::-1])
        ranked = (keys if keys.ndim == 2 else keys[:, None])[order]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
        first = np.flatnonzero(starts)
        group = np.empty(order.size, dtype=np.int64)
        group[order] = np.cumsum(starts) - 1
        ids = ranked[first, 0] if keys.ndim == 1 else np.arange(first.size)
        return cls(order, np.append(first, order.size), ids), group

    def of(self, group) -> np.ndarray:
        return self.order[self.offsets[group]:self.offsets[group + 1]]


def _group_means(features: F64, groups: _Members) -> F64:
    """Mean feature per group, in group order.

    Each group's rows are summed in row order onto +0.0, as np.add.at
    accumulates them, so the means match it to the bit. numpy sums a
    one-column block pairwise, so one column is summed by cumsum instead.
    """
    sums = np.zeros((groups.ids.size, features.shape[1]))
    for group in range(groups.ids.size):
        rows = features[groups.of(group)]
        sums[group] += rows.sum(axis=0) if rows.shape[1] > 1 else rows.cumsum(axis=0)[-1]
    return sums / np.diff(groups.offsets)[:, None].astype(np.float64)


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
    """The work of a registration fixed by its scene and _PREP_FIELDS alone, and
    the last cloud side, which _features keys by the other fields it reads.

    Registration works on the rows of the scene's pixel table, never on
    the image grid: clean_normals holds one lifted normal per table row.
    stand_in, at the config's channel count, names the rows registered;
    a prep passed to register_scene keeps its guidance and swap draws for
    the registrations to come.

    The refinement graphs are built on first read, so a registration at
    warm-up weight 0 never builds them; a cached_property, like synth.memo,
    writes the instance __dict__ directly, which the frozen dataclass allows.
    """

    scene: SyntheticScene
    key: tuple
    clean_normals: NormalField  # (table rows, 3), zero where invalid
    stand_in: StandIn
    tiles: _Members  # the rows registered, by image tile
    cells: _Members  # cloud points by voxel cell

    @functools.cached_property
    def pixel_graph(self) -> KnnGraph | None:
        return self._graph(self.scene.table.pixels[self.stand_in.rows])

    @functools.cached_property
    def cloud_graph(self) -> KnnGraph | None:
        return self._graph(self.scene.cloud)

    def _graph(self, positions: F64) -> KnnGraph | None:
        """None below 2 nodes: refinement is skipped."""
        if positions.shape[0] < 2:
            return None
        return build_knn_graph(positions, self.key[_PREP_FIELDS.index("k_neighbors")])


def _prep_key(config: PipelineConfig) -> tuple:
    return tuple(getattr(config, name) for name in _PREP_FIELDS)


def prepare_scene(scene: SyntheticScene, config: PipelineConfig) -> ScenePrep:
    """The table rows' clean lifted normals, the stand-in and the tile and
    voxel member indexes; the graphs wait for first use."""
    table = scene.table
    clean = lifted_pixel_normals(
        table.pixels, table.depths, scene.intrinsics, config.k_neighbors, config.adaptive_k
    )
    # drawn after the normals, so the base vectors do not add to their peak
    stand_in = StandIn.of(scene, config.channels)
    tiles, cells = _patch_ids(
        table.pixels[stand_in.rows], scene.cloud, scene.intrinsics, config
    )
    groups = (_Members.index(tiles)[0], _Members.index(cells)[0])
    return ScenePrep(scene, _prep_key(config), clean, stand_in, *groups)


def register_scene(
    scene: SyntheticScene, config: PipelineConfig, prep: ScenePrep | None = None
) -> RegistrationResult:
    """Register one scene; prep, from prepare_scene(scene, config), is reused."""
    one_shot = prep is None
    if one_shot:
        prep = prepare_scene(scene, config)
    elif prep.scene is not scene or prep.key != _prep_key(config):
        raise ConfigError(f"prep is for another scene or other {', '.join(_PREP_FIELDS)}")
    corruption = config.corruption()
    live_normals, agreement = _normals(prep, corruption, config)
    (tile_desc, img_unit), (cell_desc, cloud_unit), blend = _features(
        prep, corruption, config, live_normals, agreement, one_shot
    )
    coarse = coarse_match(cosine_score_map(tile_desc, cell_desc), config.top_k_coarse)
    corrs, patches = _fine(prep, coarse, img_unit, cloud_unit, config.min_fine_score)
    estimate = pnp_ransac(corrs, scene.cloud, scene.intrinsics, config.ransac(seed=scene.seed))
    return RegistrationResult(estimate, corrs, patches, agreement, blend)


def _normals(prep: ScenePrep, corruption: CorruptionConfig,
             config: PipelineConfig) -> tuple[NormalField, float]:
    """(live normals, agreement): the lifted normals of the corrupted depth on the
    table's rows, and their agreement with the clean ones, 0 where undefined.

    Only the rows the corruption keeps are lifted; a dropped row is invalid. A
    corruption that keeps every row at its depth reuses the clean normals.
    """
    scene = prep.scene
    live = prep.clean_normals
    if corruption.gaussian_sigma_m != 0.0 or corruption.mask_ratio != 0.0:
        depths, keep = corrupt_depth(scene.table.depths, corruption, scene.seed)
        lifted = lifted_pixel_normals(scene.table.pixels[keep], depths[keep],
                                      scene.intrinsics, config.k_neighbors, config.adaptive_k)
        normals = np.zeros(live.normals.shape)
        valid = np.zeros(keep.shape, dtype=bool)
        normals[keep] = lifted.normals
        valid[keep] = lifted.valid
        live = NormalField(normals, valid)
    try:
        return live, normal_agreement(prep.clean_normals, live)
    except DegenerateNeighborhoodError:
        return live, 0.0


def _features(prep: ScenePrep, corruption: CorruptionConfig, config: PipelineConfig,
              live: NormalField, agreement: float, one_shot: bool) -> tuple[tuple, tuple, float]:
    """(image side, cloud side, blend): _side of each side's stand-in rows with
    normal channels, refined at a positive warm-up blend over the prep's graphs,
    which are built before the features are drawn. Each side is one
    _with_normals matrix: synthesize_features writes the image rows straight
    into the first C columns of theirs. A one-shot hands
    synthesize_features a copy of the stand-in, whose draws go when it returns.
    The prep keeps the last cloud side, keyed by the values it reads beyond
    _PREP_FIELDS; f_cloud (the stand-in's read-only base when noise-free) goes
    unused while it holds."""
    weight = config.normal_channel_weight
    blend = warmup_weight(config.epoch, config.warmup())
    params = pixel_graph = cloud_graph = None
    if blend > 0.0:
        params = GraphAttentionParams.initialize(config.channels + 3, config.param_seed)
        pixel_graph = prep.pixel_graph
        cloud_graph = prep.cloud_graph
    img = _with_normals(live.normals[prep.stand_in.rows], config.channels, weight)
    _, f_cloud = synthesize_features(
        dataclasses.replace(prep.stand_in) if one_shot else prep.stand_in, corruption, agreement,
        out=img[:, :-3],
    )
    img_side = _side(img, prep.tiles, pixel_graph, params, blend)
    key = (corruption.feature_noise_sigma, corruption.seed, weight, blend,
           config.param_seed if blend > 0.0 else None)

    def cloud_side() -> tuple[F64, F64]:
        rows = _with_normals(prep.stand_in.cloud_normals(prep.clean_normals.normals),
                             config.channels, weight)
        rows[:, :-3] = f_cloud
        return _side(rows, prep.cells, cloud_graph, params, blend)

    return img_side, synth.memo(prep, "cloud_side", key, cloud_side), blend


def _fine(prep: ScenePrep, coarse, img_unit: F64, cloud_unit: F64,
          min_score: float) -> tuple[CorrespondenceSet, tuple]:
    """(each registered pixel's best fine match, the coarse pairs as (tile id,
    cell id, score) patches): fine_match_unit matches each pair's tile and cell
    groups, in pair order. A row keeps its best score so far and that score's
    point; only a strictly higher score replaces them, so on an exact tie the
    earliest pair wins. Rows come out in row order, which is pixel order."""
    best = np.full(img_unit.shape[0], -np.inf)
    points = np.zeros(img_unit.shape[0], dtype=np.int64)
    patches = []
    for t_row, c_row, score in coarse:
        members_i, members_j = prep.tiles.of(t_row), prep.cells.of(c_row)
        rows, cols, scores = matching.fine_match_unit(
            img_unit[members_i], cloud_unit[members_j], min_score
        )
        better = scores > best[members_i[rows]]
        rows = members_i[rows[better]]
        best[rows] = scores[better]
        points[rows] = members_j[cols[better]]
        patches.append((int(prep.tiles.ids[t_row]), int(prep.cells.ids[c_row]), score))
    matched = np.flatnonzero(best > -np.inf)
    pixels = prep.scene.table.pixels[prep.stand_in.rows[matched]]
    return CorrespondenceSet(pixels, points[matched], best[matched]), tuple(patches)


def _with_normals(normals: F64, channels: int, weight: float) -> F64:
    """A fresh (rows, channels + 3) matrix whose last 3 columns are normals (zero
    where invalid) at weight; the caller writes the features into the rest."""
    rows = np.empty((normals.shape[0], channels + 3))
    np.multiply(weight, normals, out=rows[:, -3:])
    return rows


def _side(rows: F64, groups: _Members, graph: KnnGraph | None,
          params: GraphAttentionParams | None, blend: float) -> tuple[F64, F64]:
    """(group means, unit rows) of rows, a side's one (rows, C + 3) matrix,
    scaled to unit length in place and refined over graph unless it is None;
    the refined rows are scaled in place again after their means. Fine
    matching may slice the unit rows."""
    geometry.unit_rows(rows, out=rows)
    if graph is not None:
        rows = _refine(graph, rows, params, blend)
    means = _group_means(rows, groups)
    return means, geometry.unit_rows(rows, out=rows)


def _refine(graph: KnnGraph, features: F64, params: GraphAttentionParams, blend: float) -> F64:
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
    Their members' ids come from _patch_ids under the config's tile grid
    and voxel size, which must be the ones the pairs were matched under, on
    the ground-truth rows, which a StandIn registers.
    The ids and a coordinate check come first, so a cloud too large for the
    voxel grid, or a cloud or translation past geometry.COORDINATE_LIMIT,
    fails before any metric overflows.
    """
    pixels = scene.gt_correspondences.pixels
    tiles, cells = _patch_ids(pixels, scene.cloud, scene.intrinsics, config)
    for values, name in (
        (scene.cloud, "cloud"),
        (scene.gt_transform.translation, "true translation"),
        (est_transform.translation, "estimated translation"),
    ):
        geometry.check_coordinates(values, name)
    ir, rmse = _score(scene, corrs, est_transform, config.tau1_m)
    pir = 0.0
    if len(patches):
        pir = patch_inlier_ratio(patch_overlap(
            [(tile, cell) for tile, cell, _score in patches], tiles, _Members.index(cells)[1],
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


def _score(
    scene: SyntheticScene, corrs: CorrespondenceSet, est: RigidTransform, tau1: float
) -> tuple[float, float]:
    """(inlier ratio, RMSE) of a registration against the scene's ground truth."""
    gt = scene.gt_transform
    ir = inlier_ratio(corrs, scene.cloud, scene.table, scene.intrinsics, gt, tau1)
    return ir, registration_rmse(scene.cloud, est, gt)


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
        name: geometry.median([getattr(ev, name) for ev in evaluations])
        for name in _NUMERIC_FIELDS
    }
    return {"scenes": scenes, "mean": mean, "median": median}


def apply_sweep_setting(config: PipelineConfig, sweep: str, value) -> PipelineConfig:
    """config with the sweep's field set to value, checked as a config value."""
    if sweep not in _SWEEPS:
        raise ConfigError(f"unknown sweep '{sweep}', expected one of {SWEEP_NAMES}")
    key = _SWEEPS[sweep][0]
    return config.replace(**{key: _settings.check(key, value)})


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
            scores.append(_score(
                scene, result.correspondences, result.estimate.transform, cfg.tau1_m
            ))
        except REGISTRATION_FAILURES:
            scores.append((0.0, np.inf))
    return scores


def ablation_rows(
    config: PipelineConfig, sweep: str, values, jobs: int = 1
) -> list[tuple[float, float, float, float]]:
    """One (setting, mean IR, FMR, RR) row per sweep value."""
    jobs = _settings.check("jobs", jobs)
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
