"""Registration's row stages against the dense grid code they replace.

The normal stage once ran on full image grids: corrupt the (H, W) depth,
lift every valid pixel of it into an (H, W, 3) normal field, and compare
two such fields. The dense_* oracles below keep those bodies; the dense
corruption spreads its per-pixel draws over the grid with a boolean mask,
which takes the valid pixels in row-major order. The row stage corrupts
and lifts the depth's valid pixels only, and must give the same bytes at
every row. Fine matching once scaled each coarse pair's
rows itself; registration now scales all rows once, and each pair's step
must give fine_match's bytes on the raw rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossreg.matching as matching
import crossreg.pipeline as pipeline
from crossreg.geometry import CameraIntrinsics, RigidTransform, backproject_pixels
from crossreg.graph import build_knn_graph
from crossreg.matching import CorrespondenceSet, fine_match
from crossreg.normals import (
    DepthMap,
    NormalField,
    estimate_point_normals,
    estimate_point_normals_adaptive,
    normal_ks,
)
from crossreg.pipeline import PipelineConfig, lifted_pixel_normals, prepare_scene
from crossreg.synth import (
    STREAM_TAGS,
    CorruptionConfig,
    PixelTable,
    SyntheticScene,
    corrupt_depth,
    generate_scene,
)
from rasters import depth_raster

SMALL_K = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0, width=32, height=24)


# --------------------------------------------------------------------------- #
#  Dense oracles: the grid bodies of the normal stage
# --------------------------------------------------------------------------- #


def dense_corrupt_depth(depth: DepthMap, cfg: CorruptionConfig, scene_seed: int) -> DepthMap:
    noise_seq, mask_seq = np.random.SeedSequence(
        (scene_seed, cfg.seed, STREAM_TAGS["depth_corruption"])
    ).spawn(2)
    values = depth.values.copy()
    valid = depth.valid.copy()
    count = int(valid.sum())
    if cfg.gaussian_sigma_m > 0.0:
        noise = np.random.default_rng(noise_seq).normal(0.0, cfg.gaussian_sigma_m, count)
        values[depth.valid] += noise
    if cfg.mask_ratio > 0.0:
        valid[depth.valid] = np.random.default_rng(mask_seq).random(count) >= cfg.mask_ratio
    valid &= np.isfinite(values) & (values > 0.0)
    return DepthMap(np.where(valid, values, np.nan), valid)


def dense_lifted_pixel_normals(
    depth: DepthMap, intrinsics: CameraIntrinsics, k: int, adaptive: bool = False
) -> NormalField:
    h, w = depth.shape
    grid = np.zeros((h, w, 3))
    mask = np.zeros((h, w), dtype=bool)
    vs, us = np.nonzero(depth.valid)
    k_norm, k_fit = normal_ks(k, adaptive)
    if us.size > k_fit:
        uv = np.column_stack([us, vs]).astype(np.float64)
        pts = backproject_pixels(intrinsics, uv, depth.values[vs, us])
        if adaptive:
            estimated = estimate_point_normals_adaptive(pts, k0=k_norm)
        else:
            estimated = estimate_point_normals(pts, k_norm)
        grid[vs, us] = np.where(estimated.valid[:, None], estimated.normals, 0.0)
        mask[vs, us] = estimated.valid
    return NormalField(grid, mask)


def dense_agreement(clean: NormalField, live: NormalField) -> float:
    """The grid agreement as registration scored it: 0 without clean support."""
    ref_mask = clean.valid
    if not np.any(ref_mask):
        return 0.0
    both = ref_mask & live.valid
    dots = np.zeros(ref_mask.shape)
    dots[both] = np.einsum("nc,nc->n", clean.normals[both], live.normals[both])
    return float(dots[ref_mask].mean())


# --------------------------------------------------------------------------- #
#  The row normal stage
# --------------------------------------------------------------------------- #


def scene_on_depth(values: np.ndarray, gt_cells: np.ndarray, seed: int) -> SyntheticScene:
    """A scene over SMALL_K whose ground-truth pixels are gt_cells (flat,
    ascending) of a depth map that may hold more valid pixels; the other
    pixels' rows carry point index -1."""
    cells = np.flatnonzero(np.isfinite(values) & (values > 0.0))
    pixels = np.column_stack([cells % SMALL_K.width, cells // SMALL_K.width]).astype(np.float64)
    depths = values.flat[cells]
    is_gt = np.isin(cells, gt_cells)
    indices = np.full(cells.size, -1)
    indices[is_gt] = np.arange(gt_cells.size)
    cloud = backproject_pixels(SMALL_K, pixels[is_gt], depths[is_gt])
    table = PixelTable(SMALL_K.width, SMALL_K.height, pixels, depths, indices)
    return SyntheticScene(cloud, table, SMALL_K, RigidTransform(np.eye(3), np.zeros(3)), seed)


@st.composite
def row_cases(draw):
    """A sparse depth map, a ground-truth subset of its pixels, and a config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = SMALL_K.width * SMALL_K.height
    count = draw(st.integers(1, 120))
    valid_cells = np.sort(rng.choice(cells, size=count, replace=False))
    values = np.full((SMALL_K.height, SMALL_K.width), np.nan)
    values.flat[valid_cells] = rng.uniform(1.5, 3.0, count)
    gt = valid_cells[rng.uniform(size=count) < draw(st.sampled_from([1.0, 0.7]))]
    if gt.size == 0:
        gt = valid_cells[:1]
    sigma = draw(st.sampled_from([0.0, 0.005, 0.05, 2.0]))
    mask = draw(st.sampled_from([0.0, 0.2, 0.9, 1.0]))
    cfg = PipelineConfig(
        k_neighbors=draw(st.sampled_from([2, 4, 8])),
        adaptive_k=draw(st.booleans()),
        gaussian_sigma_m=sigma,
        mask_ratio=mask,
        noise_seed=draw(st.integers(0, 5)),
        channels=4,
    )
    return values, gt, cfg, draw(st.integers(0, 100))


def assert_rows_of_grid(rows: NormalField, grid: NormalField, depth: DepthMap) -> None:
    vs, us = np.nonzero(depth.valid)
    assert rows.normals.tobytes() == grid.normals[vs, us].tobytes()
    assert rows.valid.tobytes() == grid.valid[vs, us].tobytes()
    assert not grid.valid[~depth.valid].any()


# the cases named below, then drawn ones: sigma only, mask only, both,
# every pixel masked, at most k_fit survivors, adaptive, and depth pixels
# that are not ground-truth pixels
_VALUES = np.full((SMALL_K.height, SMALL_K.width), np.nan)
_VALUES.flat[np.arange(0, 768, 7)] = np.linspace(1.5, 3.0, 110)
_GT = np.arange(0, 768, 7)[::2]


@settings(max_examples=60)
@example(case=(_VALUES, _GT, PipelineConfig(gaussian_sigma_m=0.01, channels=4), 0))
@example(case=(_VALUES, _GT, PipelineConfig(mask_ratio=0.3, channels=4), 1))
@example(case=(_VALUES, _GT, PipelineConfig(
    gaussian_sigma_m=0.01, mask_ratio=0.3, adaptive_k=True, channels=4), 2))
@example(case=(_VALUES, _GT, PipelineConfig(mask_ratio=1.0, channels=4), 3))
@example(case=(_VALUES, _GT, PipelineConfig(mask_ratio=0.92, noise_seed=1, channels=4), 4))
@given(case=row_cases())
def test_row_normal_stage_matches_dense_grids(case):
    values, gt, cfg, seed = case
    scene = scene_on_depth(values, gt, seed)
    corruption = cfg.corruption()
    k, adaptive = cfg.k_neighbors, cfg.adaptive_k
    prep = prepare_scene(scene, cfg)
    live, agreement = pipeline._normals(prep, corruption, cfg)

    depth = depth_raster(scene.table)
    dense_live_depth = dense_corrupt_depth(depth, corruption, seed)
    dense_clean = dense_lifted_pixel_normals(depth, SMALL_K, k, adaptive)
    dense_live = dense_lifted_pixel_normals(dense_live_depth, SMALL_K, k, adaptive)
    assert_rows_of_grid(prep.clean_normals, dense_clean, depth)
    assert_rows_of_grid(live, dense_live, depth)
    assert np.float64(agreement).tobytes() == np.float64(
        dense_agreement(dense_clean, dense_live)
    ).tobytes()

    # each row stage, called alone, gives the dense bytes at its rows
    depths, keep = corrupt_depth(scene.table.depths, corruption, seed)
    vs, us = np.nonzero(depth.valid)
    assert keep.tobytes() == dense_live_depth.valid[vs, us].tobytes()
    assert depths[keep].tobytes() == dense_live_depth.values[vs[keep], us[keep]].tobytes()
    got = lifted_pixel_normals(scene.table.pixels[keep], depths[keep], SMALL_K, k, adaptive)
    assert_rows_of_grid(got, dense_live, dense_live_depth)


def test_examples_cover_the_named_cases():
    # at most k_fit survivors: mask 0.92 on 110 pixels keeps 8 at noise
    # seed 1 in the scene of seed 4
    depth = DepthMap.from_values(_VALUES)
    kept = dense_corrupt_depth(depth, CorruptionConfig(mask_ratio=0.92, seed=1), 4).valid.sum()
    assert 0 < kept <= normal_ks(8, False)[1]
    assert dense_corrupt_depth(depth, CorruptionConfig(mask_ratio=1.0), 3).valid.sum() == 0
    assert 0 < _GT.size < depth.valid.sum()


@pytest.mark.parametrize("seed", [0, 3])
def test_ground_truth_rows_name_their_pixels(seed):
    scene = generate_scene(PipelineConfig(point_count=600).scene_spec(), seed=seed)
    table = scene.table
    pixels = scene.gt_correspondences.pixels
    assert table.pixels[scene.gt_rows].tobytes() == pixels.tobytes()
    assert table.depths[scene.gt_rows].tobytes() == depth_raster(table).values[
        pixels[:, 1].astype(np.int64), pixels[:, 0].astype(np.int64)
    ].tobytes()
    # a generated scene's ground truth covers every depth pixel, in the
    # same order; a partial one leaves rows at -1
    assert np.array_equal(scene.gt_rows, np.arange(len(table)))
    partial = scene_on_depth(_VALUES, _GT, seed)
    assert np.array_equal(
        partial.table.pixels[partial.gt_rows], partial.gt_correspondences.pixels
    )
    assert np.count_nonzero(partial.table.point_indices == -1) == len(partial.table) - _GT.size


# --------------------------------------------------------------------------- #
#  Fine matching on rows scaled once
# --------------------------------------------------------------------------- #


@st.composite
def fine_pairs(draw):
    """Raw rows, not unit, with duplicated cloud rows and zero rows, a pair
    of member subsets, and a score floor that may equal an emitted score."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(2, 6))
    n_img, n_cloud = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    f_img = rng.standard_normal((n_img, c)) * rng.uniform(0.1, 5.0, (n_img, 1))
    distinct = rng.standard_normal((max(1, n_cloud // 2), c))
    f_cloud = distinct[rng.integers(0, distinct.shape[0], n_cloud)]
    f_cloud = f_cloud * rng.choice([0.5, 1.0, 3.0], (n_cloud, 1))
    if draw(st.booleans()):
        f_img[rng.integers(0, n_img)] = 0.0
    members_i = np.flatnonzero(rng.uniform(size=n_img) < 0.7)
    members_j = np.flatnonzero(rng.uniform(size=n_cloud) < 0.7)
    pixels = rng.integers(0, 50, (n_img, 2)).astype(np.float64)
    floor = draw(st.sampled_from(["emitted", -1.0, 0.0, 0.5]))
    if floor == "emitted":
        emitted = fine_match(
            f_img[members_i], f_cloud[members_j], pixels[members_i], members_j, -1.0
        ).scores
        floor = float(emitted[rng.integers(0, emitted.size)]) if emitted.size else 0.0
    return f_img, f_cloud, pixels, members_i, members_j, floor


def assert_same_matches(got: CorrespondenceSet, want: CorrespondenceSet) -> None:
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert got.point_indices.tobytes() == want.point_indices.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()


@settings(max_examples=200)
@given(case=fine_pairs())
def test_pair_step_on_rows_scaled_once_is_fine_match(case):
    f_img, f_cloud, pixels, members_i, members_j, floor = case
    img, cloud = matching.unit_features(f_img, f_cloud)
    rows, cols, scores = matching.fine_match_unit(img[members_i], cloud[members_j], floor)
    got = CorrespondenceSet(pixels[members_i][rows], members_j[cols], scores)
    want = fine_match(f_img[members_i], f_cloud[members_j], pixels[members_i], members_j, floor)
    assert_same_matches(got, want)


@pytest.mark.parametrize("epoch", [15, 25])
def test_registration_pairs_at_positive_blend_are_fine_match(monkeypatch, epoch):
    # at a positive warm-up weight the refined rows are not unit
    cfg = PipelineConfig(point_count=600, epoch=epoch, gaussian_sigma_m=0.005)
    scene = generate_scene(cfg.scene_spec(), seed=2)
    refined, calls = [], []
    refine, fine_match_unit = pipeline._refine, matching.fine_match_unit

    def spy_refine(graph, features, params, blend):
        out = refine(graph, features, params, blend)
        refined.append((graph, out.copy()))  # registration scales out in place
        return out

    def spy_fine(img, cloud, min_score):
        out = fine_match_unit(img, cloud, min_score)
        calls.append((min_score, out))
        return out

    monkeypatch.setattr(pipeline, "_refine", spy_refine)
    monkeypatch.setattr(matching, "fine_match_unit", spy_fine)
    prep = prepare_scene(scene, cfg)
    result = pipeline.register_scene(scene, cfg, prep)
    monkeypatch.undo()  # fine_match below calls fine_match_unit
    # the refined rows of each side, which registration scales to unit rows
    f_img, f_cloud = (
        next(out for graph, out in refined
             if np.array_equal(graph.neighbor_indices, side.neighbor_indices))
        for side in (build_knn_graph(positions, cfg.k_neighbors)
                     for positions in (scene.table.pixels[prep.stand_in.rows], scene.cloud))
    )
    assert f_img.shape == (len(scene.gt_correspondences), cfg.channels + 3)
    norms = np.linalg.norm(f_img, axis=1)
    assert np.abs(norms - 1.0).max() > 1e-3
    gt = scene.gt_correspondences.pixels
    # one fine step per coarse pair, in the order of the pairs
    assert calls and len(calls) == len(result.patches)
    for (tile, cell, _score), (min_score, (rows, cols, scores)) in zip(result.patches, calls):
        members_i = prep.tiles.of(np.searchsorted(prep.tiles.ids, tile))
        members_j = prep.cells.of(np.searchsorted(prep.cells.ids, cell))
        got = CorrespondenceSet(gt[members_i][rows], members_j[cols], scores)
        want = fine_match(f_img[members_i], f_cloud[members_j], gt[members_i], members_j, min_score)
        assert_same_matches(got, want)
