"""Acceptance suite: one test per shipping criterion.

Every check pins a public contract at its stated tolerance, so pytest -v
prints a single pass/fail line per criterion. Where a criterion calls for
an oracle, the oracle here is coded independently (scalar loops, explicit
sorts, closed forms) rather than by calling the function under test twice.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from crossreg.cli import main as cli_main
from crossreg.geometry import (
    CameraIntrinsics,
    RigidTransform,
    backproject_pixels,
    project_points,
    rotation_from_axis_angle,
)
from crossreg.graph import (
    GraphAttentionParams,
    build_knn_graph,
    knn_indices,
    light_gat_forward,
)
from crossreg.losses import (
    CircleLossConfig,
    WarmupSchedule,
    circle_loss,
    gdc_loss,
    normal_consistency_loss,
    warmup_weight,
)
from crossreg.matching import (
    CorrespondenceSet,
    PatchPair,
    coarse_match,
    cosine_score_map,
    fine_match,
)
from crossreg.metrics import (
    feature_matching_recall,
    inlier_ratio,
    patch_inlier_ratio,
    registration_recall,
    registration_rmse,
    relative_rotation_error,
    relative_translation_error,
)
from crossreg.normals import (
    DepthMap,
    NormalField,
    depth_to_normals,
    estimate_point_normals,
    metric_normals_from_depth,
)
from crossreg.pipeline import (
    PipelineConfig,
    ablation_rows,
    evaluate_scene,
    register_scene,
)
from crossreg.pose import RansacConfig, pnp_ransac
from crossreg.synth import generate_scene


# --------------------------------------------------------------------------- #
#  Shared fixtures and helpers
# --------------------------------------------------------------------------- #


def _fibonacci_sphere(count: int) -> np.ndarray:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * math.pi * i / golden
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _angles_to(normals: np.ndarray, reference: np.ndarray) -> np.ndarray:
    dots = np.abs(np.einsum("nc,nc->n", normals, reference))
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _max_sign_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-row distance between a and b, allowing a per-row sign flip."""
    direct = np.linalg.norm(a - b, axis=-1)
    flipped = np.linalg.norm(a + b, axis=-1)
    return float(np.minimum(direct, flipped).max())


def _unit_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    rows = rng.normal(size=shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _tangent_rows(rng: np.random.Generator, anchors: np.ndarray) -> np.ndarray:
    """Unit rows orthogonal to the anchors, so anchor + eps * row stays unit
    to within eps^2/2 and row-norm validation keeps passing at eps = 1e-5."""
    raw = rng.normal(size=anchors.shape)
    raw -= np.einsum("...c,...c->...", raw, anchors)[..., None] * anchors
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


# --------------------------------------------------------------------------- #
#  1. point normal estimation
# --------------------------------------------------------------------------- #


def test_criterion_01_point_normal_estimation():
    rng = np.random.default_rng(11)

    # planar clouds: every estimated normal within 1e-6 rad of the plane normal
    for _ in range(5):
        plane_normal = _unit_rows(rng, (3,))
        seed_axis = np.eye(3)[np.argmin(np.abs(plane_normal))]
        t1 = np.cross(plane_normal, seed_axis)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(plane_normal, t1)
        coeffs = rng.uniform(-1.0, 1.0, (300, 2))
        points = rng.normal(size=3) + coeffs[:, :1] * t1 + coeffs[:, 1:] * t2
        field = estimate_point_normals(points, k=8)
        assert field.valid.all()
        assert _angles_to(field.normals, np.tile(plane_normal, (300, 1))).max() < 1e-6

    # noiseless unit sphere, 2000 points, k = 8: median error under one degree
    sphere = _fibonacci_sphere(2000)
    start = time.perf_counter()
    base = estimate_point_normals(sphere, k=8)
    elapsed = time.perf_counter() - start
    assert base.valid.all()
    errors = _angles_to(base.normals, sphere)
    assert float(np.median(errors)) < math.radians(1.0)
    assert elapsed < 1.0

    # invariance up to sign: rotation, translation, scale
    rot = rotation_from_axis_angle(np.array([0.3, -0.2, 0.5]))
    rotated = estimate_point_normals(sphere @ rot.T, k=8)
    assert rotated.valid.all()
    assert _max_sign_gap(rotated.normals, base.normals @ rot.T) < 1e-6

    shifted = estimate_point_normals(sphere + np.array([0.4, -1.2, 2.0]), k=8)
    assert shifted.valid.all()
    assert _max_sign_gap(shifted.normals, base.normals) < 1e-6

    scaled = estimate_point_normals(2.7 * sphere, k=8)
    assert scaled.valid.all()
    assert _max_sign_gap(scaled.normals, base.normals) < 1e-6


# --------------------------------------------------------------------------- #
#  2. depth-map normals
# --------------------------------------------------------------------------- #


def test_criterion_02_depth_normal_closed_forms():
    h, w = 24, 32
    intr = CameraIntrinsics(fx=90.0, fy=70.0, cx=15.5, cy=11.5, width=w, height=h)

    # constant depth: pixel-space normal (0, 0, 1), metric normal (0, 0, -1)
    flat = DepthMap.from_values(np.full((h, w), 2.5))
    field = depth_to_normals(flat)
    assert field.valid[1:-1, 1:-1].all()
    assert np.abs(field.normals[field.valid] - [0.0, 0.0, 1.0]).max() < 1e-9
    metric = metric_normals_from_depth(flat, intr)
    assert metric.valid[1:-1, 1:-1].all()
    assert np.abs(metric.normals[metric.valid] - [0.0, 0.0, -1.0]).max() < 1e-9

    # ramps: the two-pixel stencil reports gradient 2s, so the closed form
    # for depth a + s*u is normalize((-2s, 0, 1)); likewise along v
    for base, slope in ((20.0, 0.5), (20.0, -0.3), (5.0, 0.0625)):
        vals = base + slope * np.arange(w)[None, :] + np.zeros((h, 1))
        ramp = depth_to_normals(DepthMap.from_values(vals))
        expect = np.array([-2.0 * slope, 0.0, 1.0])
        expect /= np.linalg.norm(expect)
        assert ramp.valid[1:-1, 1:-1].all()
        assert np.abs(ramp.normals[ramp.valid] - expect).max() < 1e-9
    for base, slope in ((10.0, 0.25), (18.0, -0.4)):
        vals = base + slope * np.arange(h)[:, None] + np.zeros((1, w))
        ramp = depth_to_normals(DepthMap.from_values(vals))
        expect = np.array([0.0, -2.0 * slope, 1.0])
        expect /= np.linalg.norm(expect)
        assert np.abs(ramp.normals[ramp.valid] - expect).max() < 1e-9

    # mixed ramp
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    mixed = depth_to_normals(DepthMap.from_values(6.0 + 0.04 * uu + 0.03 * vv))
    expect = np.array([-0.08, -0.06, 1.0])
    expect /= np.linalg.norm(expect)
    assert np.abs(mixed.normals[mixed.valid] - expect).max() < 1e-9

    # offset invariance, exact: dyadic depths keep the shifted differences
    # bit-identical, so the fields must match bit for bit
    rng = np.random.default_rng(2)
    vals = 2.0 + rng.integers(0, 512, (h, w)).astype(np.float64) / 256.0
    plain = depth_to_normals(DepthMap.from_values(vals))
    offset = depth_to_normals(DepthMap.from_values(vals + 5.25))
    assert np.array_equal(plain.valid, offset.valid)
    assert np.array_equal(plain.normals, offset.normals)


# --------------------------------------------------------------------------- #
#  3. analytic gradients vs central finite differences
# --------------------------------------------------------------------------- #


def _rel_gap(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(numeric), 1e-9)


def test_criterion_03_loss_gradient_checks():
    rng = np.random.default_rng(33)
    eps = 1e-5
    start = time.perf_counter()

    checks = 0
    for _ in range(12):
        h, w = int(rng.integers(3, 33)), int(rng.integers(3, 33))
        mask_p = rng.random((h, w)) < 0.85
        mask_t = rng.random((h, w)) < 0.85
        mask_p[0, 0] = mask_t[0, 0] = True
        pred = np.zeros((h, w, 3))
        pred[mask_p] = _unit_rows(rng, (int(mask_p.sum()), 3))
        targ = np.zeros((h, w, 3))
        targ[mask_t] = _unit_rows(rng, (int(mask_t.sum()), 3))
        predicted = NormalField(pred, mask_p)
        target = NormalField(targ, mask_t)

        _, grad = normal_consistency_loss(predicted, target)
        direction = np.zeros_like(pred)
        direction[mask_p] = _tangent_rows(rng, pred[mask_p])
        up = normal_consistency_loss(NormalField(pred + eps * direction, mask_p), target)[0]
        down = normal_consistency_loss(NormalField(pred - eps * direction, mask_p), target)[0]
        assert _rel_gap(float(np.sum(grad * direction)), (up - down) / (2.0 * eps)) < 1e-4
        checks += 1

    for _ in range(12):
        m, c = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        f_img = _unit_rows(rng, (m, c))
        f_cloud = _unit_rows(rng, (m, c))
        _, g_img, g_cloud = gdc_loss(f_img, f_cloud)

        d_img = _tangent_rows(rng, f_img)
        up = gdc_loss(f_img + eps * d_img, f_cloud)[0]
        down = gdc_loss(f_img - eps * d_img, f_cloud)[0]
        assert _rel_gap(float(np.sum(g_img * d_img)), (up - down) / (2.0 * eps)) < 1e-4

        d_cloud = _tangent_rows(rng, f_cloud)
        up = gdc_loss(f_img, f_cloud + eps * d_cloud)[0]
        down = gdc_loss(f_img, f_cloud - eps * d_cloud)[0]
        assert _rel_gap(float(np.sum(g_cloud * d_cloud)), (up - down) / (2.0 * eps)) < 1e-4
        checks += 1

    assert checks >= 20
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------- #
#  4. loss anchor values
# --------------------------------------------------------------------------- #


def test_criterion_04_loss_anchor_values():
    rng = np.random.default_rng(44)

    # identical normalized inputs: similarity structures cancel exactly
    same = _unit_rows(rng, (5, 7))
    assert gdc_loss(same, same)[0] == 0.0

    # 2x2 anchor, confirmed entry by entry with plain loops
    f_img = np.array([[1.0, 0.0], [0.0, 1.0]])
    f_cloud = np.array([[1.0, 0.0], [1.0, 0.0]])
    expected = 0.0
    for i in range(2):
        for j in range(2):
            s_img = sum(f_img[i][k] * f_img[j][k] for k in range(2))
            s_cloud = sum(f_cloud[i][k] * f_cloud[j][k] for k in range(2))
            expected += (s_img - s_cloud) ** 2
    assert expected == 2.0
    assert gdc_loss(f_img, f_cloud)[0] == 2.0

    # nothing to contrast: empty positive or negative side
    assert circle_loss([], [0.5, 1.2]) == 0.0
    assert circle_loss([0.2], []) == 0.0

    # log-sum-exp form vs the naive product-of-sums form
    for gamma in (24.0, 4.0, 1.0):
        cfg = CircleLossConfig(gamma=gamma)
        pos = rng.uniform(0.0, 1.8, 8)
        neg = rng.uniform(0.0, 1.8, 11)
        lam_p = rng.uniform(0.5, 2.0, 8)
        lam_n = rng.uniform(0.5, 2.0, 11)
        sum_p = sum(
            math.exp(cfg.gamma * lp * (p - cfg.delta_p) ** 2) for p, lp in zip(pos, lam_p)
        )
        sum_n = sum(
            math.exp(cfg.gamma * ln * (cfg.delta_n - n) ** 2) for n, ln in zip(neg, lam_n)
        )
        naive = math.log(1.0 + sum_p * sum_n) / cfg.gamma
        assert math.isfinite(naive)
        lib = circle_loss(pos, neg, cfg, pos_weights=lam_p, neg_weights=lam_n)
        assert abs(lib - naive) < 1e-9


# --------------------------------------------------------------------------- #
#  5. neighbor and matching brute-force oracles
# --------------------------------------------------------------------------- #


def _knn_oracle(points: np.ndarray, k: int) -> np.ndarray:
    n = points.shape[0]
    k_eff = min(k, n - 1)
    sq = np.einsum("nd,nd->n", points, points)
    out = np.empty((n, k_eff), dtype=np.int64)
    for i in range(n):
        d2i = sq[i] + sq - 2.0 * (points @ points[i])
        pairs = [(max(float(d2i[j]), 0.0), j) for j in range(n) if j != i]
        pairs.sort()
        out[i] = [j for _, j in pairs[:k_eff]]
    return out


def _coarse_oracle(scores: np.ndarray, top_k: int) -> list[tuple[int, int, float]]:
    n_rows, n_cols = scores.shape
    k_row = min(top_k, n_cols)
    k_col = min(top_k, n_rows)
    row_top = [
        set(sorted(range(n_cols), key=lambda j: (-scores[i, j], j))[:k_row])
        for i in range(n_rows)
    ]
    col_top = [
        set(sorted(range(n_rows), key=lambda i: (-scores[i, j], i))[:k_col])
        for j in range(n_cols)
    ]
    pairs = [
        (i, j, float(scores[i, j]))
        for i in range(n_rows)
        for j in range(n_cols)
        if j in row_top[i] and i in col_top[j]
    ]
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    return pairs


def _fine_oracle(
    scores: np.ndarray, pixels: np.ndarray, indices: np.ndarray, min_score: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_rows, n_cols = scores.shape
    row_best = [max(range(n_cols), key=lambda j: (scores[i, j], -j)) for i in range(n_rows)]
    col_best = [max(range(n_rows), key=lambda i: (scores[i, j], -i)) for j in range(n_cols)]
    keep = [
        i
        for i in range(n_rows)
        if col_best[row_best[i]] == i and scores[i, row_best[i]] >= min_score
    ]
    return (
        pixels[keep],
        indices[[row_best[i] for i in keep]],
        scores[keep, [row_best[i] for i in keep]],
    )


def test_criterion_05_matching_brute_force_oracles():
    rng = np.random.default_rng(55)

    for trial in range(100):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(1, 9))
        if trial % 2 == 0:
            pts = rng.normal(size=(n, 3))
        else:
            # coarse integer grid: plenty of exact distance ties
            pts = rng.integers(0, 5, (n, 3)).astype(np.float64)
        assert np.array_equal(knn_indices(pts, k), _knn_oracle(pts, k))

    for trial in range(100):
        n_rows = int(rng.integers(1, 41))
        n_cols = int(rng.integers(1, 41))
        top_k = int(rng.integers(1, 6))
        if trial % 2 == 0:
            scores = rng.normal(size=(n_rows, n_cols))
        else:
            scores = rng.integers(0, 6, (n_rows, n_cols)).astype(np.float64) / 5.0
        assert coarse_match(scores, top_k) == _coarse_oracle(scores, top_k)

    for trial in range(100):
        m = int(rng.integers(2, 61))
        q = int(rng.integers(2, 61))
        c = int(rng.integers(2, 17))
        f_img = rng.normal(size=(m, c))
        f_cloud = rng.normal(size=(q, c))
        if trial % 3 == 0:  # duplicated cloud rows force argmax ties
            f_cloud[q // 2] = f_cloud[0]
        pixels = rng.uniform(0.0, 50.0, (m, 2))
        indices = rng.integers(0, 500, q)
        min_score = float(rng.uniform(-0.2, 0.6)) if trial % 2 else 0.0

        scores = cosine_score_map(f_img, f_cloud)
        got = fine_match(f_img, f_cloud, pixels, indices, min_score)
        want_pix, want_idx, want_scores = _fine_oracle(scores, pixels, indices, min_score)
        assert np.array_equal(got.pixels, want_pix)
        assert np.array_equal(got.point_indices, want_idx)
        assert np.array_equal(got.scores, want_scores)


# --------------------------------------------------------------------------- #
#  6. graph attention properties
# --------------------------------------------------------------------------- #


def _attention_oracle(graph, feats: np.ndarray, params: GraphAttentionParams) -> np.ndarray:
    n = graph.node_count
    out = np.zeros((n, params.channels))
    scale = math.sqrt(params.channels)
    for i in range(n):
        q_i = params.query_proj @ feats[i]
        neigh = graph.neighbor_indices[i]
        scores = [float(np.dot(q_i, params.key_proj @ feats[j])) / scale for j in neigh]
        shift = max(scores)
        weights = [math.exp(s - shift) for s in scores]
        total = sum(weights)
        acc = np.zeros(params.channels)
        for w_ij, j in zip(weights, neigh):
            acc += (w_ij / total) * (params.value_proj @ feats[j])
        out[i] = acc
    return out


def test_criterion_06_attention_properties():
    rng = np.random.default_rng(66)

    # attention rows sum to 1: with an identity value projection and one
    # shared feature row f, every output must be (sum of weights) * f = f
    for seed in (0, 1, 2):
        params = GraphAttentionParams.initialize(12, seed=seed)
        params = dataclasses.replace(params, value_proj=np.eye(12))
        row = rng.normal(size=12)
        assert float(np.linalg.norm(row)) > 0.1
        feats = np.tile(row, (30, 1))
        graph = build_knn_graph(rng.normal(size=(30, 3)), k=5)
        out = light_gat_forward(graph, feats, params)
        np.testing.assert_allclose(out, feats, rtol=0.0, atol=1e-9)

    # permutation equivariance, exact up to reindexing
    positions = rng.normal(size=(50, 3))
    feats = rng.normal(size=(50, 16))
    params = GraphAttentionParams.initialize(16, seed=7)
    out = light_gat_forward(build_knn_graph(positions, k=7), feats, params)
    perm = rng.permutation(50)
    out_perm = light_gat_forward(build_knn_graph(positions[perm], k=7), feats[perm], params)
    assert np.array_equal(out_perm, out[perm])

    # naive double-loop reference
    for trial in range(5):
        graph = build_knn_graph(rng.normal(size=(40, 3)), k=6)
        feats = rng.normal(size=(40, 16))
        params = GraphAttentionParams.initialize(16, seed=100 + trial)
        got = light_gat_forward(graph, feats, params)
        np.testing.assert_allclose(got, _attention_oracle(graph, feats, params), atol=1e-10)


# --------------------------------------------------------------------------- #
#  7. pose recovery
# --------------------------------------------------------------------------- #

_POSE_INTR = CameraIntrinsics(fx=480.0, fy=460.0, cx=319.5, cy=239.5, width=640, height=480)


def _pose_fixture(rng: np.random.Generator, count: int):
    u = rng.uniform(4.0, _POSE_INTR.width - 4.0, count)
    v = rng.uniform(4.0, _POSE_INTR.height - 4.0, count)
    z = rng.uniform(2.0, 6.0, count)
    camera_pts = backproject_pixels(_POSE_INTR, np.stack([u, v], axis=1), z)
    axis = _unit_rows(rng, (3,))
    gt = RigidTransform(
        rotation_from_axis_angle(axis * rng.uniform(0.1, 0.5)),
        rng.uniform(-0.5, 0.5, 3),
    )
    cloud = gt.inverse().apply(camera_pts)
    pixels = project_points(_POSE_INTR, camera_pts)
    return cloud, pixels, gt


def test_criterion_07_pose_recovery():
    rng = np.random.default_rng(77)

    # noiseless: at least 50 correspondences, sub-0.1-degree / sub-mm recovery
    for trial in range(5):
        cloud, pixels, gt = _pose_fixture(rng, 60)
        corrs = CorrespondenceSet(pixels, np.arange(60), np.ones(60))
        est = pnp_ransac(corrs, cloud, _POSE_INTR, RansacConfig(seed=trial))
        assert relative_rotation_error(gt.rotation, est.transform.rotation) < 0.1
        assert relative_translation_error(gt.translation, est.transform.translation) < 1e-3
        assert est.inlier_mask.all()

    # 30% planted outliers: pose to the same tolerance and the exact mask
    successes = 0
    worst = 0.0
    for trial in range(100):
        trial_rng = np.random.default_rng(7700 + trial)
        cloud, pixels, gt = _pose_fixture(trial_rng, 120)
        planted = np.zeros(120, dtype=bool)
        planted[trial_rng.choice(120, 36, replace=False)] = True
        shift_dir = _unit_rows(trial_rng, (36, 2))
        pixels = pixels.copy()
        pixels[planted] += shift_dir * trial_rng.uniform(30.0, 120.0, (36, 1))
        corrs = CorrespondenceSet(pixels, np.arange(120), np.ones(120))

        start = time.perf_counter()
        est = pnp_ransac(corrs, cloud, _POSE_INTR, RansacConfig(seed=trial))
        worst = max(worst, time.perf_counter() - start)
        ok_pose = (
            relative_rotation_error(gt.rotation, est.transform.rotation) < 0.1
            and relative_translation_error(gt.translation, est.transform.translation) < 1e-3
        )
        if ok_pose and np.array_equal(est.inlier_mask, ~planted):
            successes += 1
    assert successes >= 95, f"{successes}/100 trials recovered pose and exact mask"
    assert worst < 5.0


# --------------------------------------------------------------------------- #
#  8. metric suite vs scalar-loop oracles
# --------------------------------------------------------------------------- #

_METRIC_INTR = CameraIntrinsics(fx=105.0, fy=95.0, cx=12.5, cy=9.5, width=26, height=20)


def _inlier_ratio_oracle(corrs, cloud, depth, intr, gt, tau1) -> float:
    hits = 0
    for (u, v), point_idx in zip(corrs.pixels, corrs.point_indices):
        d = float(depth.values[round(float(v)), round(float(u))])
        lifted = (
            (float(u) - intr.cx) * d / intr.fx,
            (float(v) - intr.cy) * d / intr.fy,
            d,
        )
        p = cloud[point_idx]
        moved = [
            sum(float(gt.rotation[r, c]) * float(p[c]) for c in range(3))
            + float(gt.translation[r])
            for r in range(3)
        ]
        gap = math.sqrt(sum((m - l) ** 2 for m, l in zip(moved, lifted)))
        hits += gap < tau1
    return hits / len(corrs)


def _euler_oracle(m: np.ndarray) -> tuple[float, float, float]:
    sb = min(1.0, max(-1.0, float(m[0, 2])))
    b = math.asin(sb)
    if abs(sb) > 1.0 - 1e-9:
        return math.atan2(float(m[2, 1]), float(m[1, 1])), b, 0.0
    a = math.atan2(-float(m[1, 2]), float(m[2, 2]))
    c = math.atan2(-float(m[0, 1]), float(m[0, 0]))
    return a, b, c


def _rre_oracle(gt_rot: np.ndarray, est_rot: np.ndarray) -> float:
    rel = [
        [sum(float(gt_rot[k, i]) * float(est_rot[k, j]) for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    a, b, c = _euler_oracle(np.array(rel))
    return math.degrees(abs(a) + abs(b) + abs(c))


def _random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    return rotation_from_axis_angle(_unit_rows(rng, (3,)) * rng.uniform(0.0, max_angle))


def test_criterion_08_metric_scalar_oracles():
    rng = np.random.default_rng(88)
    h, w = _METRIC_INTR.height, _METRIC_INTR.width

    for _ in range(100):
        depth = DepthMap.from_values(rng.uniform(0.8, 4.0, (h, w)))
        cloud = rng.normal(scale=1.2, size=(40, 3)) + np.array([0.0, 0.0, 3.0])
        n_corr = int(rng.integers(5, 26))
        pixels = np.stack(
            [rng.uniform(0.0, w - 1.0, n_corr), rng.uniform(0.0, h - 1.0, n_corr)], axis=1
        )
        corrs = CorrespondenceSet(
            pixels, rng.integers(0, 40, n_corr), np.ones(n_corr)
        )
        gt = RigidTransform(_random_rotation(rng, 0.6), rng.uniform(-0.4, 0.4, 3))
        tau1 = float(rng.uniform(0.3, 2.0))
        got = inlier_ratio(corrs, cloud, depth, _METRIC_INTR, gt, tau1)
        assert abs(got - _inlier_ratio_oracle(corrs, cloud, depth, _METRIC_INTR, gt, tau1)) < 1e-12

        irs = rng.uniform(0.0, 1.0, int(rng.integers(1, 30)))
        tau2 = float(rng.uniform(0.05, 0.9))
        want = sum(1 for r in irs if r > tau2) / irs.size
        assert abs(feature_matching_recall(irs, tau2) - want) < 1e-12

        pts = rng.normal(size=(30, 3))
        est_t = RigidTransform(_random_rotation(rng, 0.5), rng.uniform(-0.3, 0.3, 3))
        gt_t = RigidTransform(_random_rotation(rng, 0.5), rng.uniform(-0.3, 0.3, 3))
        acc = 0.0
        for p in pts:
            ev = [
                sum(float(est_t.rotation[r, c]) * float(p[c]) for c in range(3))
                + float(est_t.translation[r])
                for r in range(3)
            ]
            gv = [
                sum(float(gt_t.rotation[r, c]) * float(p[c]) for c in range(3))
                + float(gt_t.translation[r])
                for r in range(3)
            ]
            acc += sum((e - g) ** 2 for e, g in zip(ev, gv))
        want = math.sqrt(acc / 30.0)
        assert abs(registration_rmse(pts, est_t, gt_t) - want) < 1e-12

        rmses = rng.uniform(0.0, 0.3, int(rng.integers(1, 30)))
        tau3 = float(rng.uniform(0.02, 0.25))
        want = sum(1 for r in rmses if r < tau3) / rmses.size
        assert abs(registration_recall(rmses, tau3) - want) < 1e-12

        pairs = [
            PatchPair(i, i, float(rng.uniform()), float(rng.uniform())) for i in range(12)
        ]
        thr = float(rng.uniform(0.1, 0.9))
        want = sum(1 for p in pairs if min(p.overlap_2d, p.overlap_3d) > thr) / 12.0
        assert abs(patch_inlier_ratio(pairs, thr) - want) < 1e-12

        rot_a = _random_rotation(rng, 2.0)
        rot_b = _random_rotation(rng, 2.0)
        assert abs(relative_rotation_error(rot_a, rot_b) - _rre_oracle(rot_a, rot_b)) < 1e-12

        t_a = rng.uniform(-2.0, 2.0, 3)
        t_b = rng.uniform(-2.0, 2.0, 3)
        want = math.sqrt(sum((x - y) ** 2 for x, y in zip(t_a, t_b)))
        assert abs(relative_translation_error(t_a, t_b) - want) < 1e-12

    # strict-inequality boundaries: a gap exactly at the threshold is out.
    # tau = 0.25 is a power of two, so sqrt(tau^2) reproduces tau exactly.
    tau = 0.25
    d = 2.0
    depth = DepthMap.from_values(np.full((h, w), d))
    pix = np.array([[_METRIC_INTR.cx, _METRIC_INTR.cy]] * 4)
    lifted = np.array([0.0, 0.0, d])
    cloud = np.stack(
        [
            lifted,
            lifted + np.array([tau, 0.0, 0.0]),
            lifted + np.array([tau - 0.1, 0.0, 0.0]),
            lifted + np.array([tau + 0.25, 0.0, 0.0]),
        ]
    )
    corrs = CorrespondenceSet(pix, np.arange(4), np.ones(4))
    identity = RigidTransform(np.eye(3), np.zeros(3))
    assert inlier_ratio(corrs, cloud, depth, _METRIC_INTR, identity, tau) == 0.5
    boundary_only = CorrespondenceSet(pix[:1], np.array([1]), np.ones(1))
    assert inlier_ratio(boundary_only, cloud, depth, _METRIC_INTR, identity, tau) == 0.0

    assert feature_matching_recall([0.1], 0.1) == 0.0
    assert feature_matching_recall([float(np.nextafter(0.1, 1.0))], 0.1) == 1.0
    assert registration_recall([0.1], 0.1) == 0.0
    assert registration_recall([float(np.nextafter(0.1, 0.0))], 0.1) == 1.0
    assert patch_inlier_ratio([PatchPair(0, 0, 0.3, 0.8)], 0.3) == 0.0
    assert patch_inlier_ratio([PatchPair(0, 0, float(np.nextafter(0.3, 1.0)), 0.8)], 0.3) == 1.0


# --------------------------------------------------------------------------- #
#  9. end-to-end noiseless batch
# --------------------------------------------------------------------------- #


def test_criterion_09_end_to_end_noiseless_batch():
    config = PipelineConfig()  # tau1 = 0.05, tau2 = 0.1, tau3 = 0.1, 20 scenes
    start = time.perf_counter()
    irs, rmses = [], []
    for i in range(config.scene_count):
        scene = generate_scene(config.scene_spec(), seed=config.base_seed + i)
        result = register_scene(scene, config)
        ev = evaluate_scene(scene, result.correspondences, result.estimate.transform,
                            result.patches, config)
        irs.append(ev.inlier_ratio)
        rmses.append(ev.rmse_m)
    elapsed = time.perf_counter() - start

    assert all(ir == 1.0 for ir in irs)
    assert feature_matching_recall(irs, config.tau2_ratio) == 1.0
    assert registration_recall(rmses, config.tau3_m) == 1.0
    assert elapsed < 60.0


# --------------------------------------------------------------------------- #
#  10. corruption sweeps reproduce the degradation trend
# --------------------------------------------------------------------------- #


def _assert_non_increasing(values: list[float], label: str, slack: float = 0.02):
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + slack, f"{label} rose {prev:.4f} -> {cur:.4f} in {values}"


def test_criterion_10_corruption_trend():
    config = PipelineConfig()
    sigma_rows = ablation_rows(config, "gaussian_sigma", [0.0, 0.005, 0.01, 0.015])
    _assert_non_increasing([r[1] for r in sigma_rows], "sigma-sweep IR")
    _assert_non_increasing([r[3] for r in sigma_rows], "sigma-sweep RR")

    mask_rows = ablation_rows(config, "mask_ratio", [0.0, 0.1, 0.2, 0.3, 0.4])
    _assert_non_increasing([r[1] for r in mask_rows], "mask-sweep IR")
    _assert_non_increasing([r[3] for r in mask_rows], "mask-sweep RR")


# --------------------------------------------------------------------------- #
#  11. warm-up schedule
# --------------------------------------------------------------------------- #


def test_criterion_11_warmup_schedule():
    ramp = WarmupSchedule(start=10, end=20)
    assert warmup_weight(5, ramp) == 0.0
    assert warmup_weight(15, ramp) == 0.5
    assert warmup_weight(25, ramp) == 1.0

    step = WarmupSchedule(start=7, end=7)
    assert warmup_weight(6, step) == 0.0
    assert warmup_weight(7, step) == 1.0
    assert warmup_weight(8, step) == 1.0


# --------------------------------------------------------------------------- #
#  12. byte-identical reruns of every CLI command
# --------------------------------------------------------------------------- #

_SMALL = ["--set", "point_count=600", "--set", "scene_count=2"]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_12_cli_determinism(tmp_path):
    scenes = tmp_path / "scenes"
    assert cli_main(["synth", "--out", str(scenes), *_SMALL]) == 0

    def run_twice_dir(name: str, argv_for) -> None:
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(argv_for(out_a)) == 0
        assert cli_main(argv_for(out_b)) == 0
        tree_a, tree_b = _tree_bytes(out_a), _tree_bytes(out_b)
        assert tree_a.keys() == tree_b.keys()
        assert tree_a == tree_b, f"{name} rerun differed"

    def run_twice_file(name: str, argv_for) -> None:
        out_a, out_b = tmp_path / f"{name}_a.out", tmp_path / f"{name}_b.out"
        assert cli_main(argv_for(out_a)) == 0
        assert cli_main(argv_for(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"{name} rerun differed"

    run_twice_dir("synth", lambda out: ["synth", "--out", str(out), *_SMALL])
    scene0 = str(scenes / "scene_0000")
    run_twice_dir(
        "register", lambda out: ["register", "--scene", scene0, "--out", str(out), *_SMALL]
    )

    results = tmp_path / "results"
    for i in range(2):
        assert cli_main(
            ["register", "--scene", str(scenes / f"scene_{i:04d}"),
             "--out", str(results / f"scene_{i:04d}"), *_SMALL]
        ) == 0
    run_twice_file(
        "eval",
        lambda out: ["eval", "--scenes", str(scenes), "--results", str(results),
                     "--out", str(out), *_SMALL],
    )
    run_twice_file(
        "ablate",
        lambda out: ["ablate", "--sweep", "mask_ratio", "--values", "[0.0, 0.2]",
                     "--out", str(out), *_SMALL],
    )
    run_twice_dir(
        "normals", lambda out: ["normals", "--scene", scene0, "--out", str(out), *_SMALL]
    )
    run_twice_file("losses", lambda out: ["losses", "--out", str(out), *_SMALL])

    # the eval reports of two register passes over the same bundles agree too
    report = json.loads((tmp_path / "eval_a.out").read_text())
    assert report["mean"]["inlier_ratio"] == 1.0
