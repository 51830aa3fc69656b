"""PnP and RANSAC on forward-projected synthetic geometry."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossreg.errors import (
    ConfigError,
    DegenerateConfigurationError,
    InsufficientPointsError,
    NoConsensusError,
)
from crossreg.geometry import CameraIntrinsics, RigidTransform, rotation_from_axis_angle
from crossreg.matching import CorrespondenceSet
from crossreg import pose
from crossreg.pipeline import PipelineConfig, register_scene
from crossreg.pose import PoseEstimate, RansacConfig, pnp_ransac, pnp_solve
from crossreg.synth import generate_scene

K = CameraIntrinsics(fx=500.0, fy=480.0, cx=320.0, cy=240.0, width=640, height=480)


def rotation_angle_deg(r: np.ndarray) -> float:
    c = (np.trace(r) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def make_instance(seed: int, n: int = 8, spread: float = 1.0):
    """Ground-truth pose + cloud whose transform lands in front of the camera."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis *= rng.uniform(0.1, 0.6) / np.linalg.norm(axis)
    rot = rotation_from_axis_angle(axis)
    tra = rng.uniform(-0.4, 0.4, 3)
    gt = RigidTransform(rot, tra)
    cam_pts = np.column_stack(
        [
            rng.uniform(-spread, spread, n),
            rng.uniform(-0.75 * spread, 0.75 * spread, n),
            rng.uniform(1.5, 4.0, n),
        ]
    )
    cloud = gt.inverse().apply(cam_pts)
    obs = np.empty((n, 2))
    obs[:, 0] = K.fx * cam_pts[:, 0] / cam_pts[:, 2] + K.cx
    obs[:, 1] = K.fy * cam_pts[:, 1] / cam_pts[:, 2] + K.cy
    corrs = CorrespondenceSet(obs, np.arange(n), np.ones(n))
    return gt, cloud, corrs, rng


class TestPnpSolve:
    def test_noiseless_recovery_tight(self):
        for seed in range(20):
            gt, cloud, corrs, _ = make_instance(seed, n=8)
            est = pnp_solve(corrs, cloud, K)
            rot_err_rad = math.radians(rotation_angle_deg(gt.rotation.T @ est.rotation))
            tra_err = float(np.linalg.norm(est.translation - gt.translation))
            assert rot_err_rad < 1e-6, seed
            assert tra_err < 1e-8, seed

    @given(
        axis_angle=hnp.arrays(np.float64, 3, elements=st.floats(-3.0, 3.0)),
        translation=hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
        n=st.integers(6, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noiseless_round_trip(self, axis_angle, translation, n, seed):
        # any proper pose (angles up to 3 * sqrt(3) rad cover every
        # rotation); random camera-frame points in a box in front of the camera
        rng = np.random.default_rng(seed)
        cam = rng.uniform([-1.0, -0.75, 1.5], [1.0, 0.75, 4.0], (n, 3))
        sv = np.linalg.svd(cam - cam.mean(axis=0), compute_uv=False)
        assume(sv[2] > 0.1 * sv[0])  # well away from coplanar
        gt = RigidTransform(rotation_from_axis_angle(axis_angle), translation)
        obs = np.column_stack([
            K.fx * cam[:, 0] / cam[:, 2] + K.cx, K.fy * cam[:, 1] / cam[:, 2] + K.cy,
        ])
        corrs = CorrespondenceSet(obs, np.arange(n), np.ones(n))
        est = pnp_solve(corrs, gt.inverse().apply(cam), K)
        assert rotation_angle_deg(gt.rotation.T @ est.rotation) < math.degrees(1e-6)
        assert float(np.linalg.norm(est.translation - gt.translation)) < 1e-6

    def test_noisy_observations_stay_close(self):
        gt, cloud, corrs, rng = make_instance(100, n=40)
        noisy = CorrespondenceSet(
            corrs.pixels + rng.normal(0, 0.5, corrs.pixels.shape),
            corrs.point_indices,
            corrs.scores,
        )
        est = pnp_solve(noisy, cloud, K)
        assert rotation_angle_deg(gt.rotation.T @ est.rotation) < 0.5
        assert np.linalg.norm(est.translation - gt.translation) < 0.02

    def test_coplanar_points_degenerate(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), np.full(10, 2.0)]
        )
        obs = np.empty((10, 2))
        obs[:, 0] = K.fx * pts[:, 0] / pts[:, 2] + K.cx
        obs[:, 1] = K.fy * pts[:, 1] / pts[:, 2] + K.cy
        corrs = CorrespondenceSet(obs, np.arange(10), np.ones(10))
        with pytest.raises(DegenerateConfigurationError):
            pnp_solve(corrs, pts, K)

    def test_collinear_points_degenerate(self):
        ts = np.linspace(-0.5, 0.5, 8)
        pts = np.column_stack([ts, 0.2 * ts, 2.0 + ts])
        obs = np.empty((8, 2))
        obs[:, 0] = K.fx * pts[:, 0] / pts[:, 2] + K.cx
        obs[:, 1] = K.fy * pts[:, 1] / pts[:, 2] + K.cy
        corrs = CorrespondenceSet(obs, np.arange(8), np.ones(8))
        with pytest.raises(DegenerateConfigurationError):
            pnp_solve(corrs, pts, K)

    def test_too_few_points(self):
        gt, cloud, corrs, _ = make_instance(3, n=5)
        with pytest.raises(InsufficientPointsError):
            pnp_solve(corrs, cloud, K)

    @pytest.mark.parametrize("n", [6, 7, 40, 866, 1500])
    def test_thin_svd_matches_full(self, monkeypatch, n):
        # the DLT reads only sv and vt, which the thin SVD gives bit for bit
        gt, cloud, corrs, rng = make_instance(n, n=n)
        obs = corrs.pixels + rng.normal(0.0, 0.5, corrs.pixels.shape)
        thin = pose._dlt_pose(cloud, obs, K)
        full_svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, full_matrices=True: full_svd(a, full_matrices=True)
        )
        full = pose._dlt_pose(cloud, obs, K)
        for got, want in zip(thin, full):
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_of_a_large_solve(self):
        # a full SVD of the 3000 x 12 DLT system builds a 3000 x 3000 U (69 MB)
        gt, cloud, corrs, _ = make_instance(5, n=1500)
        tracemalloc.start()
        try:
            est = pnp_solve(corrs, cloud, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert float(np.linalg.norm(est.translation - gt.translation)) < 1e-8


class TestSolve:
    @staticmethod
    def noisy_views(behind: bool):
        # ten camera-frame points, the first 2 m behind the camera if asked,
        # seen at the identity pose with half-pixel noise
        rng = np.random.default_rng(3)
        cam = rng.uniform([-1.0, -0.75, 1.5], [1.0, 0.75, 4.0], (10, 3))
        if behind:
            cam[0] = [0.5, 0.3, -2.0]
        obs = np.column_stack([
            K.fx * cam[:, 0] / cam[:, 2] + K.cx, K.fy * cam[:, 1] / cam[:, 2] + K.cy,
        ])
        return cam, obs + rng.normal(0.0, 0.5, obs.shape)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("behind", [False, True])
    def test_dlt_pose_with_a_point_behind_is_not_polished(self, behind):
        pts, obs = self.noisy_views(behind)
        rot, tra = pose._dlt_pose(pts, obs, K)
        assert ((pts @ rot.T + tra)[:, 2] <= 0.0).any() == behind
        got = pose._solve(pts, obs, K)
        polished = not all(g.tobytes() == w.tobytes() for g, w in zip(got, (rot, tra)))
        assert polished != behind

    @pytest.mark.parametrize("behind", [False, True])
    def test_no_step_that_puts_a_point_behind_is_accepted(self, monkeypatch, behind):
        # every candidate step is made to reproject perfectly, and, if asked,
        # to put point 0 behind the camera at a finite error of zero
        pts, obs = self.noisy_views(False)
        real, calls = pose._reproject, []

        def perfect_step(*args):
            pc, res = real(*args)
            calls.append(args)
            if len(calls) == 1:  # the DLT pose
                return pc, res
            if behind:
                pc = pc.copy()
                pc[0, 2] = -pc[0, 2]
            return pc, np.zeros_like(res)

        monkeypatch.setattr(pose, "_reproject", perfect_step)
        got = pose._solve(pts, obs, K)
        dlt = pose._dlt_pose(pts, obs, K)
        unmoved = all(g.tobytes() == w.tobytes() for g, w in zip(got, dlt))
        assert unmoved == behind
        if behind:  # the DLT pose's residuals, then all twenty halvings refused
            assert len(calls) == 21


def plant_outliers(corrs: CorrespondenceSet, fraction: float, rng: np.random.Generator):
    """Replace a fraction of pixels with locations far from the truth."""
    n = len(corrs)
    n_out = int(round(fraction * n))
    chosen = rng.choice(n, size=n_out, replace=False)
    pixels = corrs.pixels.copy()
    for i in chosen:
        while True:
            cand = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
            if np.linalg.norm(cand - corrs.pixels[i]) > 3 * 8.0:
                pixels[i] = cand
                break
    inlier_truth = np.ones(n, dtype=bool)
    inlier_truth[chosen] = False
    return CorrespondenceSet(pixels, corrs.point_indices, corrs.scores), inlier_truth


def own_mask(transform: RigidTransform, corrs, cloud, intrinsics, threshold_px=8.0):
    """Oracle: the correspondences in front of the pose that reproject
    strictly within the threshold."""
    cam = transform.apply(np.asarray(cloud)[corrs.point_indices])
    front = cam[:, 2] > 0.0
    z = np.where(front, cam[:, 2], 1.0)
    du = intrinsics.fx * cam[:, 0] / z + intrinsics.cx - corrs.pixels[:, 0]
    dv = intrinsics.fy * cam[:, 1] / z + intrinsics.cy - corrs.pixels[:, 1]
    return front & (du * du + dv * dv < threshold_px**2)


def mean_error_loop(transform: RigidTransform, corrs, cloud, intrinsics, mask) -> float:
    """Oracle: the mean of math.hypot over each inlier's pixel residual."""
    errors = []
    for i in np.flatnonzero(mask):
        x, y, z = transform.apply(np.asarray(cloud)[corrs.point_indices[i]][None])[0]
        errors.append(math.hypot(intrinsics.fx * x / z + intrinsics.cx - corrs.pixels[i, 0],
                                 intrinsics.fy * y / z + intrinsics.cy - corrs.pixels[i, 1]))
    return sum(errors) / len(errors)


class TestPnpRansac:
    def test_thirty_percent_outliers_exact_mask(self):
        failures = 0
        for seed in range(20):
            gt, cloud, corrs, rng = make_instance(200 + seed, n=100)
            contaminated, truth = plant_outliers(corrs, 0.3, rng)
            est = pnp_ransac(contaminated, cloud, K, RansacConfig(seed=seed))
            ok_mask = np.array_equal(est.inlier_mask, truth)
            rot_err = rotation_angle_deg(gt.rotation.T @ est.transform.rotation)
            tra_err = float(np.linalg.norm(est.transform.translation - gt.translation))
            if not (ok_mask and rot_err < 0.1 and tra_err < 1e-3):
                failures += 1
        assert failures == 0

    def test_clean_data_all_inliers(self):
        gt, cloud, corrs, _ = make_instance(50, n=30)
        est = pnp_ransac(corrs, cloud, K, RansacConfig(seed=1))
        assert est.inlier_count == 30
        assert est.mean_reprojection_px < 1e-6

    def test_seed_determinism_bitwise(self):
        gt, cloud, corrs, rng = make_instance(77, n=60)
        contaminated, _ = plant_outliers(corrs, 0.25, rng)
        a = pnp_ransac(contaminated, cloud, K, RansacConfig(seed=9))
        b = pnp_ransac(contaminated, cloud, K, RansacConfig(seed=9))
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
        np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)
        assert a.mean_reprojection_px == b.mean_reprojection_px

    def test_hopeless_data_raises_no_consensus(self):
        rng = np.random.default_rng(4)
        cloud = np.column_stack(
            [rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40), rng.uniform(1, 4, 40)]
        )
        pixels = np.column_stack(
            [rng.uniform(0, K.width, 40), rng.uniform(0, K.height, 40)]
        )
        corrs = CorrespondenceSet(pixels, np.arange(40), np.ones(40))
        with pytest.raises(NoConsensusError):
            pnp_ransac(corrs, cloud, K, RansacConfig(seed=2, max_iterations=200))

    def test_degenerate_refit_keeps_voted_hypothesis(self, monkeypatch):
        gt, cloud, corrs, rng = make_instance(91, n=60)
        contaminated, truth = plant_outliers(corrs, 0.3, rng)

        refits = []

        def degenerate_refit(*args, **kwargs):
            refits.append(args)
            raise DegenerateConfigurationError("inlier set is degenerate")

        monkeypatch.setattr(pose, "pnp_solve", degenerate_refit)
        est = pnp_ransac(contaminated, cloud, K, RansacConfig(seed=3))
        assert len(refits) == 1
        # the kept mask is exactly the vote of the kept pose
        np.testing.assert_array_equal(
            est.inlier_mask, own_mask(est.transform, contaminated, cloud, K)
        )
        np.testing.assert_array_equal(est.inlier_mask, truth)
        assert rotation_angle_deg(gt.rotation.T @ est.transform.rotation) < 0.1

    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(8))
    def test_mask_is_the_returned_poses_own(self, seed, fraction):
        gt, cloud, corrs, rng = make_instance(300 + seed, n=40)
        contaminated, _ = plant_outliers(corrs, fraction, rng)
        est = pnp_ransac(contaminated, cloud, K, RansacConfig(seed=seed))
        np.testing.assert_array_equal(
            est.inlier_mask, own_mask(est.transform, contaminated, cloud, K)
        )

    def test_degraded_refit_returns_the_vote_with_its_mask(self, monkeypatch):
        # the refit on the voted inliers keeps fewer than min_sample of them;
        # the vote's pose and mask come back together, all inliers in front
        cfg = PipelineConfig(
            point_count=800, outlier_fraction=0.5, min_fine_score=0.0, mask_ratio=0.3
        )
        scene = generate_scene(cfg.scene_spec(), seed=2)
        refits = []

        def spy(*args, **kwargs):
            refits.append(pnp_solve(*args, **kwargs))
            return refits[-1]

        monkeypatch.setattr(pose, "pnp_solve", spy)
        result = register_scene(scene, cfg)
        est, corrs = result.estimate, result.correspondences
        (refit,) = refits
        assert own_mask(refit, corrs, scene.cloud, scene.intrinsics).sum() < cfg.ransac_min_sample
        np.testing.assert_array_equal(
            est.inlier_mask, own_mask(est.transform, corrs, scene.cloud, scene.intrinsics)
        )
        assert est.inlier_count >= cfg.ransac_min_sample
        assert est.mean_reprojection_px < cfg.ransac_threshold_px
        assert est.mean_reprojection_px == pytest.approx(mean_error_loop(
            est.transform, corrs, scene.cloud, scene.intrinsics, est.inlier_mask
        ), rel=1e-12)

    @pytest.mark.parametrize("refit", ["kept", "degenerate"])
    def test_mean_error_is_the_inliers_mean_hypot(self, monkeypatch, refit):
        gt, cloud, corrs, rng = make_instance(91, n=60)
        contaminated, _ = plant_outliers(corrs, 0.3, rng)
        noisy = CorrespondenceSet(
            contaminated.pixels + rng.normal(0.0, 0.5, corrs.pixels.shape),
            contaminated.point_indices, contaminated.scores,
        )
        refits = []

        def hook(*args, **kwargs):
            refits.append(args)
            if refit == "degenerate":
                raise DegenerateConfigurationError("inlier set is degenerate")
            return pnp_solve(*args, **kwargs)

        monkeypatch.setattr(pose, "pnp_solve", hook)
        est = pnp_ransac(noisy, cloud, K, RansacConfig(seed=3))
        assert len(refits) == 1
        assert est.inlier_count >= 40
        assert 0.1 < est.mean_reprojection_px == pytest.approx(
            mean_error_loop(est.transform, noisy, cloud, K, est.inlier_mask), rel=1e-12
        )

    def test_too_few_for_ransac(self):
        gt, cloud, corrs, _ = make_instance(8, n=5)
        with pytest.raises(InsufficientPointsError):
            pnp_ransac(corrs, cloud, K)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(min_sample=4)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.5)
        seed_range = r"RansacConfig\.seed must be finite and lie in \[0, .*got -1"
        with pytest.raises(ValueError, match=seed_range):
            RansacConfig(seed=-1)

    def test_threshold_bound_keeps_its_square_finite(self):
        # 1e300 once overflowed thr**2 with an OverflowError
        gt, cloud, corrs, _ = make_instance(31, n=20)
        est = pnp_ransac(corrs, cloud, K, RansacConfig(inlier_threshold_px=1e100))
        assert est.inlier_count == 20
        with pytest.raises(ConfigError, match=r"RansacConfig\.inlier_threshold_px .* got 1e\+300"):
            RansacConfig(inlier_threshold_px=1e300)

    def test_estimate_shape(self):
        gt, cloud, corrs, _ = make_instance(31, n=20)
        est = pnp_ransac(corrs, cloud, K, RansacConfig(seed=0))
        assert isinstance(est, PoseEstimate)
        assert est.inlier_mask.shape == (20,)
        assert est.inlier_mask.dtype == bool
