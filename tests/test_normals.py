"""Point-cloud and depth-map normal estimation against analytic oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossreg.normals as normals_module
from crossreg.errors import ConfigError, DegenerateNeighborhoodError, NotNormalizedError
from crossreg.geometry import CameraIntrinsics
from crossreg.graph import knn_indices
from crossreg.normals import (
    DepthMap,
    NormalField,
    depth_to_normals,
    estimate_point_normals,
    estimate_point_normals_adaptive,
    metric_normals_from_depth,
    normal_agreement,
)


def fibonacci_sphere(n: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Near-uniform sphere sampling: golden-angle spiral."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return radius * pts + np.asarray(center)


class TestPointNormals:
    def test_plane_recovers_axis(self):
        xs, ys = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
        cloud = np.column_stack([xs.ravel(), ys.ravel(), np.full(144, 5.0)])
        field = estimate_point_normals(cloud, k=8)
        assert np.all(field.valid)
        # plane z=5 sits in front of the origin, so camera-facing normals
        # point along -z
        np.testing.assert_allclose(field.normals[:, 2], -1.0, atol=1e-9)
        np.testing.assert_allclose(field.normals[:, :2], 0.0, atol=1e-7)

    def test_collinear_points_degenerate(self):
        cloud = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
        field = estimate_point_normals(cloud, k=4)
        assert not np.any(field.valid)
        np.testing.assert_array_equal(field.normals, 0.0)

    def test_sphere_median_angular_error_under_one_degree(self):
        cloud = fibonacci_sphere(600, radius=1.0)
        field = estimate_point_normals(cloud, k=8)
        assert np.all(field.valid)
        radial = cloud / np.linalg.norm(cloud, axis=1, keepdims=True)
        dots = np.abs(np.einsum("nd,nd->n", field.normals, radial))
        angles = np.degrees(np.arccos(np.clip(dots, -1, 1)))
        assert np.median(angles) < 1.0

    def test_rotation_invariance_up_to_sign(self):
        rng = np.random.default_rng(5)
        cloud = fibonacci_sphere(300, radius=0.8, center=(0.2, -0.1, 2.0))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        base = estimate_point_normals(cloud, k=8)
        rotated = estimate_point_normals(cloud @ q.T, k=8)
        both = base.valid & rotated.valid
        assert both.mean() > 0.99
        dots = np.abs(
            np.einsum("nd,nd->n", rotated.normals[both], base.normals[both] @ q.T)
        )
        assert np.min(dots) > 1.0 - 1e-6

    def test_scale_and_translation_invariance_up_to_sign(self):
        cloud = fibonacci_sphere(200, radius=0.5, center=(0.0, 0.3, 1.5))
        base = estimate_point_normals(cloud, k=8)
        scaled = estimate_point_normals(cloud * 2.0, k=8)
        shifted = estimate_point_normals(cloud + np.array([5.0, -2.0, 1.0]), k=8)
        for other in (scaled, shifted):
            both = base.valid & other.valid
            assert both.mean() > 0.99
            dots = np.abs(np.einsum("nd,nd->n", base.normals[both], other.normals[both]))
            assert np.min(dots) > 1.0 - 1e-6

    def test_rejects_small_k_and_small_cloud(self):
        cloud = np.random.default_rng(0).uniform(0, 1, (10, 3))
        with pytest.raises(ValueError):
            estimate_point_normals(cloud, k=2)
        with pytest.raises(ValueError):
            estimate_point_normals(cloud[:5], k=6)

    @pytest.mark.parametrize(
        "k, got",
        [(8.5, "8.5"), (np.full(30, 8.5), "8.5"), (np.full(30, True), "True"),
         (np.r_[np.full(29, 8), 8.25], "8.25")],
        ids=["scalar_half", "array_half", "bool_array", "one_fractional_entry"],
    )
    def test_non_whole_or_bool_k_is_refused(self, k, got):
        # each was once cast to int64 and fit over 8 (or 1) neighbours
        cloud = np.random.default_rng(1).uniform(0, 1, (30, 3))
        with pytest.raises(ConfigError, match=f"^k expects an integer, got {got}$"):
            estimate_point_normals(cloud, k)

    def test_whole_float_k_keeps_the_int_fit(self):
        cloud = np.random.default_rng(2).uniform(0, 1, (30, 3))
        want = estimate_point_normals(cloud, 8)
        for k in (8.0, np.full(30, 8.0), np.full(30, 8, dtype=np.uint8)):
            got = estimate_point_normals(cloud, k)
            assert got.normals.tobytes() == want.normals.tobytes()


    @pytest.mark.parametrize("fit", ["plain", "adaptive"])
    def test_a_plane_through_the_origin_faces_plus_y_exactly(self, fit):
        # every normal of the plane y = 0 is perpendicular to its ray, so the
        # orientation falls back to the first nonzero component positive; a
        # fit whose rounding left the dot at +-1e-16 would turn some to -y
        rng = np.random.default_rng(7)
        cloud = np.column_stack([rng.uniform(-1.0, 1.0, 500), np.zeros(500),
                                 rng.uniform(1.0, 3.0, 500)])
        if fit == "plain":
            field = estimate_point_normals(cloud, k=8)
        else:
            field = estimate_point_normals_adaptive(cloud)
        assert np.all(field.valid)
        assert np.all(field.normals == [0.0, 1.0, 0.0])

    def test_a_strip_spanning_80_orders_of_magnitude_keeps_its_normal(self):
        # the covariance's scaled y variance is about 1e-160, so its adjugate's
        # entries square below the smallest normal double; eigh fits it too
        rng = np.random.default_rng(3)
        cloud = np.column_stack([rng.uniform(-1.0, 1.0, 200) * 1e75,
                                 rng.uniform(-1.0, 1.0, 200) * 1e-5, np.zeros(200)])
        field = estimate_point_normals(cloud, k=8)
        assert np.all(field.valid)
        assert np.all(field.normals == [0.0, 0.0, 1.0])

    def test_the_fit_calls_no_lapack(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the normal fit called LAPACK")

        for name in ("eigh", "eig", "eigvalsh", "svd", "solve"):
            monkeypatch.setattr(np.linalg, name, refused)
        field = estimate_point_normals(fibonacci_sphere(200, center=(0.0, 0.0, 3.0)), k=8)
        assert field.valid.all()


COVARIANCE_KINDS = ("random", "near_planar", "collinear", "zero")


def neighbourhood_covariances(kind: str, seed: int, exponent: int, m: int = 64, k: int = 8):
    """(m, 3, 3) covariances of k-point neighbourhoods of one kind, times 10**exponent."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, k, 3))
    if kind == "near_planar":
        pts[..., 2] *= 10.0 ** rng.uniform(-9.0, -1.0, (m, 1))
    elif kind == "collinear":
        pts = pts[..., :1] * rng.standard_normal((m, 1, 3))
    elif kind == "zero":
        pts = np.broadcast_to(rng.standard_normal((m, 1, 3)), (m, k, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    centered = pts @ q
    centered = centered - centered.mean(axis=1, keepdims=True)
    return np.einsum("mki,mkj->mij", centered, centered) / k * 10.0 ** exponent


@given(kind=st.sampled_from(COVARIANCE_KINDS), seed=st.integers(0, 2**32 - 1),
       exponent=st.integers(-150, 150))
def test_closed_form_eigenpair_matches_eigh(kind, seed, exponent):
    """The closed form against LAPACK: the same validity wherever eigh's gap
    lies clear of EIGENVALUE_GAP_TOL by more than rounding (64 eps lambda2;
    nearer, both solvers' validity is rounding), and on every valid row whose
    gap is clear of that rounding, a normal within the module's stated
    8 eps lambda2 / (lambda1 - lambda0) rad of eigh's."""
    cov = neighbourhood_covariances(kind, seed, exponent)
    entries = np.stack([cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2],
                        cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaps, vectors = normals_module._smallest_eigenpairs(entries)
    eigvals, eigvecs = np.linalg.eigh(cov)
    want = eigvals[:, 1] - eigvals[:, 0]
    eps = np.finfo(np.float64).eps
    rounding = 64.0 * eps * np.abs(eigvals).max(axis=1)
    tol = normals_module.EIGENVALUE_GAP_TOL
    valid = gaps > tol
    clear = np.abs(want - tol) > rounding
    np.testing.assert_array_equal(valid[clear], want[clear] > tol)
    if kind == "zero":
        assert not valid.any()
    rows = valid & (want > rounding)
    got = vectors[rows] / np.linalg.norm(vectors[rows], axis=1, keepdims=True)
    ref = eigvecs[rows, :, 0]
    angle = np.arctan2(np.linalg.norm(np.cross(got, ref), axis=1),
                       np.abs(np.einsum("nd,nd->n", got, ref)))
    bound = 8.0 * eps * eigvals[rows, 2] / want[rows]
    assert np.all(angle <= bound), float(np.max(angle / bound))

def adaptive_sizes(cloud, k0: int = 8, k_sparse: int = 12) -> np.ndarray:
    """Oracle: k_sparse where a point's mean k0-NN distance, from its own
    k0-NN call, strictly exceeds the cloud-wide mean of that distance."""
    _, dists = knn_indices(cloud, k0, return_distances=True)
    rho = dists.mean(axis=1)
    return np.where(rho > rho.mean(), k_sparse, k0)


class TestAdaptiveK:
    def test_two_cluster_hand_case(self):
        # dense cluster: spacing 0.01 on x; sparse cluster: spacing 1.0,
        # 100 units away. mean k0-NN distance separates them cleanly.
        dense = np.column_stack([0.01 * np.arange(12), np.zeros(12), np.zeros(12)])
        sparse = np.column_stack([100.0 + 1.0 * np.arange(12), np.zeros(12), np.zeros(12)])
        cloud = np.vstack([dense, sparse])
        ks = adaptive_sizes(cloud, k0=8)
        assert list(np.unique(ks[:12])) == [8]
        assert list(np.unique(ks[12:])) == [12]

    def test_uniform_cloud_mixes_both_sizes(self):
        cloud = np.random.default_rng(11).uniform(0, 1, (200, 3))
        ks = adaptive_sizes(cloud, k0=8)
        assert set(np.unique(ks)) <= {8, 12}

    def test_adaptive_estimation_runs(self):
        cloud = fibonacci_sphere(100, radius=1.0, center=(0, 0, 2.5))
        field = estimate_point_normals_adaptive(cloud)
        assert isinstance(field, NormalField)
        assert field.valid.mean() > 0.9

    @pytest.mark.parametrize("k0", [3, 8, 16])
    def test_default_sparse_k_is_k0_plus_4(self, k0):
        cloud = np.random.default_rng(k0).uniform(-1.0, 1.0, (300, 3)) + [0.0, 0.0, 3.0]
        field = estimate_point_normals_adaptive(cloud, k0=k0)
        want = estimate_point_normals(cloud, adaptive_sizes(cloud, k0=k0, k_sparse=k0 + 4))
        assert field.normals.tobytes() == want.normals.tobytes()
        assert field.valid.tobytes() == want.valid.tobytes()

    @pytest.mark.parametrize("k0, k_sparse", [(3, 7), (8, 12), (16, 20)])
    def test_one_knn_call_matches_two_call_composition(self, monkeypatch, k0, k_sparse):
        calls = []
        knn = normals_module.knn_indices

        def counted(*args, **kwargs):
            calls.append(args[1])
            return knn(*args, **kwargs)

        rng = np.random.default_rng(k0)
        clouds = [
            fibonacci_sphere(300, radius=1.0, center=(0, 0, 2.5)),
            rng.uniform(-1.0, 1.0, (400, 3)) * [1.0, 1.0, 0.2] + [0.0, 0.0, 3.0],
            np.vstack([rng.normal(0.0, 0.05, (150, 3)), rng.normal(0.0, 1.0, (150, 3))])
            + [0.0, 0.0, 4.0],
        ]
        for cloud in clouds:
            oracle = estimate_point_normals(
                cloud, adaptive_sizes(cloud, k0=k0, k_sparse=k_sparse)
            )
            monkeypatch.setattr(normals_module, "knn_indices", counted)
            field = estimate_point_normals_adaptive(cloud, k0=k0)
            monkeypatch.setattr(normals_module, "knn_indices", knn)
            assert calls == [k_sparse]
            calls.clear()
            assert field.normals.tobytes() == oracle.normals.tobytes()
            assert field.valid.tobytes() == oracle.valid.tobytes()

    def test_cloud_too_small_for_k_is_degenerate(self):
        cloud = fibonacci_sphere(8, radius=1.0, center=(0, 0, 2.5))
        with pytest.raises(DegenerateNeighborhoodError):
            estimate_point_normals(cloud, k=8)
        with pytest.raises(DegenerateNeighborhoodError):
            estimate_point_normals_adaptive(cloud, k0=8)
        with pytest.raises(DegenerateNeighborhoodError):
            estimate_point_normals_adaptive(cloud[:1], k0=3)


class TestDepthNormals:
    def test_ramp_gradient_without_halving(self):
        h, w = 6, 8
        us = np.arange(w, dtype=np.float64)
        depth = DepthMap.from_values(np.tile(1.0 + 0.5 * us, (h, 1)))
        field = depth_to_normals(depth)
        inner = field.normals[1:-1, 1:-1]
        assert np.all(field.valid[1:-1, 1:-1])
        expected = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(inner, np.broadcast_to(expected, inner.shape), atol=1e-12)

    def test_constant_depth_gives_plus_z(self):
        depth = DepthMap.from_values(np.full((5, 7), 2.5))
        field = depth_to_normals(depth)
        assert np.all(field.valid[1:-1, 1:-1])
        np.testing.assert_array_equal(field.normals[2, 3], [0.0, 0.0, 1.0])

    def test_borders_invalid(self):
        field = depth_to_normals(DepthMap.from_values(np.full((4, 5), 1.0)))
        assert not field.valid[0].any()
        assert not field.valid[-1].any()
        assert not field.valid[:, 0].any()
        assert not field.valid[:, -1].any()

    def test_offset_invariance(self):
        rng = np.random.default_rng(21)
        base = 2.0 + 0.05 * rng.standard_normal((10, 12)).cumsum(axis=1)
        a = depth_to_normals(DepthMap.from_values(base))
        b = depth_to_normals(DepthMap.from_values(base + 3.0))
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_allclose(a.normals, b.normals, atol=1e-12)

    def test_masked_pixel_invalidates_neighbors(self):
        vals = np.full((8, 10), 2.0)
        vals[3, 4] = np.nan
        field = depth_to_normals(DepthMap.from_values(vals))
        for v, u in [(3, 4), (3, 3), (3, 5), (2, 4), (4, 4)]:
            assert not field.valid[v, u]
        assert field.valid[5, 5]
        assert field.valid[3, 6]


class TestMetricNormals:
    def test_analytic_plane(self):
        # plane a*x + b*y + z = c in camera coordinates
        a, b, c = 0.3, -0.2, 2.0
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30)
        us, vs = np.meshgrid(np.arange(40, dtype=np.float64), np.arange(30, dtype=np.float64))
        denom = 1.0 + a * (us - k.cx) / k.fx + b * (vs - k.cy) / k.fy
        depth = DepthMap.from_values(c / denom)
        field = metric_normals_from_depth(depth, k)
        assert np.all(field.valid[1:-1, 1:-1])
        plane_normal = np.array([a, b, 1.0]) / np.linalg.norm([a, b, 1.0])
        dots = np.abs(field.normals[1:-1, 1:-1] @ plane_normal)
        angles = np.degrees(np.arccos(np.clip(dots, -1, 1)))
        assert angles.max() < 0.5
        # oriented toward the camera: non-positive dot with the surface point
        xs = (us - k.cx) * depth.values / k.fx
        ys = (vs - k.cy) * depth.values / k.fy
        pos = np.stack([xs, ys, depth.values], axis=-1)
        facing = np.einsum("hwc,hwc->hw", field.normals, pos)[field.valid]
        assert np.all(facing <= 1e-12)

    @pytest.mark.parametrize("surface", ["tilted_plane", "sphere"])
    def test_oriented_by_the_point_normal_rule(self, surface):
        # _canonical_sign of the field's own valid rows changes no bit
        k = CameraIntrinsics(fx=60.0, fy=60.0, cx=20.0, cy=15.0, width=40, height=30)
        us, vs = np.meshgrid(np.arange(40, dtype=np.float64), np.arange(30, dtype=np.float64))
        rays = np.stack([(us - k.cx) / k.fx, (vs - k.cy) / k.fy, np.ones_like(us)], axis=-1)
        if surface == "tilted_plane":  # 0.4 x - 0.3 y + z = 2
            vals = 2.0 / (rays @ np.array([0.4, -0.3, 1.0]))
        else:  # the near side of the unit sphere around (0.1, 0, 3)
            center = np.array([0.1, 0.0, 3.0])
            dc = rays @ center
            dd = np.einsum("hwc,hwc->hw", rays, rays)
            disc = dc * dc - dd * (center @ center - 1.0)
            vals = np.where(disc > 0.0, (dc - np.sqrt(np.abs(disc))) / dd, np.nan)
        field = metric_normals_from_depth(DepthMap.from_values(vals), k)
        assert field.valid.sum() > 100
        rows = field.normals[field.valid]
        pos = (rays * vals[..., None])[field.valid]
        assert normals_module._canonical_sign(rows, pos).tobytes() == rows.tobytes()

    def test_agreement_identity_is_one(self):
        rng = np.random.default_rng(2)
        vals = 2.0 + 0.02 * rng.standard_normal((12, 16)).cumsum(axis=1)
        k = CameraIntrinsics(fx=50.0, fy=50.0, cx=8.0, cy=6.0, width=16, height=12)
        field = metric_normals_from_depth(DepthMap.from_values(vals), k)
        assert normal_agreement(field, field) == 1.0

    def test_agreement_penalizes_lost_coverage(self):
        k = CameraIntrinsics(fx=50.0, fy=50.0, cx=10.0, cy=8.0, width=20, height=16)
        vals = np.full((16, 20), 2.0)
        clean = metric_normals_from_depth(DepthMap.from_values(vals), k)
        holed = vals.copy()
        holed[4:8, 5:12] = np.nan
        dropped = metric_normals_from_depth(DepthMap.from_values(holed), k)
        score = normal_agreement(clean, dropped)
        assert 0.0 < score < 1.0

    def test_agreement_empty_reference_raises(self):
        empty = NormalField(np.zeros((4, 4, 3)), np.zeros((4, 4), dtype=bool))
        with pytest.raises(DegenerateNeighborhoodError):
            normal_agreement(empty, empty)


class TestDepthMapType:
    def test_rejects_nonpositive_valid_entries(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, -2.0]]), np.array([[True, True]]))

    def test_from_values_masks_bad_entries(self):
        d = DepthMap.from_values(np.array([[1.0, np.nan], [0.0, 3.0]]))
        np.testing.assert_array_equal(d.valid, [[True, False], [False, True]])


class TestNormalFieldType:
    def test_rejects_an_off_unit_valid_normal(self):
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.5]])
        with pytest.raises(NotNormalizedError, match="valid normals: row norm deviates"):
            NormalField(normals, np.array([True, True]))
        # an invalid position carries no constraint
        assert NormalField(normals, np.array([True, False])).normals.shape == (2, 3)

    def test_rejects_a_non_finite_valid_normal(self):
        with pytest.raises(ValueError, match="non-finite"):
            NormalField(np.array([[np.nan, 0.0, 1.0]]), np.array([True]))


def _field(n: int) -> NormalField:
    return NormalField(np.zeros((n, 3)), np.zeros(n, dtype=bool))


@pytest.mark.parametrize("call, error", [
    (lambda: DepthMap(np.ones((2, 2)), np.ones((2, 3), dtype=bool)), ValueError),
    (lambda: NormalField(np.zeros((2, 3)), np.zeros(3, dtype=bool)), ValueError),
    (lambda: estimate_point_normals(fibonacci_sphere(10), np.full(9, 3)), ValueError),
    (lambda: normal_agreement(_field(2), _field(3)), ValueError),
], ids=["depth_mask_differs", "normal_mask_differs", "per_point_k_not_points",
        "agreement_fields_differ"])
def test_malformed_input_refused(call, error):
    with pytest.raises(error):
        call()


def test_metric_normals_without_a_full_stencil_are_all_invalid():
    # a 2x2 image has no interior pixel, so no pixel has four neighbours
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=2, height=2)
    field = metric_normals_from_depth(DepthMap.from_values(np.ones((2, 2))), k)
    assert field.normals.shape == (2, 2, 3)
    assert not field.valid.any() and not field.normals.any()
