"""Transforms, camera model, and row normalization against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossreg.errors import InvalidRotationError, NonPositiveDepthError
from crossreg.geometry import (
    CameraIntrinsics,
    RigidTransform,
    backproject_pixels,
    project_points,
    rotation_from_axis_angle,
    unit_rows,
)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Oracle-side rotation sampler: QR of a Gaussian matrix, det fixed to +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


class TestRigidTransform:
    def test_apply_matches_homogeneous_multiply(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rot = random_rotation(rng)
            tra = rng.uniform(-2, 2, 3)
            transform = RigidTransform(rot, tra)
            pts = rng.uniform(-3, 3, (40, 3))
            # independent oracle: 4x4 homogeneous multiply
            hom = np.eye(4)
            hom[:3, :3] = rot
            hom[:3, 3] = tra
            pts_h = np.concatenate([pts, np.ones((40, 1))], axis=1)
            expected = (pts_h @ hom.T)[:, :3]
            np.testing.assert_allclose(transform.apply(pts), expected, atol=1e-12)
            np.testing.assert_allclose(transform.apply(pts[0]), expected[0], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(13)
        t = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        pts = rng.uniform(-2, 2, (10, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)

    @given(
        cloud=st.integers(1, 300).flatmap(
            lambda n: hnp.arrays(np.float64, (n, 3), elements=st.floats(-50.0, 50.0))
        ),
        axis_angle=hnp.arrays(np.float64, 3, elements=st.floats(-3.0, 3.0)),
        translation=hnp.arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)),
        data=st.data(),
    )
    def test_apply_to_a_cloud_is_row_by_row(self, cloud, axis_angle, translation, data):
        # patch overlap moves the whole cloud once where it used to move
        # each patch's rows; every row must come out the same to the bit
        t = RigidTransform(rotation_from_axis_angle(axis_angle), translation)
        idx = np.array(
            data.draw(st.lists(st.integers(0, cloud.shape[0] - 1), max_size=cloud.shape[0])),
            dtype=np.int64,
        )
        assert t.apply(cloud)[idx].tobytes() == t.apply(cloud[idx].reshape(-1, 3)).tobytes()

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotationError):
            RigidTransform(flip, np.zeros(3))

    def test_rejects_non_orthogonal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(InvalidRotationError):
            RigidTransform(bad, np.zeros(3))

    def test_accepts_exact_rotation(self):
        t = RigidTransform(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(t.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_rodrigues_matches_analytic_z_rotation(self):
        theta = 0.37
        expected = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(
            rotation_from_axis_angle([0.0, 0.0, theta]), expected, atol=1e-12
        )

    def test_rodrigues_zero_vector_is_identity(self):
        np.testing.assert_array_equal(rotation_from_axis_angle(np.zeros(3)), np.eye(3))


class TestCamera:
    def test_known_projection(self):
        k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        uv = project_points(k, np.array([[0.5, -0.25, 2.0]]))
        assert uv.tolist() == [[445.0, 177.5]]

    def test_project_backproject_round_trip(self):
        k = CameraIntrinsics(fx=480.0, fy=510.0, cx=315.5, cy=243.25, width=640, height=480)
        rng = np.random.default_rng(3)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), rng.uniform(0.2, 5.0, 50)]
        )
        back = backproject_pixels(k, project_points(k, pts), pts[:, 2])
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_vectorized_matches_scalar(self):
        k = CameraIntrinsics(fx=400.0, fy=420.0, cx=160.0, cy=120.0, width=320, height=240)
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20), rng.uniform(0.5, 4, 20)]
        )
        uv = project_points(k, pts)
        # oracle: the pinhole model, one point at a time
        for (x, y, z), (u, v) in zip(pts.tolist(), uv.tolist()):
            assert u == k.fx * x / z + k.cx and v == k.fy * y / z + k.cy

    def test_zero_depth_rejected(self):
        k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        for z in (0.0, -1.0):
            with pytest.raises(NonPositiveDepthError):
                project_points(k, np.array([[0.1, 0.1, 1.0], [0.1, 0.1, z]]))
            with pytest.raises(NonPositiveDepthError):
                backproject_pixels(k, np.array([[320.0, 240.0], [10.0, 20.0]]), [1.0, z])

    def test_invalid_intrinsics_rejected(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=500.0, fy=500.0, cx=640.0, cy=240.0, width=640, height=480)


class TestUnitRows:
    def test_matches_per_row_division(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((30, 5))
        got = unit_rows(rows)
        for i in range(30):
            norm = math.sqrt(sum(x * x for x in rows[i].tolist()))
            assert got[i].tolist() == [x / norm for x in rows[i].tolist()]

    def test_zero_rows_stay_zero_and_last_axis_is_used(self):
        grid = np.zeros((2, 3, 3))
        grid[0, 1] = [3.0, 0.0, 4.0]
        got = unit_rows(grid)
        np.testing.assert_array_equal(got[0, 1], [0.6, 0.0, 0.8])
        got[0, 1] = 0.0
        assert not np.any(got)
