"""Transforms, camera model, and row normalization against independent oracles."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossreg import geometry
from crossreg.errors import (
    ChannelMismatchError,
    CoordinateOverflowError,
    InvalidRotationError,
    NonPositiveDepthError,
    NotNormalizedError,
)
from crossreg.geometry import (
    CameraIntrinsics,
    RigidTransform,
    as_rows,
    as_unit_rows,
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
            np.testing.assert_allclose(transform.apply(pts[:1]), expected[:1], atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (1, 3, 1), (2, 4)])
    def test_apply_takes_point_batches_only(self, shape):
        with pytest.raises(ValueError, match=r"expected shape \(N, 3\)"):
            RigidTransform(np.eye(3), np.zeros(3)).apply(np.ones(shape))

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
        # patch overlap moves the whole cloud once where it used to move each
        # patch's rows. A BLAS matmul may round a row differently at another
        # batch shape, so a row agrees within a few ulps of its magnitude, and
        # the same whole-cloud call repeats to the bit.
        t = RigidTransform(rotation_from_axis_angle(axis_angle), translation)
        idx = np.array(
            data.draw(st.lists(st.integers(0, cloud.shape[0] - 1), max_size=cloud.shape[0])),
            dtype=np.int64,
        )
        moved = t.apply(cloud)
        assert moved.tobytes() == t.apply(cloud).tobytes()
        rows = t.apply(cloud[idx].reshape(-1, 3))
        # |R_ij| <= 1, so a row's entries sum at most these magnitudes
        magnitude = np.abs(cloud[idx]).sum(axis=1) + np.abs(translation).sum()
        tol = 8.0 * np.finfo(np.float64).eps * magnitude[:, None]
        assert np.all(np.abs(moved[idx] - rows) <= tol)

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotationError):
            RigidTransform(flip, np.zeros(3))

    def test_rejects_non_orthogonal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(InvalidRotationError):
            RigidTransform(bad, np.zeros(3))

    @pytest.mark.parametrize("entry", [1e200, -1e200, 1.0 + 1e-6])
    def test_rejects_an_entry_past_one_before_forming_its_square(self, entry):
        # R^T R of a 1e200 entry overflows; the entry is refused first
        bad = np.eye(3)
        bad[1, 2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidRotationError, match=r"entry .* lies outside \[-1, 1\]"):
                RigidTransform(bad, np.zeros(3))

    def test_accepts_exact_rotation(self):
        t = RigidTransform(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(t.apply(np.array([[1.0, 2.0, 3.0]])), [[1.0, 2.0, 3.0]])

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

    @pytest.mark.parametrize(
        "fx, u, depth",
        [(500.0, 10.0, 1e308), (500.0, 320.0, 1e151), (5e-324, 10.0, 1.0)],
        ids=["overflowing_product", "depth_past_the_limit", "subnormal_focal_length"],
    )
    def test_lifted_coordinates_past_the_limit_rejected(self, fx, u, depth):
        k = CameraIntrinsics(fx=fx, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflowError, match="lifted pixels"):
                backproject_pixels(k, np.array([[320.0, 240.0], [u, 240.0]]), [1.0, depth])

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


class TestUnitRowsOut:
    """unit_rows into out, rows itself or a fresh array, one block at a time,
    gives the bytes of dividing by the norms of all rows at once."""

    @staticmethod
    def whole(x):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        return x / np.where(norms > 0.0, norms, 1.0)

    @pytest.mark.parametrize("case", [
        "draw", "zero rows", "one row", "ragged last block", "vector", "raster",
    ])
    def test_out_matches_a_fresh_result(self, case):
        rng = np.random.default_rng(11)
        block = geometry.UNIT_ROWS_BLOCK_ENTRIES // 67
        x = {
            "draw": lambda: rng.standard_normal((1939, 67)),
            "zero rows": lambda: np.zeros((40, 67)),
            "one row": lambda: rng.standard_normal((1, 67)),
            "ragged last block": lambda: rng.standard_normal((3 * block + 5, 67)),
            "vector": lambda: rng.standard_normal(3),
            "raster": lambda: rng.standard_normal((48, 64, 3)),
        }[case]()
        x[::7] = 0.0  # zero rows among the others; the vector's first entry
        fresh = unit_rows(x)
        np.testing.assert_array_equal(fresh, self.whole(x))
        into = np.empty_like(x)
        assert unit_rows(x, out=into) is into
        assert np.array_equal(into, fresh)
        same = x.copy()
        assert unit_rows(same, out=same) is same
        assert np.array_equal(same, fresh)

    @pytest.mark.parametrize("ragged", [0, 5])
    def test_strided_rows_give_contiguous_bytes_in_block_sized_memory(self, ragged):
        # the first 64 columns of a 67-column matrix, as a registration's
        # image rows sit in theirs
        rows = 40 * (geometry.UNIT_ROWS_BLOCK_ENTRIES // 64) + ragged
        wide = np.random.default_rng(12).standard_normal((rows, 67))
        wide[::7] = 0.0
        view = wide[:, :64]
        want = unit_rows(np.ascontiguousarray(view)).tobytes()
        into = np.empty((rows, 67))[:, :64]
        assert unit_rows(view, out=into) is into
        assert into.tobytes() == want
        tracemalloc.start()
        try:
            assert unit_rows(view, out=view) is view
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert view.tobytes() == want
        assert peak < 3 * 8 * geometry.UNIT_ROWS_BLOCK_ENTRIES


class TestMedian:
    @given(hnp.arrays(
        np.float64, st.integers(1, 40),
        elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        ),
    ))
    def test_bits_of_np_median(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # -inf + inf, in both
            want, got = np.float64(np.median(x)), np.float64(geometry.median(x))
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "values, want", [([3.0], 3.0), ([2, 1], 1.5), ([5.0, 1.0, 4.0], 4.0), ([[1.0, 9.0]], 5.0)]
    )
    def test_middle_entry_or_mean_of_two(self, values, want):
        assert geometry.median(values) == want


class TestSqDists:
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_each_entry_within_its_rounding_of_exact_arithmetic(self, offset):
        # a 1 mm cloud far from the origin keeps every distance to
        # (d + 2) eps / 2, relatively: each entry reads its two points alone
        rng = np.random.default_rng(11)
        m, k, d = 40, 6, 3
        pts = offset + 1e-3 * rng.standard_normal((m, d))
        rows, cols = np.arange(m)[:, None], rng.integers(0, m, (m, k))
        got = geometry.sq_dists(pts, rows, cols)
        assert got.shape == (m, k)
        exact = [[Fraction(x) for x in row] for row in pts.tolist()]
        tol = Fraction(d + 2) * Fraction(np.finfo(np.float64).eps) / 2
        for i in range(m):
            for c in range(k):
                j = int(cols[i, c])
                want = sum((a - b) ** 2 for a, b in zip(exact[j], exact[i]))
                assert abs(Fraction(float(got[i, c])) - want) <= tol * want, (i, j)


class TestAsUnitRows:
    def test_unit_rows_pass_as_float64(self):
        rows = unit_rows(np.random.default_rng(4).standard_normal((20, 6)))
        rows[0] = [1.0 + 9e-7, 0.0, 0.0, 0.0, 0.0, 0.0]  # within UNIT_TOL
        got = as_unit_rows(rows.tolist(), "rows")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, rows)

    def test_off_unit_row_names_its_deviation(self):
        rows = np.eye(3)
        rows[1, 1] = 1.0 + 2e-6
        with pytest.raises(NotNormalizedError, match=r"^rows: row norm deviates from 1 by 2\.000e-06$"):
            as_unit_rows(rows, "rows")

    def test_last_axis_is_checked(self):
        grid = np.zeros((2, 2, 3))
        grid[..., 2] = 1.0
        assert as_unit_rows(grid, "grid").shape == (2, 2, 3)
        grid[1, 0, 2] = 0.5
        with pytest.raises(NotNormalizedError, match="grid: row norm deviates from 1 by 5.000e-01"):
            as_unit_rows(grid, "grid")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="rows: contains non-finite values"):
            as_unit_rows(np.array([[1.0, 0.0], [bad, 0.0]]), "rows")

    def test_empty_passes(self):
        assert as_unit_rows(np.zeros((0, 3)), "rows").shape == (0, 3)


class TestAsRows:
    @pytest.mark.parametrize("shape, width, error", [
        ((3,), None, ValueError),
        ((1, 2, 3), 3, ValueError),
        ((2, 4), 3, ChannelMismatchError),
    ], ids=["1d", "3d", "width"])
    def test_rank_is_a_value_error_and_width_a_channel_mismatch(self, shape, width, error):
        expected = "N, C" if width is None else f"N, {width}"
        with pytest.raises(error, match=rf"^m: expected shape \({expected}\), got") as caught:
            as_rows(np.ones(shape), "m", width)
        assert type(caught.value) is error

    def test_finite_matrix_of_any_rows_passes(self):
        assert as_rows(np.zeros((0, 3)), "m", 3).shape == (0, 3)
        assert as_rows([[1, 2]], "m").dtype == np.float64
        with pytest.raises(ValueError, match="m: contains non-finite values"):
            as_rows([[np.inf, 0.0]], "m", 2)


_K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.mark.parametrize("call, error", [
    (lambda: geometry.as_float_array(np.zeros(2), (3,), "v"), ValueError),
    (lambda: CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0, height=1), ValueError),
    (lambda: backproject_pixels(_K, np.zeros((2, 2)), np.ones(3)), ValueError),
], ids=["array_shape", "empty_image", "backproject_depths_not_pixels"])
def test_malformed_input_refused(call, error):
    with pytest.raises(error):
        call()
