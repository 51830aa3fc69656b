"""Loss values against hand-derived constants; gradients against finite differences."""

import math

import numpy as np
import pytest

from crossreg.errors import (
    ChannelMismatchError,
    CoordinateOverflowError,
    EmptyOverlapError,
    EmptySampleError,
    LengthMismatchError,
    NotNormalizedError,
)
from crossreg.losses import (
    CircleLossConfig,
    LossWeights,
    WarmupSchedule,
    circle_loss,
    gdc_loss,
    median_heuristic_bandwidth,
    mmd,
    normal_consistency_loss,
    total_loss,
    warmup_weight,
)
from crossreg.normals import NormalField


def unit_rows(rng: np.random.Generator, m: int, c: int) -> np.ndarray:
    x = rng.standard_normal((m, c))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def tangent_rows(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """Random directions orthogonal to each base row (unit-sphere tangent)."""
    t = rng.standard_normal(base.shape)
    t -= (np.einsum("mc,mc->m", t, base))[:, None] * base
    return t


class TestNormalConsistency:
    def test_hand_value(self):
        pred = NormalField(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.ones(2, dtype=bool))
        tgt = NormalField(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), np.ones(2, dtype=bool))
        loss, grad = normal_consistency_loss(pred, tgt)
        # dots are 1 and 0, mean 0.5
        assert loss == 0.5
        np.testing.assert_array_equal(grad, -tgt.normals / 2.0)

    def test_identical_fields_zero_loss(self):
        rng = np.random.default_rng(0)
        n = unit_rows(rng, 40, 3)
        field = NormalField(n, np.ones(40, dtype=bool))
        loss, _ = normal_consistency_loss(field, field)
        assert abs(loss) < 1e-12

    def test_only_joint_support_counts(self):
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        pred = NormalField(normals, np.array([True, True, False]))
        tgt_normals = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        tgt = NormalField(tgt_normals, np.array([True, False, True]))
        loss, grad = normal_consistency_loss(pred, tgt)
        assert loss == 1.0 - 1.0 / 1.0  # only row 0 participates
        np.testing.assert_array_equal(grad[1], 0.0)
        np.testing.assert_array_equal(grad[2], 0.0)

    def test_disjoint_masks_raise(self):
        a = NormalField(np.array([[0.0, 0.0, 1.0]]), np.array([True]))
        b = NormalField(np.array([[0.0, 0.0, 1.0]]), np.array([False]))
        with pytest.raises(EmptyOverlapError):
            normal_consistency_loss(a, b)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = int(rng.integers(3, 20))
            base = unit_rows(rng, m, 3)
            tgt = NormalField(unit_rows(rng, m, 3), np.ones(m, dtype=bool))
            _, grad = normal_consistency_loss(
                NormalField(base, np.ones(m, dtype=bool)), tgt
            )
            direction = tangent_rows(rng, base)
            eps = 1e-6
            plus = NormalField(base + eps * direction, np.ones(m, dtype=bool))
            minus = NormalField(base - eps * direction, np.ones(m, dtype=bool))
            fd = (normal_consistency_loss(plus, tgt)[0] - normal_consistency_loss(minus, tgt)[0]) / (2 * eps)
            analytic = float(np.sum(grad * direction))
            assert abs(fd - analytic) <= 1e-4 * max(1e-8, abs(analytic))


class TestGdcLoss:
    def test_frozen_two_by_two(self):
        f_img = np.eye(2)
        f_cloud = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, g_img, g_cloud = gdc_loss(f_img, f_cloud)
        assert loss == 2.0
        np.testing.assert_array_equal(g_img, [[0.0, -4.0], [-4.0, 0.0]])
        np.testing.assert_array_equal(g_cloud, [[4.0, 0.0], [4.0, 0.0]])

    def test_rejects_unnormalized(self):
        unit = np.eye(2)
        with pytest.raises(NotNormalizedError, match="f_img"):
            gdc_loss(np.array([[1.0, 0.0], [2.0, 0.0]]), unit)
        with pytest.raises(NotNormalizedError, match="f_cloud"):
            gdc_loss(unit, np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_identical_structures_zero(self):
        rng = np.random.default_rng(3)
        f = unit_rows(rng, 10, 6)
        loss, g_img, g_cloud = gdc_loss(f, f)
        assert loss == 0.0
        np.testing.assert_array_equal(g_img, 0.0)
        np.testing.assert_array_equal(g_cloud, 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            m = int(rng.integers(3, 16))
            c = int(rng.integers(2, 16))
            img = unit_rows(rng, m, c)
            cloud = unit_rows(rng, m, c)
            _, g_img, g_cloud = gdc_loss(img, cloud)
            eps = 1e-6
            t_img = tangent_rows(rng, img)
            fd = (gdc_loss(img + eps * t_img, cloud)[0] - gdc_loss(img - eps * t_img, cloud)[0]) / (2 * eps)
            analytic = float(np.sum(g_img * t_img))
            assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(analytic))
            t_cloud = tangent_rows(rng, cloud)
            fd = (gdc_loss(img, cloud + eps * t_cloud)[0] - gdc_loss(img, cloud - eps * t_cloud)[0]) / (2 * eps)
            analytic = float(np.sum(g_cloud * t_cloud))
            assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(analytic))


class TestCircleLoss:
    def test_frozen_margin_case(self):
        cfg = CircleLossConfig()
        loss = circle_loss([cfg.delta_p], [cfg.delta_n], cfg)
        assert abs(loss - math.log(2.0) / cfg.gamma) < 1e-15

    def test_empty_side_is_zero(self):
        assert circle_loss([], [0.5]) == 0.0
        assert circle_loss([0.5], []) == 0.0
        assert circle_loss([], []) == 0.0

    def test_matches_naive_formula(self):
        # direct (non-LSE) evaluation in a range where exp cannot overflow
        rng = np.random.default_rng(5)
        cfg = CircleLossConfig()
        for _ in range(25):
            pos = rng.uniform(0.0, 1.2, rng.integers(1, 6))
            neg = rng.uniform(0.4, 2.0, rng.integers(1, 6))
            a = np.exp(cfg.gamma * (pos - cfg.delta_p) ** 2).sum()
            b = np.exp(cfg.gamma * (cfg.delta_n - neg) ** 2).sum()
            naive = math.log1p(a * b) / cfg.gamma
            assert abs(circle_loss(pos, neg, cfg) - naive) < 1e-9

    def test_no_overflow_for_large_gaps(self):
        loss = circle_loss([50.0], [200.0])
        assert np.isfinite(loss)
        assert loss > 0

    def test_monotone_in_hard_regimes(self):
        cfg = CircleLossConfig()
        # positives at or beyond delta_p: loss non-decreasing in distance
        sweep = [circle_loss([d], [cfg.delta_n + 0.1], cfg) for d in np.linspace(cfg.delta_p, 2.0, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))
        # negatives at or below delta_n: loss non-increasing as distance grows
        sweep = [circle_loss([cfg.delta_p + 0.05], [d], cfg) for d in np.linspace(0.0, cfg.delta_n, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(sweep, sweep[1:]))

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            circle_loss([-0.1], [1.0])

    @pytest.mark.parametrize("side", ["pos_weights", "neg_weights"])
    def test_rejects_negative_weight(self, side):
        # a negative weight once gave NaN, with an invalid-value warning
        with pytest.raises(ValueError, match=f"^{side} must be non-negative"):
            circle_loss([1e200], [1e200], **{side: [-1.0]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_distances_and_weights(self, bad):
        # a NaN distance once gave a NaN loss
        with pytest.raises(ValueError, match="pos_dists: contains non-finite"):
            circle_loss([bad, 0.1], [1.0])
        with pytest.raises(ValueError, match="neg_dists: contains non-finite"):
            circle_loss([0.1], [1.0, bad])
        with pytest.raises(ValueError, match="neg_weights: contains non-finite"):
            circle_loss([0.1], [1.0], neg_weights=[bad])


    @pytest.mark.parametrize("pos, neg, cfg", [
        ([0.1, 1e200], [1.0, 2.0], CircleLossConfig()),
        ([0.1], [1.0], CircleLossConfig(delta_n=1e200)),
        ([0.1], [1.0], CircleLossConfig(gamma=5e-324)),
    ], ids=["overflowing_distance", "overflowing_margin", "subnormal_gamma"])
    def test_a_diverging_loss_is_inf(self, pos, neg, cfg):
        # an overflowing exponent once gave NaN, and a subnormal gamma an
        # overflow warning
        assert circle_loss(pos, neg, cfg) == math.inf


class TestTotalAndWarmup:
    def test_total_weighted_sum(self):
        assert total_loss(2.0, 3.0, 4.0) == 2.0 + 3.0 + 0.5 * 4.0
        w = LossWeights(lambda_match=2.0, lambda_normal=0.0, lambda_gdc=1.0)
        assert total_loss(1.0, 99.0, 3.0, w) == 5.0

    def test_warmup_frozen_points(self):
        sched = WarmupSchedule(start=10, end=20)
        assert warmup_weight(5, sched) == 0.0
        assert warmup_weight(15, sched) == 0.5
        assert warmup_weight(25, sched) == 1.0

    def test_warmup_boundaries(self):
        sched = WarmupSchedule(start=10, end=20)
        assert warmup_weight(10, sched) == 0.0
        assert warmup_weight(19, sched) == 0.9
        assert warmup_weight(20, sched) == 1.0

    def test_warmup_step_schedule(self):
        sched = WarmupSchedule(start=7, end=7)
        assert warmup_weight(6, sched) == 0.0
        assert warmup_weight(7, sched) == 1.0

    def test_warmup_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            WarmupSchedule(start=5, end=3)


class TestMmd:
    def test_identical_samples_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        assert mmd(x, x, bandwidth=1.0) == 0.0

    def test_singleton_closed_form(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0, 0.0]])
        expected = 2.0 * (1.0 - math.exp(-0.5))  # sigma = 1, distance 1
        assert abs(mmd(x, y, bandwidth=1.0) - expected) < 1e-12

    def test_monotone_in_separation(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((60, 3))
        other = rng.standard_normal((60, 3))
        values = [
            mmd(base, other + np.array([shift, 0.0, 0.0]), bandwidth=2.0)
            for shift in (0.0, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_a_shared_translation_changes_nothing_but_rounding(self, offset):
        # millimetre samples 2 mm apart; far from the origin the dot form
        # once cancelled: at 1e6 mmd read 0.0 for 0.253, and the bandwidth
        # fell back to 1.0
        rng = np.random.default_rng(0)
        a = 1e-3 * rng.standard_normal((30, 3))
        b = 1e-3 * rng.standard_normal((30, 3)) + np.array([2e-3, 0.0, 0.0])
        for fn in (mmd, median_heuristic_bandwidth):
            np.testing.assert_allclose(fn(a + offset, b + offset), fn(a, b), rtol=1e-6)

    @pytest.mark.parametrize("separation", [1.0, 1e3, 1e6])
    def test_far_apart_samples_keep_their_within_sample_distances(self, separation):
        # two millimetre samples; 1e6 m apart the dot form about the pooled
        # mean once read 1.7556 here, beside the 0.4439 of difference form
        rng = np.random.default_rng(0)
        a = 1e-3 * rng.standard_normal((30, 3))
        b = 1e-3 * rng.standard_normal((30, 3)) + np.array([separation, 0.0, 0.0])
        pooled, m, bw = np.vstack([a, b]).tolist(), len(a), 1e-3

        def kernel_mean(rows, cols):
            total = 0.0
            for i in rows:
                for j in cols:
                    d2 = sum((pooled[j][t] - pooled[i][t]) ** 2 for t in range(3))
                    total += math.exp(-d2 / (2.0 * bw * bw))
            return total / (len(rows) * len(cols))

        first, second = range(m), range(m, len(pooled))
        want = (kernel_mean(first, first) - 2.0 * kernel_mean(first, second)
                + kernel_mean(second, second))
        assert abs(mmd(a, b, bandwidth=bw) - want) <= 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            mmd(np.zeros((0, 3)), np.zeros((5, 3)))

    def test_median_heuristic_positive(self):
        rng = np.random.default_rng(4)
        bw = median_heuristic_bandwidth(rng.standard_normal((10, 2)), rng.standard_normal((8, 2)))
        assert bw > 0
        # degenerate pooled sample falls back to 1.0: every distance is 0, or
        # a lone row has none
        assert median_heuristic_bandwidth(np.zeros((3, 2)), np.zeros((2, 2))) == 1.0
        assert median_heuristic_bandwidth(np.ones((1, 2)), np.zeros((0, 2))) == 1.0
        assert mmd(np.ones((3, 2)), np.ones((2, 2))) == 0.0

    def test_a_median_below_the_smallest_bandwidth_falls_back(self):
        # mmd once refused the bandwidth the heuristic chose for it
        assert median_heuristic_bandwidth([[0.0], [1e-160]], [[0.0]]) == 1.0
        assert mmd([[0.0], [1e-160]], [[0.0]]) == 0.0

    @pytest.mark.parametrize("a, b, error", [
        ([1.0, 2.0], [3.0, 4.0], ValueError),
        ([1.0, 2.0], [3.0], ValueError),
        ([[1.0], [2.0]], [3.0], ValueError),
        ([[1.0, 2.0]], [[3.0]], ChannelMismatchError),
    ])
    def test_median_heuristic_reads_the_samples_mmd_reads(self, a, b, error):
        # 1-D samples once pooled into a bandwidth, or ended in numpy's vstack error
        side = "a" if np.ndim(a) == 1 else "b"
        with pytest.raises(error, match=f"^{side}: expected shape"):
            median_heuristic_bandwidth(a, b)
        with pytest.raises(error, match=f"^{side}: expected shape"):
            mmd(a, b)

    def test_default_bandwidth_runs(self):
        rng = np.random.default_rng(6)
        value = mmd(rng.standard_normal((20, 3)), 1.0 + rng.standard_normal((25, 3)))
        assert value >= 0.0

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, -np.inf, 0.0])
    def test_bandwidth_not_finite_and_positive_raises(self, bandwidth):
        # a NaN or infinite bandwidth once gave 0.0 for samples a unit apart
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match=r"bandwidth must be finite and lie in \["):
            mmd(x, x + 1.0, bandwidth=bandwidth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_raises(self, bad):
        # mmd once returned 0.0, and the bandwidth fell back to 1.0
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2))
        y = x.copy()
        y[2, 1] = bad
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="non-finite"):
                mmd(a, b)
            with pytest.raises(ValueError, match="non-finite"):
                mmd(a, b, bandwidth=1.0)
            with pytest.raises(ValueError, match="non-finite"):
                median_heuristic_bandwidth(a, b)

    def test_smallest_bandwidth_saturates_the_kernel(self):
        # the exponent once overflowed with a warning
        assert mmd(np.zeros((3, 2)), np.zeros((3, 2)) + 100, bandwidth=2.0**-511) == 2.0

    def test_samples_beyond_the_coordinate_limit_raise(self):
        # the squared distances once overflowed: the median heuristic
        # returned inf, and mmd refused a bandwidth the caller never passed
        with pytest.raises(CoordinateOverflowError, match="^a: "):
            median_heuristic_bandwidth([[0.0], [1e300]], [[-1e300]])
        with pytest.raises(CoordinateOverflowError, match="^b: "):
            median_heuristic_bandwidth([[0.0]], [[-1e300]])
        with pytest.raises(CoordinateOverflowError, match="^a: "):
            mmd([[1e200]], [[-1e200]])
        with pytest.raises(CoordinateOverflowError, match="^b: "):
            mmd([[0.0]], [[-1e200]], bandwidth=1.0)


def _field(n: int) -> NormalField:
    return NormalField(np.zeros((n, 3)), np.zeros(n, dtype=bool))


@pytest.mark.parametrize("call, error", [
    (lambda: normal_consistency_loss(_field(2), _field(3)), ValueError),
    (lambda: gdc_loss(np.array([1.0]), np.eye(2)), ValueError),
    (lambda: gdc_loss(np.zeros((0, 2)), np.zeros((0, 2))), ValueError),
    (lambda: gdc_loss(np.eye(2), np.eye(2)[:1]), LengthMismatchError),
    (lambda: gdc_loss(np.eye(2), np.eye(3)[:2]), ChannelMismatchError),
    (lambda: circle_loss([0.1], [1.0], pos_weights=[1.0, 1.0]), ValueError),
    (lambda: mmd(np.zeros(3), np.zeros((3, 1))), ValueError),
    (lambda: mmd(np.zeros((2, 2)), np.zeros((2, 3))), ChannelMismatchError),
], ids=["normal_fields_differ", "gdc_1d_features", "gdc_no_rows", "gdc_rows_differ",
        "gdc_channels_differ", "circle_weights_not_distances", "mmd_1d_sample",
        "mmd_dimensions_differ"])
def test_malformed_input_refused(call, error):
    with pytest.raises(error):
        call()
