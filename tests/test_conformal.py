import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraffic import conformal as cf
from wavetraffic.errors import DataError, DimensionError, ParameterError


class TestScore:
    def test_hand_values(self):
        scores = cf.conformal_score([5.0, 1.0], [3.0, 1.0], [2.0, 0.5])
        np.testing.assert_allclose(scores, [1.0, 0.0])

    def test_floor_prevents_blowup(self):
        s = cf.conformal_score([1.0], [0.0], [0.0])
        assert s[0] == pytest.approx(1e8)


class TestWeightedQuantile:
    def test_rank_formula(self):
        # n=9, beta=0.1: rank = ceil(0.9 * 10) = 9 -> the largest of 9
        scores = np.arange(1.0, 10.0)
        assert cf.weighted_quantile(scores, 0.1) == 9.0

    def test_small_window_is_infinite(self):
        # rank exceeds n when the window is too small for the miscoverage
        assert cf.weighted_quantile([1.0, 2.0], 0.1) == math.inf

    def test_exact_boundary(self):
        # n=19, beta=0.05: rank = ceil(0.95 * 20) = 19, still attainable
        scores = np.arange(19.0)
        assert cf.weighted_quantile(scores, 0.05) == 18.0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.exponential(size=30)
        assert cf.weighted_quantile(s, 0.1) == cf.weighted_quantile(np.sort(s)[::-1], 0.1)

    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40),
           st.floats(0.01, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_brute_force_oracle(self, scores, beta):
        # counting definition: smallest q with #(scores <= q) >= (1-beta)(n+1)
        value = cf.weighted_quantile(scores, beta)
        n = len(scores)
        needed = (1.0 - beta) * (n + 1)
        if value == math.inf:
            assert n < needed
        else:
            arr = np.asarray(scores)
            assert np.sum(arr <= value) >= math.ceil(needed) - 1e-12
            below = arr[arr < value]
            if below.size:
                assert np.sum(arr <= below.max()) < math.ceil(needed)

    @pytest.mark.parametrize("beta", [0.1, 0.5])
    @pytest.mark.parametrize("n", [1, 3, 40, 300])
    def test_rows_match_one_dimensional_calls(self, n, beta):
        scores = np.random.default_rng(n).exponential(size=(7, n))
        expected = [cf.weighted_quantile(row, beta) for row in scores]
        np.testing.assert_array_equal(cf.weighted_quantile(scores, beta), expected)

    def test_validation(self):
        with pytest.raises(DimensionError):
            cf.weighted_quantile([], 0.1)
        with pytest.raises(ParameterError):
            cf.weighted_quantile([1.0], 1.5)


class TestIntervalAndCoverage:
    def test_band_shape(self):
        lo, hi = cf.interval([10.0, 20.0], [1.0, 2.0], 3.0)
        np.testing.assert_allclose(lo, [7.0, 14.0])
        np.testing.assert_allclose(hi, [13.0, 26.0])

    def test_negative_quantile_rejected(self):
        with pytest.raises(ParameterError):
            cf.interval([0.0], [1.0], -1.0)

    def test_coverage_counts_inclusively(self):
        cov = cf.empirical_coverage([0.0, 0.0], [1.0, 1.0], [1.0, 2.0])
        assert cov == 0.5

    def test_coverage_shape_check(self):
        with pytest.raises(DimensionError):
            cf.empirical_coverage([0.0], [1.0, 2.0], [0.5])


class TestRollingUncertainty:
    def test_windowed_mean(self):
        r = np.array([1.0, 3.0, 5.0, 7.0])
        out = cf.rolling_uncertainty(r, window=2)
        np.testing.assert_allclose(out, [1.0, 1.0, 2.0, 4.0])

    def test_floor(self):
        out = cf.rolling_uncertainty(np.zeros(4), window=2)
        np.testing.assert_allclose(out, 1e-8)


class TestCalibrator:
    def test_requires_seeding(self):
        cal = cf.ConformalCalibrator(window=10, beta=0.1)
        with pytest.raises(ParameterError):
            cal.bounds(0.0)

    def test_infinite_band_when_window_too_small(self):
        cal = cf.ConformalCalibrator(window=4, beta=0.1)
        cal.seed(np.ones(4), np.zeros(4))
        lo, hi = cal.bounds(5.0)
        assert lo == -math.inf and hi == math.inf

    def test_band_contains_prediction(self):
        rng = np.random.default_rng(1)
        cal = cf.ConformalCalibrator(window=50, beta=0.1)
        y = rng.normal(10.0, 1.0, size=100)
        cal.seed(y, y + rng.normal(0, 0.5, size=100))
        lo, hi = cal.bounds(10.0)
        assert lo <= 10.0 <= hi
        assert math.isfinite(lo) and math.isfinite(hi)

    def test_window_limits_history(self):
        cal = cf.ConformalCalibrator(window=5, beta=0.4)
        cal.seed(np.ones(100) * 7.0, np.zeros(100))
        assert len(cal.scores) == 100
        # only the last 5 scores/residuals may influence the band
        ref_lo, ref_hi = cal.bounds(0.0)
        cal.scores[:-5] = [1e9] * (len(cal.scores) - 5)
        cal.abs_residuals[:-5] = [1e9] * (len(cal.abs_residuals) - 5)
        assert cal.bounds(0.0) == (ref_lo, ref_hi)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            cf.ConformalCalibrator(window=0)
        with pytest.raises(ParameterError):
            cf.ConformalCalibrator(beta=0.0)


class TestCalibrateStream:
    def _stream(self, n_cal, n_test, sigma=1.0, seed=2):
        rng = np.random.default_rng(seed)
        y = rng.normal(50.0, 5.0, size=n_cal + n_test)
        pred = y + rng.normal(0.0, sigma, size=n_cal + n_test)
        return y[:n_cal], pred[:n_cal], y[n_cal:], pred[n_cal:]

    def test_coverage_near_nominal(self):
        y_cal, p_cal, y_test, p_test = self._stream(500, 3000)
        lo, hi, cov = cf.calibrate_stream(y_cal, p_cal, y_test, p_test,
                                          window=288, beta=0.1)
        assert 0.85 <= cov <= 0.95
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))

    def test_adapts_to_variance_shift(self):
        # noise doubles midway; the rolling scale should widen the band
        rng = np.random.default_rng(3)
        y = rng.normal(0.0, 1.0, size=2000)
        noise = np.concatenate([
            rng.normal(0, 0.5, size=1000), rng.normal(0, 2.0, size=1000)
        ])
        pred = y + noise
        lo, hi, cov = cf.calibrate_stream(y[:500], pred[:500], y[500:], pred[500:],
                                          window=200, beta=0.1)
        widths = hi - lo
        assert widths[1200:].mean() > 2.0 * widths[:300].mean()
        assert cov > 0.8

    def test_interval_precedes_update(self):
        # an outlier may only influence intervals from the next step on
        y_cal = np.ones(300)
        p_cal = np.ones(300) + 0.1
        p_test = np.array([1.0, 1.0, 1.0])
        with_outlier = cf.calibrate_stream(y_cal, p_cal,
                                           np.array([1.0, 100.0, 1.0]), p_test,
                                           window=288, beta=0.1)
        without = cf.calibrate_stream(y_cal, p_cal,
                                      np.array([1.0, 1.0, 1.0]), p_test,
                                      window=288, beta=0.1)
        for arrays in (with_outlier, without):
            assert np.all(np.isfinite(arrays[0]))
        np.testing.assert_array_equal(with_outlier[0][:2], without[0][:2])
        np.testing.assert_array_equal(with_outlier[1][:2], without[1][:2])
        assert with_outlier[1][2] - with_outlier[0][2] > without[1][2] - without[0][2]

    def test_misaligned_arrays(self):
        with pytest.raises(DimensionError):
            cf.calibrate_stream(np.ones(10), np.ones(9), np.ones(5), np.ones(5))
        with pytest.raises(DimensionError):
            cf.calibrate_stream(np.ones(10), np.ones(10), np.ones(5), np.ones(4))

    @pytest.mark.parametrize("name", ["y_cal", "pred_cal", "y_test", "pred_test"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        arrays = dict(zip(("y_cal", "pred_cal", "y_test", "pred_test"),
                          self._stream(50, 20)))
        arrays[name][7] = bad
        with pytest.raises(DataError, match=name):
            cf.calibrate_stream(**arrays, window=30)

    def test_empty_calibration_split(self):
        with pytest.raises(ParameterError):
            cf.calibrate_stream(np.ones((0, 3, 2)), np.ones((0, 3, 2)),
                                np.ones((5, 3, 2)), np.ones((5, 3, 2)))

    def test_stream_shapes_must_agree(self):
        with pytest.raises(DimensionError):
            cf.calibrate_stream(np.ones((10, 3, 2)), np.ones((10, 3, 2)),
                                np.ones((5, 3, 4)), np.ones((5, 3, 4)))


def _per_stream_bands(y_cal, p_cal, y_test, p_test, **kwargs):
    """Reference: one ConformalCalibrator per stream, bounds then update in time order."""
    lo = np.empty_like(y_test)
    hi = np.empty_like(y_test)
    for ix in np.ndindex(y_test.shape[1:]):
        stream = (slice(None),) + ix
        cal = cf.ConformalCalibrator(**kwargs)
        cal.seed(y_cal[stream], p_cal[stream])
        for t in range(len(y_test)):
            lo[(t,) + ix], hi[(t,) + ix] = cal.bounds(p_test[(t,) + ix])
            cal.update(y_test[(t,) + ix], p_test[(t,) + ix])
    return lo, hi


class TestBatchedEquivalence:
    """Banding all streams at once reproduces the per-stream calibrator bit for bit."""

    CASES = {
        # calibration shorter than the window: windows still filling
        "partial_window": dict(n_cal=30, n_test=40, streams=(3, 2), window=60),
        # too few calibration scores for the rank: the first bands are +-inf
        "infinite_bands": dict(n_cal=2, n_test=30, streams=(2, 3), window=20),
        # test stream longer than a window past the pairwise-summation block of 128
        "long_test": dict(n_cal=100, n_test=220, streams=(2, 2), window=150),
        "single_stream": dict(n_cal=50, n_test=80, streams=(), window=40),
        # a window of one score never reaches the rank: every band is +-inf
        "window_of_one": dict(n_cal=5, n_test=10, streams=(3,), window=1),
        # three stream axes, as (horizon, node, channel)
        "three_stream_axes": dict(n_cal=25, n_test=30, streams=(2, 3, 2), window=20),
        # calibration three windows long: only its tail seeds the window
        "calibration_past_window": dict(n_cal=90, n_test=40, streams=(4,), window=30),
    }

    # beta=0.05 with a 20-score window puts the rank on the window's last score
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_per_stream_calibrator(self, case, beta):
        spec = self.CASES[case]
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        shape = (spec["n_cal"] + spec["n_test"],) + spec["streams"]
        y = rng.normal(50.0, 5.0, size=shape)
        # heavy-tailed errors with a per-stream scale spanning four decades
        scale = 10.0 ** rng.uniform(-2, 2, size=spec["streams"])
        pred = y + scale * rng.standard_t(3, size=shape)
        n = spec["n_cal"]
        kwargs = dict(window=spec["window"], beta=beta)
        lo, hi, cov = cf.calibrate_stream(y[:n], pred[:n], y[n:], pred[n:], **kwargs)
        ref_lo, ref_hi = _per_stream_bands(y[:n], pred[:n], y[n:], pred[n:], **kwargs)
        assert lo.shape == hi.shape == y[n:].shape
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert cov == cf.empirical_coverage(ref_lo, ref_hi, y[n:])
        if case == "infinite_bands":
            assert np.isinf(lo[0]).all() and np.isfinite(lo[-1]).all()
        if case == "window_of_one":
            assert np.isinf(lo).all() and np.isinf(hi).all()
