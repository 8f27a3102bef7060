import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_stream_bands
from wavetraffic import conformal as cf
from wavetraffic.errors import DataError, DimensionError, ParameterError


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

    @given(st.floats(1e-4, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_min_window_is_the_shortest_with_a_finite_quantile(self, beta):
        n = cf.min_window(beta)
        assert cf.weighted_quantile(np.zeros(n), beta) < math.inf
        if n > 1:
            assert cf.weighted_quantile(np.zeros(n - 1), beta) == math.inf

    @pytest.mark.parametrize("beta, n", [(0.05, 19), (0.1, 9), (0.5, 1), (1e-17, 2 ** 53)])
    def test_min_window_values(self, beta, n):
        # below about 1.1e-16, 1 - beta rounds to 1 and only float64's 2**53 fits the rank
        assert cf.min_window(beta) == n

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.nan])
    def test_min_window_rejects_beta(self, beta):
        with pytest.raises(ParameterError):
            cf.min_window(beta)

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


class TestCoverage:
    def test_coverage_counts_inclusively(self):
        cov = cf.empirical_coverage([0.0, 0.0], [1.0, 1.0], [1.0, 2.0])
        assert cov == 0.5

    def test_coverage_shape_check(self):
        with pytest.raises(DimensionError):
            cf.empirical_coverage([0.0], [1.0, 2.0], [0.5])


class TestCalibrateStream:
    def _stream(self, n_cal, n_test, sigma=1.0, seed=2):
        rng = np.random.default_rng(seed)
        y = rng.normal(50.0, 5.0, size=n_cal + n_test)
        pred = y + rng.normal(0.0, sigma, size=n_cal + n_test)
        return y[:n_cal], pred[:n_cal], y[n_cal:], pred[n_cal:]

    def test_coverage_near_nominal(self):
        y_cal, p_cal, y_test, p_test = self._stream(500, 3000)
        lo, hi = cf.calibrate_stream(y_cal, p_cal, y_test, p_test, window=288, beta=0.1)
        assert 0.85 <= cf.empirical_coverage(lo, hi, y_test) <= 0.95
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))

    def test_adapts_to_variance_shift(self):
        # noise doubles midway; the rolling scale should widen the band
        rng = np.random.default_rng(3)
        y = rng.normal(0.0, 1.0, size=2000)
        noise = np.concatenate([
            rng.normal(0, 0.5, size=1000), rng.normal(0, 2.0, size=1000)
        ])
        pred = y + noise
        lo, hi = cf.calibrate_stream(y[:500], pred[:500], y[500:], pred[500:],
                                     window=200, beta=0.1)
        widths = hi - lo
        assert widths[1200:].mean() > 2.0 * widths[:300].mean()
        assert cf.empirical_coverage(lo, hi, y[500:]) > 0.8

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

    def test_infinite_band_when_window_too_small(self):
        # four scores never reach the rank ceil(0.9 * 5) = 5 of a 4-score window
        lo, hi = cf.calibrate_stream(np.ones(4), np.zeros(4), np.ones(3), np.full(3, 5.0),
                                     window=4, beta=0.1)
        assert np.isneginf(lo).all() and np.isposinf(hi).all()

    def test_band_contains_prediction(self):
        rng = np.random.default_rng(1)
        y = rng.normal(10.0, 1.0, size=100)
        lo, hi = cf.calibrate_stream(y, y + rng.normal(0, 0.5, size=100), [10.0], [10.0],
                                     window=50, beta=0.1)
        assert lo[0] <= 10.0 <= hi[0]
        assert np.isfinite(lo).all() and np.isfinite(hi).all()

    def test_window_limits_history(self):
        # the first band reads the last `window` scores, each scaled by the
        # `window` residuals before it: older calibration points cannot move it
        window = 5
        y_cal, p_cal, y_test, p_test = self._stream(100, 3)
        ref = cf.calibrate_stream(y_cal, p_cal, y_test, p_test, window=window, beta=0.4)
        y_far = y_cal.copy()
        y_far[: -2 * window] += 1e9
        moved = cf.calibrate_stream(y_far, p_cal, y_test, p_test, window=window, beta=0.4)
        assert moved[0][0] == ref[0][0] and moved[1][0] == ref[1][0]
        y_far[-window - 1] += 1e9  # a residual that scales the window's scores moves it
        moved = cf.calibrate_stream(y_far, p_cal, y_test, p_test, window=window, beta=0.4)
        assert (moved[0][0], moved[1][0]) != (ref[0][0], ref[1][0])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(window=0), "window must be >= 1, got 0"),
        (dict(beta=0.0), r"beta must be in \(0, 1\), got 0.0"),
        (dict(beta=1.0), r"beta must be in \(0, 1\), got 1.0"),
    ], ids=["window_0", "beta_0", "beta_1"])
    def test_parameter_validation(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            cf.calibrate_stream(*self._stream(20, 5), **kwargs)

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


class TestBatchedEquivalence:
    """Banding all streams at once reproduces the per-stream reference bit for bit."""

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
        lo, hi = cf.calibrate_stream(y[:n], pred[:n], y[n:], pred[n:], **kwargs)
        ref_lo, ref_hi = per_stream_bands(y[:n], pred[:n], y[n:], pred[n:], **kwargs)
        assert lo.shape == hi.shape == y[n:].shape
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        if case == "infinite_bands":
            assert np.isinf(lo[0]).all() and np.isfinite(lo[-1]).all()
        if case == "window_of_one":
            assert np.isinf(lo).all() and np.isinf(hi).all()


# the per-stream calibrator and its band helper, now the reference in tests/conftest.py
_REMOVED_NAMES = ("ConformalCalibrator", "interval")


class TestOneBandingPath:
    def test_removed_names_are_gone(self):
        assert cf.__all__ == ["weighted_quantile", "min_window", "empirical_coverage",
                              "calibrate_stream"]
        for name in _REMOVED_NAMES:
            assert not hasattr(cf, name), name

    def test_readme_points_removed_names_at_the_reference(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        # paragraphs, list items and table rows
        for part in re.split(r"\n\n|\n(?=[|-] )", readme):
            spans = " ".join(re.findall(r"`([^`]*)`", part))
            if re.search(rf"\b({'|'.join(_REMOVED_NAMES)})\b", spans):
                assert "tests/conftest.py" in part, part
