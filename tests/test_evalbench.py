import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraffic import evalbench as ev
from wavetraffic.errors import DimensionError, ParameterError

# Frozen published MAE benchmark (12 forecasters x 3 road networks) used
# as a regression fixture for the rank test.
_BENCHMARK_MAE = np.array([
    [3.38, 35.31, 33.73],
    [3.28, 21.97, 28.70],
    [2.93, 23.65, 23.75],
    [2.37, 21.33, 26.24],
    [2.07, 18.18, 24.70],
    [2.49, 17.49, 22.70],
    [2.11, 17.48, 21.19],
    [1.95, 19.85, 25.45],
    [1.96, 15.98, 19.83],
    [1.86, 16.87, 19.14],
    [1.72, 15.57, 19.30],
    [1.70, 15.31, 19.30],
])
_BENCHMARK_MODELS = [f"m{i:02d}" for i in range(11)] + ["ours"]


class TestPointMetrics:
    def test_mae_hand_value(self):
        assert ev.mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_rmse_hand_value(self):
        assert ev.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_mape_hand_value(self):
        assert ev.mape([10.0, 20.0], [11.0, 18.0]) == pytest.approx(10.0)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        y, y_hat = rng.normal(size=(2, 200))
        assert ev.rmse(y, y_hat) >= ev.mae(y, y_hat)

    def test_zero_error(self):
        y = np.random.default_rng(1).normal(5.0, 1.0, size=50)
        assert ev.mae(y, y) == 0.0
        assert ev.rmse(y, y) == 0.0
        assert ev.mape(y, y) == 0.0

    def test_mape_excludes_near_zero_truth(self):
        with pytest.warns(UserWarning, match="excluded 1"):
            value = ev.mape([0.0, 10.0], [5.0, 11.0])
        assert value == pytest.approx(10.0)

    def test_mape_all_zero_truth_rejected(self):
        with pytest.raises(ParameterError):
            ev.mape([0.0, 1e-9], [1.0, 1.0])

    def test_misaligned_shapes(self):
        with pytest.raises(DimensionError):
            ev.mae([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_mae_shift_property(self, y, shift):
        y = np.array(y)
        assert ev.mae(y, y + shift) == pytest.approx(abs(shift), abs=1e-9)


class TestStepwise:
    def test_per_step_values(self):
        y = np.zeros((4, 3))
        y_hat = np.tile([1.0, 2.0, 3.0], (4, 1))
        np.testing.assert_allclose(ev.stepwise_errors(y, y_hat), [1.0, 2.0, 3.0])

    def test_mean_of_steps_matches_global_mae(self):
        rng = np.random.default_rng(2)
        y, y_hat = rng.normal(size=(2, 10, 5, 12))
        steps = ev.stepwise_errors(y, y_hat)
        assert steps.shape == (12,)
        assert steps.mean() == pytest.approx(ev.mae(y, y_hat))

    def test_rmse_by_name(self):
        y = np.ones((3, 2))
        steps = ev.stepwise_errors(y, y * 2.0, metric="rmse")
        np.testing.assert_allclose(steps, 1.0)

    def test_unknown_metric_names_the_accepted_ones(self):
        y = np.ones((3, 2))
        with pytest.raises(ParameterError, match="unknown metric 'mse'; expected one of "
                                                 "mae, mape, rmse"):
            ev.stepwise_errors(y, y, "mse")


class TestImprovement:
    def test_published_examples(self):
        assert round(ev.improvement(1.72, 1.70), 2) == 1.16
        assert round(ev.improvement(3.98, 3.88), 2) == 2.51

    def test_signs(self):
        assert ev.improvement(10.0, 5.0) == pytest.approx(50.0)
        assert ev.improvement(10.0, 12.0) == pytest.approx(-20.0)
        assert ev.improvement(10.0, 10.0) == 0.0

    def test_nonpositive_baseline(self):
        with pytest.raises(ParameterError):
            ev.improvement(0.0, 1.0)


class TestTukeyTable:
    def test_two_model_values_are_gaussian_quantiles(self):
        # with two groups the studentized range reduces to sqrt(2) |Z|,
        # so the table entry equals the two-sided normal quantile
        assert ev.tukey_critical_value(2, 0.05) == pytest.approx(1.959964, abs=1e-6)
        assert ev.tukey_critical_value(2, 0.01) == pytest.approx(2.575829, abs=1e-6)
        assert ev.tukey_critical_value(2, 0.10) == pytest.approx(1.644854, abs=1e-6)

    def test_monotone_in_models_and_level(self):
        for gamma in (0.01, 0.05, 0.10):
            vals = [ev.tukey_critical_value(m, gamma) for m in range(2, 21)]
            assert np.all(np.diff(vals) > 0)
        for m in (2, 10, 20):
            assert (ev.tukey_critical_value(m, 0.01)
                    > ev.tukey_critical_value(m, 0.05)
                    > ev.tukey_critical_value(m, 0.10))

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            ev.tukey_critical_value(21, 0.05)
        with pytest.raises(ParameterError):
            ev.tukey_critical_value(10, 0.025)

    @pytest.mark.parametrize("n_models, gamma", [(21, 0.05), (1, 0.05), (10, 0.025)])
    def test_error_names_what_the_table_covers(self, n_models, gamma):
        with pytest.raises(ParameterError) as info:
            ev.tukey_critical_value(n_models, gamma)
        message = str(info.value)
        assert f"gamma={gamma} with {n_models} models" in message
        assert "covers gamma in {0.01, 0.05, 0.1} and 2-20 models" in message
        assert "xi" not in message


def loop_rank_column(col, ties):
    """Ranks by one scan of the sorted column per entry, the reference for
    ``evalbench._rank_column``."""
    order = np.sort(col)
    ranks = np.empty(len(col))
    for i, v in enumerate(col):
        idx = np.nonzero(order == v)[0]
        ranks[i] = idx[-1] + 1 if ties == "max" else idx.mean() + 1
    return ranks


class TestErrorTable:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            ev.ErrorTable(np.zeros((2, 3)), ["a", "b", "c"], ["d1"])

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            ev.ErrorTable(np.array([[1.0], [np.nan]]), ["a", "b"], ["d"])
        with pytest.raises(ParameterError):
            ev.ErrorTable(np.array([[1.0], [-0.5]]), ["a", "b"], ["d"])


class TestMcb:
    def _table(self, values, models=None):
        values = np.asarray(values, dtype=np.float64)
        models = models or [f"m{i}" for i in range(values.shape[0])]
        datasets = [f"d{j}" for j in range(values.shape[1])]
        return ev.ErrorTable(values, models, datasets)

    def test_benchmark_mean_rank(self):
        table = ev.ErrorTable(_BENCHMARK_MAE, _BENCHMARK_MODELS,
                              ["net1", "net2", "net3"])
        result = ev.mcb(table, gamma=0.05)
        ours = result.models.index("ours")
        assert result.best_index == ours
        assert round(result.mean_ranks[ours], 2) == 1.67

    def test_hand_ranks_with_tie(self):
        # column values 3,1,1 -> ranks 3,2,2 under the max tie rule
        result = ev.mcb(self._table([[3.0], [1.0], [1.0]]))
        np.testing.assert_array_equal(result.mean_ranks, [3.0, 2.0, 2.0])

    def test_midrank_option(self):
        result = ev.mcb(self._table([[3.0], [1.0], [1.0]]), ties="mid")
        np.testing.assert_array_equal(result.mean_ranks, [3.0, 1.5, 1.5])

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                              st.floats(0.0, 10.0)), min_size=1, max_size=12),
           st.sampled_from(["max", "mid"]))
    @settings(max_examples=200, deadline=None)
    def test_ranks_match_the_per_entry_scan(self, values, ties):
        # ranks are integers or halves, so both ways give them exactly
        col = np.array(values)
        np.testing.assert_array_equal(ev._rank_column(col, ties), loop_rank_column(col, ties))

    def test_unknown_tie_rule(self):
        with pytest.raises(ParameterError, match="unknown tie rule 'min'"):
            ev.mcb(self._table([[3.0], [1.0]]), ties="min")

    def test_critical_distance_formula(self):
        values = np.abs(np.random.default_rng(3).normal(size=(5, 8))) + 0.1
        result = ev.mcb(self._table(values), gamma=0.05)
        expected = ev.tukey_critical_value(5, 0.05) * np.sqrt(5 * 6 / (6.0 * 8))
        assert result.critical_distance == pytest.approx(expected)
        np.testing.assert_allclose(
            result.intervals[:, 1] - result.intervals[:, 0], expected
        )

    def test_monotone_transform_invariance(self):
        values = np.abs(np.random.default_rng(5).normal(size=(6, 4))) + 0.1
        base = ev.mcb(self._table(values))
        warped = values.copy()
        warped[:, 2] = np.exp(warped[:, 2])  # strictly monotone on one column
        np.testing.assert_array_equal(
            base.mean_ranks, ev.mcb(self._table(warped)).mean_ranks
        )

    def test_significance_flags(self):
        # model 0 always best; model 2 always worst by a wide margin
        values = np.array([
            np.full(40, 1.0),
            np.full(40, 2.0),
            np.full(40, 3.0),
        ])
        result = ev.mcb(self._table(values))
        assert result.best_index == 0
        assert not result.significantly_worse[0]
        assert bool(result.significantly_worse[2])

    def test_single_dataset_wide_intervals(self):
        result = ev.mcb(self._table([[1.0], [2.0]]))
        # one dataset: CD = xi * sqrt(1) and nothing can separate
        assert not result.significantly_worse.any()

    def test_needs_two_models(self):
        with pytest.raises(ParameterError):
            ev.mcb(self._table(np.ones((1, 3))))
