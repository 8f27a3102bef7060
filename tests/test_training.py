import gc
import re
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraffic import tensor as T
from wavetraffic import training as tr
from wavetraffic.errors import DimensionError, ParameterError, TrainingError
from wavetraffic.model import Model, ModelConfig


class TestStats:
    def test_per_node_values(self):
        stats = tr.compute_stats(np.array([[1.0, 2.0, 3.0], [4.0, 8.0, 12.0]]))
        np.testing.assert_allclose(stats.mean, [2.0, 8.0])
        # population convention: sqrt(mean of squared deviations)
        np.testing.assert_allclose(stats.std, [np.sqrt(2 / 3), np.sqrt(32 / 3)])

    def test_near_constant_node_clamped_with_warning(self):
        x = np.vstack([np.ones(10), np.arange(10.0)])
        with pytest.warns(UserWarning, match="clamped"):
            stats = tr.compute_stats(x)
        assert stats.std[0] == 1.0
        assert stats.std[1] > 1.0

    def test_multichannel_axes(self):
        x = np.random.default_rng(0).normal(size=(3, 2, 50))
        stats = tr.compute_stats(x)
        assert stats.mean.shape == (3,)
        np.testing.assert_allclose(stats.mean, x.reshape(3, -1).mean(axis=1))


class TestNormalize:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        x = np.random.default_rng(seed).normal(3.0, 2.0, size=(4, 60))
        stats = tr.compute_stats(x)
        # the inverse ``predict_windows`` applies to forecasts
        restored = tr.normalize(x, stats) * stats.std[:, None] + stats.mean[:, None]
        np.testing.assert_allclose(restored, x, atol=1e-10)

    def test_normalized_training_moments(self):
        x = np.random.default_rng(1).normal(7.0, 3.0, size=(5, 200))
        stats = tr.compute_stats(x)
        z = tr.normalize(x, stats)
        np.testing.assert_allclose(z.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=1), 1.0, atol=1e-12)


class TestSplit:
    def test_documented_allocation(self):
        # 7:1:2 over 52116 steps: floors 36481 and 5211, remainder to test
        x = np.zeros((2, 52116))
        a, b, c = tr.split(x, tr.SplitSpec(0.7, 0.1, 0.2))
        assert a.shape[-1] == 36481
        assert b.shape[-1] == 5211
        assert c.shape[-1] == 10424

    def test_chronological_and_disjoint(self):
        x = np.arange(100.0)[None]
        a, b, c = tr.split(x)
        np.testing.assert_array_equal(np.concatenate([a, b, c], axis=-1), x)

    def test_fraction_validation(self):
        with pytest.raises(ParameterError):
            tr.SplitSpec(0.5, 0.5, 0.2)
        with pytest.raises(ParameterError):
            tr.SplitSpec(0.8, 0.2, 0.0)

    def test_too_short_series(self):
        with pytest.raises(DimensionError):
            tr.split(np.zeros((1, 3)), tr.SplitSpec(0.6, 0.2, 0.2))


def _loop_windows(x):
    """``make_windows`` as one slice per window start, the reference for the
    sliding-window views."""
    x = np.asarray(x, dtype=np.float64)
    length, horizon, m = ModelConfig.window, ModelConfig.horizon, x.shape[-1]
    starts = range(m - length - horizon + 1)
    return (np.stack([x[:, :, s : s + length] for s in starts]),
            np.stack([x[:, 0, s + length : s + length + horizon] for s in starts]))


class TestWindows:
    def test_count_formula(self):
        x = np.zeros((3, 1, 100))
        inputs, targets = tr.make_windows(x)
        assert len(inputs) == 100 - 24 + 1
        assert inputs.shape == (77, 3, 1, 12)
        assert targets.shape == (77, 3, 12)

    def test_alignment(self):
        # target must start exactly where the input ends
        m = 40
        x = np.arange(float(m))[None, None, :]
        inputs, targets = tr.make_windows(x)
        for w in range(len(inputs)):
            assert inputs[w, 0, 0, 0] == w
            assert targets[w, 0, 0] == w + 12
            np.testing.assert_array_equal(
                targets[w, 0], np.arange(w + 12.0, w + 24.0)
            )

    def test_channel_zero_is_target(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 30))
        _, targets = tr.make_windows(x)
        np.testing.assert_array_equal(targets[0, :, 0], x[:, 0, 12])

    def test_segment_too_short(self):
        with pytest.raises(DimensionError):
            tr.make_windows(np.zeros((2, 1, 23)))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_equals_the_per_window_loop(self, channels):
        x = np.random.default_rng(12).normal(size=(3, channels, 60))
        # a chronological split hands over a strided view
        segment = tr.split(x)[0]
        got, ref = tr.make_windows(segment), _loop_windows(segment)
        for a, r in zip(got, ref):
            assert a.flags.c_contiguous and a.dtype == r.dtype and np.array_equal(a, r)

    @given(st.integers(24, 80))
    @settings(max_examples=40, deadline=None)
    def test_window_count_property(self, m):
        inputs, targets = tr.make_windows(np.zeros((1, 1, m)))
        expected = m - 24 + 1
        assert len(inputs) == expected == len(targets)


@pytest.fixture(scope="module")
def toy_fit(toy_setup_module):
    cfg, bundle, windows = toy_setup_module
    model = Model(cfg, bundle, seed=3)
    result = tr.fit(model, windows, windows,
                    tr.TrainConfig(epochs=4, lr=5e-3, batch_size=8, seed=5))
    return model, result


@pytest.fixture(scope="module")
def toy_setup_module():
    rng = np.random.default_rng(21)
    n = 4
    raw = np.abs(rng.normal(5.0, 1.0, size=(n, 120)))
    from wavetraffic.graph import build_graph_bundle

    bundle = build_graph_bundle(raw, p_sp=0.5)
    cfg = ModelConfig(nodes=n, blocks=2, width=3, heads=3, level=2, channels=2)
    stats = tr.compute_stats(raw)
    windows = tr.make_windows(tr.normalize(raw, stats)[:, None, :])
    return cfg, bundle, windows


class TestFit:
    def test_log_schema(self, toy_fit):
        _, result = toy_fit
        assert len(result.log) == 4
        for i, row in enumerate(result.log, start=1):
            assert row["epoch"] == i
            for key in ("train_loss", "val_loss", "val_mae", "wall_seconds"):
                assert np.isfinite(row[key])

    def test_loss_decreases(self, toy_fit):
        _, result = toy_fit
        assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]

    def test_best_state_tracks_minimum_val_loss(self, toy_fit, toy_setup_module):
        model, result = toy_fit
        cfg, bundle, (va_x, va_y) = toy_setup_module
        probe = Model(cfg, bundle, seed=0)
        probe.graph.load_state(result.best_state)
        best_logged = min(row["val_loss"] for row in result.log)
        val = T.huber_value(probe.predict(va_x) - va_y).mean()
        assert val == pytest.approx(best_logged, rel=1e-9)

    def test_one_validation_pass_per_epoch(self, toy_setup_module, monkeypatch):
        cfg, bundle, (x, y) = toy_setup_module
        calls = []
        real = Model.predict

        def spy(self, inputs):
            calls.append(len(inputs))
            return real(self, inputs)

        monkeypatch.setattr(Model, "predict", spy)
        va = (x[:37], y[:37])
        result = tr.fit(Model(cfg, bundle, seed=3), (x, y), va,
                        tr.TrainConfig(epochs=2, lr=1e-3, batch_size=16))
        assert len(calls) == 2 * int(np.ceil(37 / 16))
        assert sum(calls) == 2 * 37
        assert all(np.isfinite(row["val_mae"]) for row in result.log)

    def test_predict_windows_in_data_units(self, toy_fit, toy_setup_module):
        model, _ = toy_fit
        _, _, (x, y) = toy_setup_module
        stats = tr.NormalizationStats(mean=np.arange(1.0, 5.0), std=np.full(4, 2.0))
        y_data, pred_data = tr.predict_windows(model, (x[:70], y[:70]), stats)
        np.testing.assert_array_equal(y_data, y[:70] * 2.0 + np.arange(1.0, 5.0)[:, None])
        np.testing.assert_allclose(pred_data, model.predict(x[:70]) * 2.0
                                   + np.arange(1.0, 5.0)[:, None], rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self, toy_setup_module):
        cfg, bundle, windows = toy_setup_module

        def run():
            model = Model(cfg, bundle, seed=9)
            result = tr.fit(model, windows, windows,
                            tr.TrainConfig(epochs=2, lr=1e-3, batch_size=16, seed=1))
            return result.final_state

        a, b = run(), run()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_nonfinite_loss_raises(self, toy_setup_module):
        cfg, bundle, (x, y) = toy_setup_module
        model = Model(cfg, bundle, seed=5)
        bad_y = y.copy()
        bad_y[0, 0, 0] = np.nan
        with pytest.raises(TrainingError):
            tr.fit(model, (x, bad_y), (x, y), tr.TrainConfig(epochs=1, lr=1e-3))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            tr.TrainConfig(batch_size=0)
        with pytest.raises(ParameterError, match="epochs=0"):
            tr.TrainConfig(epochs=0)
        assert [f.name for f in fields(tr.TrainConfig)] == ["epochs", "lr", "batch_size", "seed"]


class TestGraphLifetime:
    def test_step_graph_freed_before_next_forward(self, toy_setup_module):
        cfg, bundle, (x, y) = toy_setup_module
        model = Model(cfg, bundle, seed=3)
        real_forward = model.forward
        outputs, alive_at_entry = [], []

        def forward(inputs, *args, **kwargs):
            alive_at_entry.append([ref() is not None for ref in outputs])
            out = real_forward(inputs, *args, **kwargs)
            outputs.append(weakref.ref(out))
            return out

        model.forward = forward
        # refcounting alone must free the graph: no cycle left for the collector
        gc.disable()
        try:
            tr.fit(model, (x[:48], y[:48]), (x[:8], y[:8]),
                   tr.TrainConfig(epochs=2, lr=1e-3, batch_size=16))
        finally:
            gc.enable()
        assert len(alive_at_entry) == 2 * (3 + 1)  # three steps and one validation batch
        for entry, alive in enumerate(alive_at_entry):
            assert not any(alive), f"forward call {entry} entered with an earlier graph alive"


def test_readme_library_quick_start_runs():
    # the documented example runs against the current API, one epoch instead of 30
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Quick start \(library\)\n+```python\n(.*?)```", readme, re.S).group(1)
    assert block.count("epochs=30") == 1
    block = block.replace("epochs=30", "epochs=1")
    namespace = {}
    exec(block, namespace)
    assert len(namespace["result"].log) == 1
    assert np.isfinite(namespace["result"].log[0]["val_loss"])
