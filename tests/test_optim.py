import numpy as np
import pytest

from wavetraffic import tensor as T
from wavetraffic.errors import DimensionError, TrainingError
from wavetraffic.optim import AdamState, adam_step
from wavetraffic.tensor import Tensor


class TestHuberLoss:
    def test_zero_at_perfect_prediction(self):
        x = np.random.default_rng(0).normal(size=(5,))
        assert T.huber_loss(Tensor(x), x).item() == 0.0

    def test_quadratic_branch(self):
        assert T.huber_loss(Tensor([1.0]), np.array([0.0])).item() == pytest.approx(0.5)

    def test_linear_branch(self):
        # delta * (|e| - delta/2) = 1 * (3 - 0.5)
        assert T.huber_loss(Tensor([3.0]), np.array([0.0])).item() == pytest.approx(2.5)

    def test_continuity_at_delta(self):
        lo = T.huber_loss(Tensor([1.0 - 1e-9]), np.array([0.0])).item()
        hi = T.huber_loss(Tensor([1.0 + 1e-9]), np.array([0.0])).item()
        assert abs(lo - hi) < 1e-8

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            T.huber_loss(Tensor([1.0, 2.0]), np.array([1.0]))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = {"w": np.array([1.0, -2.0])}
        out = adam_step(p, {"w": np.zeros(2)}, AdamState(lr=1e-2))
        np.testing.assert_array_equal(out["w"], p["w"])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) on step one
        lr = 1e-4
        p = {"w": np.array([0.3, -0.7])}
        g = {"w": np.array([2.5, -0.01])}
        out = adam_step(p, g, AdamState(lr=lr))
        np.testing.assert_allclose(np.abs(out["w"] - p["w"]), lr, rtol=1e-6)
        assert np.all(np.sign(p["w"] - out["w"]) == np.sign(g["w"]))

    def test_quadratic_descent_monotone(self):
        # scalar simulation oracle: f(x) = x^2 with true gradients
        state = AdamState(lr=5e-2)
        x = np.array([3.0])
        values = []
        for _ in range(100):
            out = adam_step({"x": x}, {"x": 2.0 * x}, state)
            x = out["x"]
            values.append(float(x[0] ** 2))
        diffs = np.diff(values[2:])
        assert np.all(diffs < 0)

    def test_step_counter_increments(self):
        state = AdamState()
        for expected in (1, 2, 3):
            adam_step({"x": np.zeros(1)}, {"x": np.ones(1)}, state)
            assert state.step == expected

    def test_nonfinite_gradient_names_parameter(self):
        with pytest.raises(TrainingError, match="bad_param"):
            adam_step({"bad_param": np.zeros(1)}, {"bad_param": np.array([np.nan])},
                      AdamState())

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())
