import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from wavetraffic import conformal as cf
from wavetraffic import tensor as T
from wavetraffic.graph import build_graph_bundle
from wavetraffic.model import Model, ModelConfig


def finite_difference(fn, arrays, h=1e-5):
    """Central finite-difference gradients of scalar fn(*arrays).

    Independent oracle for every reverse-mode check: perturbs each entry
    of each array in place and differences the scalar output.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = fn()
            flat[i] = old - h
            down = fn()
            flat[i] = old
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), atol)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() <= rtol, f"max relative gradient error {rel.max():.3g}"


def gradcheck_op(build_loss, params, rtol=1e-4):
    """Check reverse-mode grads of a scalar-producing op against the oracle.

    ``params`` are Tensors with requires_grad set; ``build_loss`` must
    recompute the scalar loss Tensor from their current data.
    """
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.grad = None
    g = T.Graph()
    g.backward(loss)
    numeric = finite_difference(lambda: build_loss().item(), [p.data for p in params])
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert_grads_close(analytic, num, rtol=rtol)


def copying_accumulate(node, grad):
    """The engine's earlier ownership rule, for bit-for-bit comparisons: a
    node copies every first gradient (``np.array``, which keeps the layout)
    instead of keeping the array it is handed. Monkeypatch it over
    ``tensor._Node._accumulate``."""
    if node.grad is None:
        node.grad = np.array(grad, dtype=np.float64)
    else:
        node.grad += grad


# Graph ops that no model code records, kept here as references for the
# composed chains and the gradient checks. Each records one node through
# ``Tensor._result`` with the forward and backward arithmetic the engine
# used when it exported them, so the chains below keep their bits.


def ref_neg(t):
    t = T._as_tensor(t)

    def backward(g):
        if t.requires_grad:
            t._node._accumulate(-g)

    return T.Tensor._result(-t.data, (t,), backward)


def ref_sub(a, b):
    """``a - b`` as ``a + (-b)``."""
    return T._as_tensor(a) + ref_neg(b)


def ref_power(t, exponent):
    t = T._as_tensor(t)
    data = np.power(t.data, exponent)

    def backward(g):
        if t.requires_grad:
            t._node._accumulate(g * exponent * np.power(t.data, exponent - 1.0))

    return T.Tensor._result(data, (t,), backward)


def ref_index(t, key):
    """``t[key]``; the gradient is scattered into zeros shaped like ``t``."""
    t = T._as_tensor(t)
    data = t.data[key]

    def backward(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[key] = g
            t._node._accumulate(full)

    return T.Tensor._result(data, (t,), backward)


def ref_tanh(t):
    t = T._as_tensor(t)
    data = np.tanh(t.data)

    def backward(g):
        if t.requires_grad:
            t._node._accumulate(g * (1.0 - data * data))

    return T.Tensor._result(data, (t,), backward)


def ref_sigmoid(t):
    t = T._as_tensor(t)
    data = 1.0 / (1.0 + np.exp(-t.data))

    def backward(g):
        if t.requires_grad:
            t._node._accumulate(g * data * (1.0 - data))

    return T.Tensor._result(data, (t,), backward)


def ref_avg_pool_last(t, window):
    """Non-overlapping mean pooling along the last axis (remainder dropped)."""
    t = T._as_tensor(t)
    length = t.shape[-1]
    t_out = length // window
    trimmed = t.data[..., : t_out * window]
    data = trimmed.reshape(t.shape[:-1] + (t_out, window)).mean(axis=-1)

    def backward(g):
        if t.requires_grad:
            gx = np.zeros_like(t.data)
            expanded = np.repeat(g[..., None], window, axis=-1) / window
            gx[..., : t_out * window] = expanded.reshape(t.shape[:-1] + (t_out * window,))
            t._node._accumulate(gx)

    return T.Tensor._result(data, (t,), backward)


# The fused tensor ops as the chains of graph ops they replaced: each fused
# op must match its chain bit for bit, forward and backward.


def composed_attention_logits(q, k, bias, scale):
    axes = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    return T.matmul(q, k.transpose(axes)) * scale + bias


def composed_softmax_matmul(logits, v):
    return T.matmul(T.softmax_last(logits), v)


def composed_gated_tanh(q, c):
    return ref_tanh(ref_index(q, np.s_[..., :c, :])) * ref_sigmoid(ref_index(q, np.s_[..., c:, :]))


def composed_gated_tanh_pool(q, c, window):
    return ref_avg_pool_last(composed_gated_tanh(q, c), window)


# the composed chains under the fused ops' signatures: the scale is 1/sqrt of
# the feature extent, and the gate splits the channel axis in half
COMPOSED_OPS = {
    "attention_logits": lambda q, k, bias: composed_attention_logits(
        q, k, bias, 1.0 / np.sqrt(q.shape[-1])),
    "softmax_matmul": composed_softmax_matmul,
    "gated_tanh_pool": lambda q, window: composed_gated_tanh_pool(q, q.shape[-2] // 2, window),
}


# The sequential conformal rule one stream at a time, kept as the reference
# that ``conformal.calibrate_stream`` must match bit for bit on every stream.


@dataclass
class ConformalCalibrator:
    """Sequential score window for one forecast stream.

    Seed it with calibration-split residuals, then alternate
    ``bounds`` / ``update`` in time order over the test stream.
    """

    window: int = 288
    beta: float = 0.1
    scores: list = field(default_factory=list)
    abs_residuals: list = field(default_factory=list)

    XI_FLOOR = 1e-8

    def seed(self, y_cal, pred_cal):
        for y, p in zip(y_cal, pred_cal):
            self.update(y, p)

    def _xi(self) -> float:
        return max(float(np.mean(self.abs_residuals[-self.window :])), self.XI_FLOOR)

    def bounds(self, pred: float):
        """(lo, hi) for the next forecast given the current window."""
        xi = self._xi()
        cq = float(cf.weighted_quantile(self.scores[-self.window :], self.beta))
        if math.isinf(cq):
            return -math.inf, math.inf
        half = cq * xi
        return float(pred - half), float(pred + half)

    def update(self, y: float, pred: float):
        resid = abs(float(y) - float(pred))
        # first observation has no past scale; its score carries no information
        self.scores.append(resid / self._xi() if self.abs_residuals else 0.0)
        self.abs_residuals.append(resid)


def per_stream_bands(y_cal, p_cal, y_test, p_test, window, beta):
    """(lo, hi) shaped like ``y_test``: one calibrator per stream, bounds then update."""
    lo = np.empty_like(y_test)
    hi = np.empty_like(y_test)
    for ix in np.ndindex(y_test.shape[1:]):
        stream = (slice(None),) + ix
        cal = ConformalCalibrator(window=window, beta=beta)
        cal.seed(y_cal[stream], p_cal[stream])
        for t in range(len(y_test)):
            lo[(t,) + ix], hi[(t,) + ix] = cal.bounds(p_test[(t,) + ix])
            cal.update(y_test[(t,) + ix], p_test[(t,) + ix])
    return lo, hi


@pytest.fixture(scope="session")
def toy_setup():
    """Small graph bundle + config used by most model tests."""
    rng = np.random.default_rng(7)
    n = 4
    train = np.abs(rng.normal(5.0, 1.0, size=(n, 120)))
    bundle = build_graph_bundle(train, p_sp=0.5)
    cfg = ModelConfig(nodes=n, blocks=2, width=3, heads=3, level=2, channels=2)
    return cfg, bundle


@pytest.fixture()
def toy_model(toy_setup):
    cfg, bundle = toy_setup
    return Model(cfg, bundle, seed=11)
