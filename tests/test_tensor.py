import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_grads_close, composed_attention_logits, composed_gated_tanh_pool,
    composed_softmax_matmul, copying_accumulate, finite_difference, gradcheck_op,
    ref_avg_pool_last, ref_index, ref_power, ref_sigmoid, ref_sub, ref_tanh,
)
from wavetraffic import tensor as T
from wavetraffic import training
from wavetraffic.errors import DimensionError, ParameterError
from wavetraffic.model import Model
from wavetraffic.tensor import Graph, Tensor


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestMatmul:
    def test_identity(self):
        b = _rand((3, 2))
        out = T.matmul(Tensor(np.eye(3)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_evaluation(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        a = Tensor(_rand((3, 4), 1), requires_grad=True)
        b = Tensor(_rand((4, 2), 2), requires_grad=True)
        gradcheck_op(lambda: T.matmul(a, b).sum(), [a, b])

    def test_batched_gradient(self):
        a = Tensor(_rand((2, 3, 4), 3), requires_grad=True)
        b = Tensor(_rand((4, 2), 4), requires_grad=True)
        gradcheck_op(lambda: (T.matmul(a, b) * _rand((2, 3, 2), 5)).sum(), [a, b])


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_last(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        for c in (-50.0, 0.0, 123.0):
            a = T.softmax_last(Tensor([c, c + 100.0]))
            b = T.softmax_last(Tensor([0.0, 100.0]))
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_log_ratios(self):
        out = T.softmax_last(Tensor(np.log([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, values):
        out = T.softmax_last(Tensor(values)).data
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_gradient(self):
        x = Tensor(_rand((2, 5), 6), requires_grad=True)
        w = _rand((2, 5), 7)
        gradcheck_op(lambda: (T.softmax_last(x) * w).sum(), [x])


class TestLayerNorm:
    def test_constant_slice_is_zero(self):
        out = T.layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(1.0), Tensor(0.0))
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-3)

    def test_two_point_slice(self):
        # variance 1, so each entry is divided by sqrt(1 + LN_EPS)
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(1.0), Tensor(0.0))
        np.testing.assert_allclose(out.data, np.array([-1.0, 1.0]) / np.sqrt(1.0 + T.LN_EPS),
                                   rtol=1e-15, atol=0)

    def test_unit_variance(self):
        # a slice of variance v comes out with variance v / (v + LN_EPS)
        x = Tensor(_rand((16, 64), 8))
        out = T.layer_norm(x, Tensor(1.0), Tensor(0.0)).data
        v = x.data.var(axis=-1)
        np.testing.assert_allclose(out.var(axis=-1), v / (v + T.LN_EPS), rtol=1e-12, atol=0)

    def test_gradient(self):
        x = Tensor(_rand((3, 6), 9), requires_grad=True)
        gain = Tensor(np.ones(6), requires_grad=True)
        bias = Tensor(np.zeros(6), requires_grad=True)
        w = _rand((3, 6), 10)
        gradcheck_op(
            lambda: (T.layer_norm(x, gain, bias) * w).sum(), [x, gain, bias]
        )


def _composed_layer_norm(t, gain, bias, eps):
    """layer_norm as the chain of graph ops it was before it became one node."""
    centered = ref_sub(t, t.mean(axis=-1, keepdims=True))
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ref_power(var + eps, -0.5) * gain + bias


class TestLayerNormMatchesComposedOps:
    @pytest.mark.parametrize("x_shape, affine_shape", [
        ((2, 5, 4), (2, 1, 4)),  # wavelet attention: one gain per band
        ((3, 2, 2, 6), (6,)),  # gated temporal conv
        ((4, 3), ()),
    ])
    def test_output_and_gradients(self, x_shape, affine_shape):
        rng = np.random.default_rng(43)
        arrays = [rng.normal(size=x_shape), rng.normal(size=affine_shape),
                  rng.normal(size=affine_shape)]
        g = rng.normal(size=x_shape)
        results = []
        for fn in (T.layer_norm, lambda *a: _composed_layer_norm(*a, T.LN_EPS)):
            x, gain, bias = (Tensor(a, requires_grad=True) for a in arrays)
            out = fn(x, gain, bias)
            Graph().backward((out * g).sum())
            results.append((out.data, x.grad, gain.grad, bias.grad))
        (out, *grads), (ref_out, *ref_grads) = results
        np.testing.assert_array_equal(out, ref_out)
        for name, a, r in zip(("input", "gain", "bias"), grads, ref_grads):
            assert a.shape == r.shape, name
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name


def _value_and_grads(build, arrays):
    """Forward data, then the gradient of every input, of ``build(*inputs)``."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*inputs)
    g = np.random.default_rng(44).normal(size=out.shape)
    Graph().backward((out * g).sum())
    return [out.data] + [t.grad for t in inputs]


def _assert_bit_equal(fused, composed, arrays):
    got, ref = _value_and_grads(fused, arrays), _value_and_grads(composed, arrays)
    for name, a, r in zip(["output"] + [f"input {i}" for i in range(len(arrays))], got, ref):
        assert a.shape == r.shape, name
        assert np.array_equal(a, r), name


# (leading shape of q, k and v, bias shape) as the model calls the attention ops
_ATTENTION_CASES = {
    "temporal_first_block": ((2, 3, 2, 1, 5), (5, 5)),  # (J, H, B, c, M), (M, M)
    "temporal_carried": ((2, 3, 2, 2, 5), (2, 3, 2, 1, 5, 5)),  # bias (J, H, B, 1, M, M)
    "spatial": ((3, 2, 4), (3, 1, 4, 4)),  # (K, B, N), bias (K, 1, N, N)
}


class TestFusedOpsMatchComposedOps:
    @pytest.mark.parametrize("dh", [1, 11])
    @pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
    def test_attention_logits(self, case, dh):
        lead, bias_shape = _ATTENTION_CASES[case]
        rng = np.random.default_rng(dh)
        arrays = [rng.normal(size=lead + (dh,)), rng.normal(size=lead + (dh,)),
                  rng.normal(size=bias_shape)]
        scale = 1.0 / np.sqrt(dh)
        _assert_bit_equal(T.attention_logits,
                          lambda q, k, b: composed_attention_logits(q, k, b, scale), arrays)

    @pytest.mark.parametrize("dh", [1, 11])
    @pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
    def test_attention_core(self, case, dh):
        # logits -> softmax -> weights @ v, with every input's gradient
        lead, bias_shape = _ATTENTION_CASES[case]
        rng = np.random.default_rng(dh + 1)
        arrays = [rng.normal(size=lead + (dh,)) for _ in range(3)] + [rng.normal(size=bias_shape)]
        scale = 1.0 / np.sqrt(dh)
        _assert_bit_equal(lambda q, k, v, b: T.softmax_matmul(T.attention_logits(q, k, b), v),
                          lambda q, k, v, b: composed_softmax_matmul(
                              composed_attention_logits(q, k, b, scale), v), arrays)

    # c is the composed chain's split: half the channel axis, which the fused op takes itself
    @pytest.mark.parametrize("q_shape, c, window, layout", [
        ((3, 4, 8, 10), 4, 2, "conv1d"),  # a gated branch as conv1d lays it out
        ((3, 4, 8, 9), 4, 2, "conv1d"),  # a dropped remainder
        ((2, 3, 2, 6), 1, 2, "C"),  # c=1
        ((3, 2, 6, 7), 3, 3, "C"),  # window 3 with a dropped remainder
        ((2, 2, 4, 9), 2, 3, "conv1d"),
        ((2, 6, 5), 3, 1, "C"),  # window 1, no leading batch axis
    ])
    def test_gated_tanh_pool(self, q_shape, c, window, layout):
        q = np.random.default_rng(45).normal(size=q_shape)
        if layout == "conv1d":  # conv1d returns its (rows, C_out) product with axes swapped
            q = np.swapaxes(np.ascontiguousarray(np.swapaxes(q, -1, -2)), -1, -2)
        _assert_bit_equal(lambda t: T.gated_tanh_pool(t, window),
                          lambda t: composed_gated_tanh_pool(t, c, window), [q])

    def test_gated_tanh_pool_gradient_keeps_the_input_layout(self):
        q = Tensor(np.swapaxes(_rand((2, 3, 10, 8), 46), -1, -2), requires_grad=True)
        Graph().backward(T.gated_tanh_pool(q, 2).sum())
        assert q.grad.strides == q.data.strides

    def test_gated_tanh_pool_rejects_empty_window(self):
        with pytest.raises(ParameterError):
            T.gated_tanh_pool(Tensor(np.ones((4, 6))), 0)

    def test_gated_tanh_pool_rejects_odd_channel_extent(self):
        # the gate splits the channel axis in half
        with pytest.raises(DimensionError, match=r"odd channel extent in \(2, 3, 6\)"):
            T.gated_tanh_pool(Tensor(np.ones((2, 3, 6))), 2)

    def test_attention_logits_rejects_feature_mismatch(self):
        with pytest.raises(DimensionError):
            T.attention_logits(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(0.0))


class TestFusedOpGradients:
    def test_attention_logits(self):
        q = Tensor(_rand((2, 3, 4), 50), requires_grad=True)
        k = Tensor(_rand((2, 5, 4), 51), requires_grad=True)
        bias = Tensor(_rand((1, 3, 5), 52), requires_grad=True)
        w = _rand((2, 3, 5), 53)
        gradcheck_op(lambda: (T.attention_logits(q, k, bias) * w).sum(), [q, k, bias])

    def test_softmax_matmul(self):
        logits = Tensor(_rand((2, 3, 5), 54), requires_grad=True)
        v = Tensor(_rand((2, 5, 4), 55), requires_grad=True)
        w = _rand((2, 3, 4), 56)
        gradcheck_op(lambda: (T.softmax_matmul(logits, v) * w).sum(), [logits, v])

    @pytest.mark.parametrize("window", [2, 3])
    def test_gated_tanh_pool(self, window):
        # length 7 leaves a remainder for both windows
        q = Tensor(_rand((2, 3, 4, 7), 57), requires_grad=True)
        w = _rand((2, 3, 2, 7 // window), 58)
        gradcheck_op(lambda: (T.gated_tanh_pool(q, window) * w).sum(), [q])


class TestConv1d:
    def test_output_length(self):
        x = Tensor(_rand((1, 12), 11))
        k = Tensor(_rand((1, 1, 3), 12))
        assert T.conv1d(x, k, Tensor(np.zeros(1))).shape == (1, 10)

    def test_zero_input_gives_bias(self):
        k = Tensor(_rand((2, 1, 3), 13))
        bias = Tensor([0.5, -0.25])
        out = T.conv1d(Tensor(np.zeros((1, 8))), k, bias=bias).data
        np.testing.assert_allclose(out, np.array([0.5, -0.25])[:, None] * np.ones((2, 6)))

    def test_impulse_recovers_taps(self):
        taps = np.array([1.0, -2.0, 3.0])
        x = np.zeros((1, 9))
        x[0, 4] = 1.0
        out = T.conv1d(Tensor(x), Tensor(taps.reshape(1, 1, 3)), Tensor(np.zeros(1))).data[0]
        # direct valid-convolution oracle
        expected = np.array([
            sum(taps[l] * x[0, t + l] for l in range(3)) for t in range(7)
        ])
        np.testing.assert_allclose(out, expected)
        np.testing.assert_allclose(out[2:5], taps[::-1])

    def test_kernel_longer_than_input(self):
        with pytest.raises(DimensionError):
            T.conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)))

    @given(st.integers(1, 24), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_length_formula(self, m, s):
        if s > m:
            return
        out = T.conv1d(Tensor(np.zeros((1, m))), Tensor(np.zeros((1, 1, s))), Tensor(np.zeros(1)))
        assert out.shape[-1] == m - s + 1

    @pytest.mark.parametrize("bias_grad", [True, False])
    def test_gradient(self, bias_grad):
        x = Tensor(_rand((2, 2, 9), 14), requires_grad=True)
        k = Tensor(_rand((3, 2, 3), 15), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=bias_grad)
        w = _rand((2, 3, 9 - 3 + 1), 16)
        params = [x, k, b] if bias_grad else [x, k]
        gradcheck_op(lambda: (T.conv1d(x, k, b) * w).sum(), params)


def _einsum_conv1d(x, kernel, bias, g):
    """The einsum kernel conv1d used before im2col, kept as the reference:
    the output, then the input, kernel and bias gradients for upstream ``g``."""
    c_out, c_in, s = kernel.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, s, axis=-1)
    out = np.einsum("ocl,...ctl->...ot", kernel, windows) + bias[:, None]
    t_out = out.shape[-1]
    gk = np.einsum("bot,bctl->ocl", g.reshape(-1, c_out, t_out),
                   windows.reshape(-1, c_in, t_out, s))
    gx = np.zeros_like(x)
    for l in range(s):
        gx[..., l : l + t_out] += np.einsum("oc,...ot->...ct", kernel[:, :, l], g)
    gb = g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,))
    return out, gx, gk, gb


class TestConv1dMatchesEinsumKernel:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3), (2, 1, 3)])
    @pytest.mark.parametrize("bias_grad", [True, False])
    @pytest.mark.parametrize("c_out, c_in, s, length", [
        (4, 3, 3, 11),  # C_out != C_in
        (2, 5, 7, 7),  # kernel as long as the input: one output step
        (6, 6, 1, 5),
        (1, 1, 2, 9),  # one channel in and out, even kernel
        (3, 1, 4, 16),  # one input channel
        (1, 4, 5, 6),  # one output channel, two output steps
        (5, 7, 2, 3),  # C_in > C_out, even kernel
        (8, 2, 3, 64),  # long series: many windows per row block
        (16, 8, 2, 12),  # a gated branch: C_out = 2 C_in over a 12-step window
    ])
    def test_output_and_gradients(self, lead, bias_grad, c_out, c_in, s, length):
        # without a bias gradient the bias is a zero constant
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=lead + (c_in, length)), requires_grad=True)
        k = Tensor(rng.normal(size=(c_out, c_in, s)), requires_grad=True)
        b = (Tensor(rng.normal(size=c_out), requires_grad=True) if bias_grad
             else Tensor(np.zeros(c_out)))
        out = T.conv1d(x, k, b)
        g = rng.normal(size=out.shape)
        out._backward(g)
        ref = _einsum_conv1d(x.data, k.data, b.data, g)
        got = (out.data, x.grad, k.grad, b.grad)
        for name, a, r in zip(("output", "input grad", "kernel grad", "bias grad"), got, ref):
            if name == "bias grad" and not bias_grad:
                assert a is None  # the constant bias gets no gradient
                continue
            assert a.shape == r.shape, name
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name


class TestNoGrad:
    def test_records_no_graph(self):
        g = Graph()
        p = g.parameter("p", _rand((3, 4), 40))
        k = g.parameter("k", _rand((2, 3, 2), 41))
        with T.no_grad():
            out = T.conv1d(ref_tanh(p * 2.0), k, Tensor(np.zeros(2))).sum()
        assert out._node is None and out._backward is None and not out.requires_grad

    def test_mode_restored_after_nesting_and_errors(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert (p * 2.0)._backward is None  # still off after the inner block
        assert (p * 2.0)._node._parents[0] is p._node
        with pytest.raises(ValueError):
            with T.no_grad():
                raise ValueError("inside")
        assert (p * 2.0)._node._parents[0] is p._node


class TestClosuresKeepOnlyWhatTheyRead:
    """A recorded result's array lives only as long as its tensor, unless a
    backward closure reads it."""

    def test_logits_die_once_only_the_consumer_is_held(self):
        q, k, v = (Tensor(_rand(shape, seed), requires_grad=True)
                   for shape, seed in (((2, 3, 4), 64), ((2, 5, 4), 65), ((2, 5, 4), 66)))
        logits = T.attention_logits(q, k, Tensor(_rand((3, 5), 67)))
        alive = weakref.ref(logits.data)
        out = T.softmax_matmul(logits, v)
        del logits
        assert alive() is None
        Graph().backward(out.sum())
        assert all(t.grad is not None for t in (q, k, v))

    def test_matmul_with_a_constant_left_operand_keeps_neither_tensor(self):
        # the closure keeps only the constant's array, which b's gradient reads
        a = T.constant(_rand((3, 4), 68))
        x = Tensor(_rand((4, 2), 69), requires_grad=True)
        b = x * 2.0  # a recorded result, which only a gradient for ``a`` would read
        a_data, a_alive, b_alive = a.data, weakref.ref(a), weakref.ref(b.data)
        out = T.matmul(a, b)
        del a, b
        assert a_alive() is None and b_alive() is None
        Graph().backward(out.sum())
        np.testing.assert_array_equal(x.grad, (a_data.T @ np.ones((3, 2))) * 2.0)


class TestFirstAccumulation:
    @pytest.mark.parametrize("reuse_first", [False, True])
    def test_shared_upstream_view_is_copied(self, reuse_first):
        # ``a + b`` hands both leaves views of one gradient array; a later
        # accumulation into ``a`` must not leak into ``b``
        g = Graph()
        a = g.parameter("a", np.array([1.0, 2.0]))
        b = g.parameter("b", np.array([3.0, 4.0]))
        w, c = np.array([5.0, 7.0]), np.array([11.0, 13.0])
        terms = [((a + b) * w).sum(), (a * c).sum()]
        if reuse_first:
            terms.reverse()
        grads = g.backward(terms[0] + terms[1])
        np.testing.assert_array_equal(grads["a"], w + c)
        np.testing.assert_array_equal(grads["b"], w)


class TestGradientHandover:
    """A node keeps the first gradient it is handed, so each closure hands a
    parent an array that no other node holds: no two gradients may alias."""

    def test_first_gradient_is_kept(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        first, second = np.ones(3), np.full(3, 2.0)
        t._node._accumulate(first)
        assert t.grad is first
        t._node._accumulate(second)
        assert t.grad is first
        np.testing.assert_array_equal(t.grad, [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(second, [2.0, 2.0, 2.0])

    def test_numpy_scalar_becomes_an_array(self):
        t = Tensor(0.0, requires_grad=True)
        t._node._accumulate(np.float64(2.0))
        assert isinstance(t.grad, np.ndarray) and t.grad.shape == () and t.grad == 2.0

    # the last five are ops where one gradient array could reach two holders
    _CASES = ["add_self", "matmul_self_transpose", "concat_slices", "reshape_transpose",
              "parameter_twice", "add_pair", "concat_self", "attention_logits_full_bias",
              "layer_norm_full_bias", "reshape_and_matmul"]

    @staticmethod
    def _leaves_and_losses():
        a = Tensor(_rand((3, 4), 60), requires_grad=True)
        b = Tensor(_rand((4, 3), 61), requires_grad=True)

        def reshape_and_matmul():
            y = a * 2.0
            return ((y.reshape(2, 6) * _rand((2, 6), 95)).sum()
                    + (T.matmul(y, b) * _rand((3, 3), 96)).sum())

        return a, b, {
            "add_self": lambda: ((a + a) * _rand((3, 4), 62)).sum(),
            "matmul_self_transpose": lambda: (T.matmul(a, a.transpose((1, 0)))
                                              * _rand((3, 3), 63)).sum(),
            "concat_slices": lambda: (T.concat([ref_index(a, np.s_[:, 1:]),
                                                ref_index(a, np.s_[:, :3]), a], axis=1)
                                      * _rand((3, 10), 64)).sum(),
            "reshape_transpose": lambda: (a.reshape(2, 6).transpose((1, 0)).reshape(3, 4)
                                          .transpose((1, 0)) * b * _rand((4, 3), 65)).sum(),
            "parameter_twice": lambda: (ref_tanh(T.matmul(a, b)) * _rand((3, 3), 66)).sum()
                                       + T.layer_norm(b, Tensor(1.0), Tensor(0.0)).sum()
                                       + (b * b).sum(),
            "add_pair": lambda: ((a + b.transpose((1, 0))) * _rand((3, 4), 90)).sum()
                                + (a * a).sum(),
            "concat_self": lambda: (T.concat([a, a], axis=0) * _rand((6, 4), 91)).sum()
                                   + (a * b.transpose((1, 0))).sum(),
            "attention_logits_full_bias": lambda: (T.attention_logits(
                a, b.transpose((1, 0)), T.matmul(a, b)) * _rand((3, 3), 92)).sum(),
            "layer_norm_full_bias": lambda: (T.layer_norm(
                b.transpose((1, 0)), Tensor(_rand((4,), 93)), a) * _rand((3, 4), 94)).sum()
                                            + (a * a).sum(),
            "reshape_and_matmul": reshape_and_matmul,
        }

    @pytest.mark.parametrize("case", _CASES)
    def test_matches_finite_differences(self, case):
        a, b, losses = self._leaves_and_losses()
        gradcheck_op(losses[case], [a, b])

    @pytest.mark.parametrize("case", _CASES)
    def test_matches_the_copying_rule(self, case, monkeypatch):
        def grads():
            a, b, losses = self._leaves_and_losses()
            Graph().backward(losses[case]())
            return [p.grad for p in (a, b) if p.grad is not None]

        kept = grads()
        monkeypatch.setattr(T._Node, "_accumulate", copying_accumulate)
        copied = grads()
        assert len(kept) == len(copied) and all(map(np.array_equal, kept, copied))
        assert len(kept) < 2 or not np.shares_memory(*kept)

    @staticmethod
    def _shared_graph_grads():
        g = Graph()
        a = g.parameter("a", _rand((3, 4), 67))
        b = g.parameter("b", _rand((3, 4), 68))
        c = g.parameter("c", _rand((4, 4), 69))
        d = g.parameter("d", _rand((4,), 70))
        e = g.parameter("e", _rand((4,), 73))
        f = g.parameter("f", _rand((4,), 75))
        s = a + b  # both parents see one gradient array
        cat = T.concat([s, a, b.reshape(4, 3).transpose((1, 0))], axis=0)
        out = T.matmul(cat, c) + d
        loss = (T.layer_norm(out, d, d) * _rand((9, 4), 71)).sum() + (a * b).sum()
        # reached only through this sum: e's and f's gradients start as views of one array
        return g, g.backward(loss + ((e + f) * _rand((4,), 74)).sum())

    def test_rebuilt_graph_gives_equal_gradients(self):
        g, first = self._shared_graph_grads()
        first = {name: grad.copy() for name, grad in first.items()}
        g.zero_grad()
        _, second = self._shared_graph_grads()
        for name, grad in first.items():
            assert np.array_equal(grad, second[name]), name

    def test_no_two_parameter_gradients_share_memory(self):
        g, grads = self._shared_graph_grads()
        names = sorted(grads)
        for i, x in enumerate(names):
            assert grads[x] is g.parameters[x].grad
            for y in names[i + 1:]:
                assert not np.shares_memory(grads[x], grads[y]), (x, y)

    def test_model_parameter_gradients_share_no_memory(self, toy_model):
        x = np.random.default_rng(72).normal(size=(2, 4, 1, 12))
        out = toy_model.forward(x)
        grads = toy_model.graph.backward((out * out).sum())
        arrays = list(grads.values())
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)


def _same_bits(got, ref):
    """Equal shapes, equal layouts and equal bit patterns (NaNs included)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    layout = [(n, s) for n, s in zip(got.shape, got.strides) if n > 1]
    assert layout == [(n, s) for n, s in zip(ref.shape, ref.strides) if n > 1]
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(ref).view(np.uint64))


def _special_rows(length=5, seed=80):
    """Random rows, then rows of ties, infinities, NaNs, signed zeros and constants."""
    inf, nan = np.inf, np.nan
    rows = np.random.default_rng(seed).normal(size=(6, length)) * 30.0
    specials = [[1.0, 3.0, 3.0, -2.0, 3.0], [inf, 0.0, 1.0, -1.0, 2.0],
                [-inf, 0.0, 1.0, -1.0, 2.0], [inf, inf, 1.0, -inf, 0.0],
                [-inf] * 5, [nan, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, nan, -inf, inf],
                [0.0, -0.0, -0.0, 0.0, -0.0], [-0.0] * 5, [7.5] * 5, [-1e300] * 5,
                [1e308, -1e308, 1e308, 0.0, 1.0]]
    return np.concatenate([rows, np.array(specials)[:, :length]])


class TestInPlaceKernelsMatchFrozenFormulas:
    """The in-place kernels against the literal expressions they replaced.

    The composed reference ops call the same ``_softmax``, so only these
    frozen formulas can see a change in it.
    """

    @staticmethod
    def _softmax_ref(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("layout", ["C", "transposed", "strided"])
    def test_softmax(self, layout):
        x = _special_rows()
        if layout == "transposed":
            x = np.ascontiguousarray(x.T).T
        elif layout == "strided":
            x = np.repeat(x, 2, axis=-1)[:, ::2]
        with np.errstate(invalid="ignore", over="ignore"):
            _same_bits(T._softmax(x), self._softmax_ref(x))
            _same_bits(T._softmax(x.reshape(3, 6, 5)), self._softmax_ref(x.reshape(3, 6, 5)))
            _same_bits(T._softmax(x[:, :1]), self._softmax_ref(x[:, :1]))

    def test_softmax_gradient(self):
        x = _special_rows(seed=81)
        with np.errstate(invalid="ignore", over="ignore"):
            p = self._softmax_ref(x)
            for g in (_special_rows(seed=82), _special_rows(seed=83)[::-1]):
                ref = p * (g - (g * p).sum(axis=-1, keepdims=True))
                _same_bits(T._softmax_grad(p, g), ref)
                g_in = g.copy()
                out = T._softmax_grad(p, g_in, out=g_in)
                assert out is g_in
                _same_bits(out, ref)

    def test_attention_logits_data(self):
        q = _special_rows(seed=84).reshape(2, 9, 5)
        k = _special_rows(seed=85)[::-1].reshape(2, 9, 5)
        bias = np.resize(_special_rows(seed=86), (9, 9))
        with np.errstate(invalid="ignore", over="ignore"):
            ref = np.matmul(q, np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(5)) + bias
            got = T.attention_logits(Tensor(q), Tensor(k), Tensor(bias)).data
        _same_bits(got, ref)

    @pytest.mark.parametrize("affine_shape", [(5,), (3, 1, 5), ()])
    def test_layer_norm_data(self, affine_shape):
        t = _special_rows(seed=87).reshape(3, 6, 5)
        gain = np.resize(_special_rows(seed=88)[::-1], affine_shape)
        bias = np.resize(_special_rows(seed=89), affine_shape)
        eps = T.LN_EPS
        with np.errstate(invalid="ignore", over="ignore"):
            scale = 1.0 / t.shape[-1]
            centered = t - t.sum(axis=-1, keepdims=True) * scale
            inv = np.power((centered * centered).sum(axis=-1, keepdims=True) * scale + eps, -0.5)
            ref = centered * inv * gain + bias
            got = T.layer_norm(Tensor(t), Tensor(gain), Tensor(bias)).data
        _same_bits(got, ref)


class TestEverythingElseGradients:
    """Finite-difference audit of the remaining differentiable primitives."""

    def test_elementwise_chain(self):
        x = Tensor(_rand((3, 4), 17), requires_grad=True)
        y = Tensor(_rand((3, 4), 18), requires_grad=True)
        gradcheck_op(lambda: (ref_tanh(x) * ref_sigmoid(y) + T.relu(x * y)).sum(), [x, y])

    def test_einsum(self):
        a = Tensor(_rand((2, 3, 4), 19), requires_grad=True)
        b = Tensor(_rand((4, 5), 20), requires_grad=True)
        w = _rand((2, 3, 5), 21)
        gradcheck_op(lambda: (T.einsum("bij,jk->bik", a, b) * w).sum(), [a, b])

    def test_concat_slice_transpose_reshape(self):
        a = Tensor(_rand((2, 3), 22), requires_grad=True)
        b = Tensor(_rand((2, 2), 23), requires_grad=True)

        def loss():
            cat = T.concat([a, b], axis=1)
            return (ref_index(cat, np.s_[:, 1:4]).transpose((1, 0)).reshape(6)
                    * np.arange(6.0)).sum()

        gradcheck_op(loss, [a, b])

    def test_avg_pool(self):
        x = Tensor(_rand((2, 2, 10), 24), requires_grad=True)
        w = _rand((2, 2, 5), 25)
        gradcheck_op(lambda: (ref_avg_pool_last(x, 2) * w).sum(), [x])

    def test_mean_and_power(self):
        x = Tensor(np.abs(_rand((4, 4), 26)) + 0.5, requires_grad=True)
        gradcheck_op(lambda: ref_power(x, 1.7).mean(axis=1).sum(), [x])


class TestBackwardContract:
    def test_sum_gradient_is_ones(self):
        g = Graph()
        p = g.parameter("p", _rand((3, 3), 27))
        np.testing.assert_array_equal(g.backward(p.sum())["p"], np.ones((3, 3)))

    def test_huber_minimum_has_zero_gradient(self):
        g = Graph()
        target = _rand((4,), 28)
        p = g.parameter("p", target.copy())
        np.testing.assert_array_equal(g.backward(T.huber_loss(p, target))["p"], np.zeros(4))

    def test_gradients_live_on_the_leaves_only(self):
        # backward's dict is new on each call and holds the leaves' own arrays
        g = Graph()
        p = g.parameter("p", _rand((3,), 31))
        first, second = g.backward(p.sum()), g.backward(p.sum())
        assert first is not second and first["p"] is second["p"] is p.grad
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))
        g.zero_grad()
        assert p.grad is None and not hasattr(g, "gradients")

    def test_nonscalar_loss_rejected(self):
        g = Graph()
        p = g.parameter("p", np.zeros(3))
        with pytest.raises(DimensionError):
            g.backward(p * 2.0)

    def test_shared_subexpression_not_double_counted(self):
        g = Graph()
        p = g.parameter("p", np.array([2.0]))
        q = p * 3.0
        np.testing.assert_allclose(g.backward((q + q).sum())["p"], [6.0])

    def test_deterministic(self):
        def run():
            g = Graph()
            p = g.parameter("p", _rand((5,), 29))
            loss = (ref_tanh(p) * p).sum()
            return g.backward(loss)["p"]

        np.testing.assert_array_equal(run(), run())


class TestPurity:
    def test_ops_do_not_mutate_inputs(self):
        data = _rand((3, 3), 30)
        x = Tensor(data.copy())
        T.softmax_last(x)
        T.relu(x)
        T.layer_norm(x, Tensor(1.0), Tensor(0.0))
        np.testing.assert_array_equal(x.data, data)

    def test_bit_identical_reruns(self):
        x = Tensor(_rand((4, 4), 31))
        a = T.softmax_last(T.matmul(x, x)).data
        b = T.softmax_last(T.matmul(x, x)).data
        assert np.array_equal(a, b)


class TestViewsAreHandedOn:
    """``reshape`` and ``transpose`` hand their parent a view of their own
    gradient, which the parent keeps with no copy; ``concat`` hands copies."""

    @staticmethod
    def _handed_gradient(out, seed):
        """Backward from a weighted sum of ``out``; the gradient its closure got."""
        handed = []
        inner = out._backward
        out._backward = lambda g: (handed.append(g), inner(g))
        Graph().backward((out * _rand(out.shape, seed)).sum())
        return handed[0]

    @pytest.mark.parametrize("op", [lambda t: t.reshape(2, 6), lambda t: t.transpose((1, 0)),
                                    lambda t: t.reshape(12).transpose((0,)).reshape(6, 2)],
                             ids=["reshape", "transpose", "through_three_nodes"])
    def test_parent_gradient_shares_the_handed_array(self, op):
        x = Tensor(_rand((3, 4), 102), requires_grad=True)
        handed = self._handed_gradient(op(x), 103)
        assert np.shares_memory(x.grad, handed)

    def test_concat_hands_compact_copies(self):
        # the slices of the gradient have gaps: each input gets its own compact copy
        x = Tensor(_rand((3, 4), 104), requires_grad=True)
        y = Tensor(_rand((3, 2), 105), requires_grad=True)
        handed = self._handed_gradient(T.concat([x, y, x], axis=1), 106)
        for t in (x, y):
            assert t.grad.flags.c_contiguous and not np.shares_memory(t.grad, handed)


# exported by the engine but not graph ops
_ENGINE_INFRASTRUCTURE = ("Tensor", "Graph", "no_grad", "constant")
# graph ops that moved out of the engine into the test references
_REMOVED_OPS = ("tanh", "sigmoid", "avg_pool_last", "power")
_REMOVED_METHODS = ("power", "__getitem__", "__neg__", "__sub__", "__rsub__")


class TestEngineExportsOnlyRecordedOps:
    def test_every_exported_op_is_called(self, toy_setup, monkeypatch):
        ops = [name for name in T.__all__ if name not in _ENGINE_INFRASTRUCTURE]
        calls = dict.fromkeys(ops, 0)

        def counted(name, op):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return op(*args, **kwargs)
            return wrapper

        for name in ops:
            monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
        cfg, bundle = toy_setup
        rng = np.random.default_rng(90)
        x = rng.normal(size=(4, cfg.nodes, cfg.in_channels, cfg.window))
        windows = (x, rng.normal(size=(4, cfg.nodes, cfg.horizon)))
        for level in (2, 0):  # one step each
            model = Model(replace(cfg, level=level), bundle, seed=0)
            training.fit(model, windows, windows, training.TrainConfig(epochs=1, batch_size=4))
        model.forward(x, collect_attention=True)
        assert [name for name, n in calls.items() if n == 0] == []

    def test_removed_ops_are_gone(self):
        for name in _REMOVED_OPS:
            assert not hasattr(T, name), name
        for name in _REMOVED_METHODS:
            assert not hasattr(Tensor, name), name

    def test_division_by_a_tensor_is_rejected(self):
        x = Tensor(np.ones(3))
        np.testing.assert_array_equal((x / 4).data, np.full(3, 0.25))
        with pytest.raises(TypeError):
            x / Tensor(np.full(3, 2.0))

    def test_readme_names_every_exported_op(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = re.search(r"\n## Autodiff engine\n(.*?)\n## ", readme, re.S).group(1)
        listing = re.search(r"the engine exports only ops that\s+training or inference records:"
                            r"(.*?)\.\s", section, re.S).group(1)
        named = set(re.findall(r"`(\w+)`", listing))
        assert set(T.__all__) <= set(re.findall(r"`(\w+)`", section))
        assert set(T.__all__) - set(_ENGINE_INFRASTRUCTURE) <= named
        assert all(name in T.__all__ or hasattr(Tensor, name) for name in named), named
        assert named.isdisjoint(_REMOVED_OPS + _REMOVED_METHODS)
        # a removed op appears in code only where the text places it among the test references
        for paragraph in re.split(r"\n\n|\n- ", section):
            spans = " ".join(re.findall(r"`([^`]*)`", paragraph))
            if re.search(rf"\b({'|'.join(_REMOVED_OPS)})\b", spans):
                assert "tests/conftest.py" in paragraph, paragraph


class TestLoadState:
    def _graph(self):
        g = Graph()
        g.parameter("a", np.zeros(2))
        g.parameter("b", np.zeros(3))
        return g

    def test_round_trip(self):
        g = self._graph()
        g.load_state({"a": np.array([1.0, 2.0]), "b": np.ones(3)})
        np.testing.assert_array_equal(g.parameters["a"].data, [1.0, 2.0])

    def test_unknown_name_rejected(self):
        g = self._graph()
        with pytest.raises(ParameterError, match=r"1 unknown parameter\(s\): c$"):
            g.load_state({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})
        np.testing.assert_array_equal(g.parameters["a"].data, np.zeros(2))

    def test_missing_name_rejected(self):
        # a partial state would leave the missing parameter at its old values
        g = self._graph()
        with pytest.raises(ParameterError, match=r"1 missing parameter\(s\): b$"):
            g.load_state({"a": np.ones(2)})
        np.testing.assert_array_equal(g.parameters["a"].data, np.zeros(2))

    def test_shape_mismatch_replaces_nothing(self):
        g = self._graph()
        with pytest.raises(DimensionError, match="'b'"):
            g.load_state({"a": np.ones(2), "b": np.ones(4)})
        np.testing.assert_array_equal(g.parameters["a"].data, np.zeros(2))
