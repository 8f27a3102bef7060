import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import COMPOSED_OPS
from wavetraffic import tensor as T
from wavetraffic import training
from wavetraffic.errors import DimensionError, ParameterError
from wavetraffic.graph import GraphBundle, build_graph_bundle, chebyshev_basis
from wavetraffic.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from wavetraffic.tensor import Graph, Tensor


def _window_batch(cfg, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, cfg.nodes, cfg.in_channels, cfg.window))


class TestModelConfig:
    def test_default_branch_lengths(self):
        # kernels {3,5,7} with pooling 2 on a 12-step window give
        # raw lengths {10,8,6} -> pooled {5,4,3} -> concat 12
        cfg = ModelConfig(nodes=4)
        total = 0
        for s in cfg.kernel_sizes:
            raw = cfg.window - s + 1
            assert raw in (10, 8, 6)
            total += raw // cfg.pool_window
        assert total == cfg.window

    def test_rejects_width_not_divisible_by_heads(self):
        with pytest.raises(ParameterError):
            ModelConfig(nodes=4, width=32, heads=3)

    def test_rejects_width_below_cheb_order(self):
        # spatial head width width // cheb_order would be 0, its logit scale 1/sqrt(0)
        ModelConfig(nodes=4, width=3, heads=3, cheb_order=3)
        with pytest.raises(ParameterError, match="width 3 < cheb_order 4"):
            ModelConfig(nodes=4, width=3, heads=3, cheb_order=4)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ParameterError):
            ModelConfig(nodes=0)
        with pytest.raises(ParameterError):
            ModelConfig(nodes=4, level=-1)

    @pytest.mark.parametrize("level, filter_name, taps", [(4, "haar", 16), (3, "d4", 22)])
    def test_rejects_filter_wider_than_window(self, level, filter_name, taps):
        # the widest accepted levels: haar 3 (8 taps), d4 2 (10 taps)
        ModelConfig(nodes=4, level=level - 1, filter_name=filter_name)
        with pytest.raises(ParameterError, match=f"{taps} taps, more than the 12-step window"):
            ModelConfig(nodes=4, level=level, filter_name=filter_name)

    def test_rejects_unknown_filter(self):
        with pytest.raises(ParameterError, match="unknown wavelet filter 'db2'"):
            ModelConfig(nodes=4, filter_name="db2")

    def test_component_count(self):
        assert ModelConfig(nodes=4, level=2).n_components == 3
        assert ModelConfig(nodes=4, level=0).n_components == 1


class TestForward:
    def test_output_shape(self, toy_model):
        cfg = toy_model.cfg
        out = toy_model.forward(_window_batch(cfg))
        assert out.shape == (3, cfg.nodes, cfg.horizon)

    @pytest.mark.parametrize("entry", ["forward", "predict"])
    def test_single_unbatched_window_rejected(self, toy_model, entry):
        # a single window is a batch of one; (N, c0, M) is not a batch
        cfg = toy_model.cfg
        window = _window_batch(cfg, batch=1)[0]
        with pytest.raises(DimensionError, match=r"expected \(B, 4, 1, 12\), got \(4, 1, 12\)"):
            getattr(toy_model, entry)(window)
        assert getattr(toy_model, entry)(window[None]).shape == (1, cfg.nodes, cfg.horizon)

    def test_deterministic(self, toy_model):
        x = _window_batch(toy_model.cfg, seed=1)
        a = toy_model.predict(x)
        b = toy_model.predict(x)
        assert np.array_equal(a, b)

    def test_finite_output(self, toy_model):
        out = toy_model.predict(10.0 * _window_batch(toy_model.cfg, seed=2))
        assert np.all(np.isfinite(out))

    def test_shape_validation(self, toy_model):
        cfg = toy_model.cfg
        with pytest.raises(DimensionError):
            toy_model.forward(np.zeros((2, cfg.nodes + 1, cfg.in_channels, cfg.window)))
        with pytest.raises(DimensionError):
            toy_model.forward(np.zeros((cfg.nodes, cfg.in_channels, cfg.window + 1)))

    def test_batch_consistency(self, toy_model):
        # each batch element must be processed independently
        x = _window_batch(toy_model.cfg, batch=4, seed=3)
        full = toy_model.predict(x)
        for i in range(4):
            np.testing.assert_allclose(toy_model.predict(x[i:i + 1])[0], full[i], atol=1e-12)

    def test_forward_matches_looped_model(self, toy_model):
        # values of the model that looped over bands, heads and orders
        # with one parameter each, at the same seed and input
        out = toy_model.predict(np.random.default_rng(0).normal(size=(3, 4, 1, 12)))
        assert abs(out.sum() - 1.3152262538626904) < 1e-12
        np.testing.assert_allclose(
            out[0, 0, :3], [-0.1922703580145531, 0.09814262059019592, 0.4309956655653309],
            rtol=0, atol=1e-12,
        )
        assert abs(out[2, 3, -1] - 0.46704851173331097) < 1e-12

    def test_stacked_parameter_shapes(self, toy_model):
        cfg = toy_model.cfg
        j, h, n, dh, k = cfg.n_components, cfg.heads, cfg.nodes, cfg.head_width, cfg.cheb_order
        shapes = {name: p.shape for name, p in toy_model.graph.parameters.items()}
        for w in ("wq", "wk", "wv"):
            assert shapes[f"block0.wta.{w}"] == (j, h, n, dh)
        assert shapes["block0.wta.wo"] == (j, h * dh, n)
        assert shapes["block0.wta.fc_w"] == (j, n, n)
        for w in ("fc_b", "ln_gain", "ln_bias"):
            assert shapes[f"block0.wta.{w}"] == (j, 1, n)
        for w in ("wk", "wq"):
            assert shapes[f"block0.sa.{w}"] == (k, cfg.width, cfg.width // k)
        assert shapes["block0.sa.wm"] == (k, 1, n, n)
        assert shapes["block0.gc.theta"] == (k * cfg.in_channels, cfg.channels)
        assert shapes["block1.gc.theta"] == (k * cfg.channels, cfg.channels)
        assert shapes["block0.gc.bias"] == (1, 1, cfg.channels, 1)
        assert toy_model._mra_ops.shape == (j, 1, 1, cfg.window, cfg.window)
        assert toy_model._cheb.shape == (k, 1, n, n)

    def test_seed_controls_initialization(self, toy_setup):
        cfg, bundle = toy_setup
        x = _window_batch(cfg, seed=4)
        a = Model(cfg, bundle, seed=1).predict(x)
        b = Model(cfg, bundle, seed=1).predict(x)
        c = Model(cfg, bundle, seed=2).predict(x)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPredictIsGraphFree:
    def test_predict_equals_forward(self, toy_model):
        x = _window_batch(toy_model.cfg, seed=17)
        assert np.array_equal(toy_model.predict(x), toy_model.forward(x).data)
        assert np.array_equal(toy_model.predict(x[:1]), toy_model.forward(x[:1]).data)

    def test_training_step_unaffected_by_predict(self, toy_setup):
        cfg, bundle = toy_setup
        x = _window_batch(cfg, seed=18)
        target = np.random.default_rng(19).normal(size=(3, cfg.nodes, cfg.horizon))

        def step(model):
            model.graph.zero_grad()
            return model.graph.backward(T.huber_loss(model.forward(x), target))

        plain = step(Model(cfg, bundle, seed=11))
        model = Model(cfg, bundle, seed=11)
        model.predict(x)
        after_predict = step(model)
        for name, grad in plain.items():
            assert np.any(grad), name
            assert np.array_equal(after_predict[name], grad), name


# the benchmark's small config and the paper config (at a small batch)
_SCALES = {
    "small": (dict(nodes=8, channels=4, blocks=2, width=3, heads=3, level=2), 32),
    "paper": (dict(nodes=32), 2),
}


class TestFusedOpsLeaveModelBitsUnchanged:
    """The fused attention and gate nodes against the op chains they replaced."""

    @staticmethod
    def _setup(scale):
        kwargs, batch = _SCALES[scale]
        rng = np.random.default_rng(31)
        n = kwargs["nodes"]
        bundle = build_graph_bundle(np.abs(rng.normal(5.0, 1.0, size=(n, 120))), p_sp=0.25)
        cfg = ModelConfig(**kwargs)
        x = _window_batch(cfg, batch=batch, seed=32)
        target = rng.normal(size=(batch, n, cfg.horizon))
        return cfg, bundle, x, target

    @staticmethod
    def _run(cfg, bundle, x, target):
        model = Model(cfg, bundle, seed=4)
        out, collected = model.forward(x, collect_attention=True)
        grads = model.graph.backward(T.huber_loss(out, target))
        return out.data, [a.data for a in collected], grads

    @pytest.mark.parametrize("scale", sorted(_SCALES))
    def test_outputs_attention_and_gradients(self, scale, monkeypatch):
        cfg, bundle, x, target = self._setup(scale)
        fused = self._run(cfg, bundle, x, target)
        for name, op in COMPOSED_OPS.items():
            monkeypatch.setattr(T, name, op)
        composed = self._run(cfg, bundle, x, target)
        assert np.array_equal(fused[0], composed[0])
        assert len(fused[1]) == len(composed[1]) == 2 * cfg.blocks
        for got, ref in zip(fused[1], composed[1]):
            assert np.array_equal(got, ref)
            np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)
        assert fused[2].keys() == composed[2].keys()
        for name, grad in fused[2].items():
            assert np.array_equal(grad, composed[2][name]), name

    def test_training_run(self, monkeypatch):
        cfg, bundle, x, _ = self._setup("small")
        rng = np.random.default_rng(33)
        windows = (rng.normal(size=(20,) + x.shape[1:]),
                   rng.normal(size=(20, cfg.nodes, cfg.horizon)))
        train_cfg = training.TrainConfig(epochs=2, lr=1e-3, batch_size=8, seed=1)

        def run():
            return training.fit(Model(cfg, bundle, seed=4), windows, windows, train_cfg)

        fused = run()
        for name, op in COMPOSED_OPS.items():
            monkeypatch.setattr(T, name, op)
        composed = run()
        for name, value in fused.final_state.items():
            assert np.array_equal(value, composed.final_state[name]), name
        assert [r["val_mae"] for r in fused.log] == [r["val_mae"] for r in composed.log]


class TestAttentionProperties:
    def test_all_attention_rows_stochastic(self, toy_model):
        x = _window_batch(toy_model.cfg, seed=5)
        _, collected = toy_model.forward(x, collect_attention=True)
        assert collected, "expected attention tensors from every block"
        for attn in collected:
            rows = attn.data.sum(axis=-1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)
            assert np.all(attn.data >= 0.0)

    def test_collected_count(self, toy_model):
        # one temporal stack (J, H, B, c, M, M) and one spatial stack
        # (K, B, N, N) per block
        cfg = toy_model.cfg
        _, collected = toy_model.forward(_window_batch(cfg, seed=6), collect_attention=True)
        assert len(collected) == 2 * cfg.blocks
        m, n = cfg.window, cfg.nodes
        assert collected[0].shape == (cfg.n_components, cfg.heads, 3, cfg.in_channels, m, m)
        assert collected[1].shape == (cfg.cheb_order, 3, n, n)

    def test_residual_logits_thread_between_blocks(self, toy_model):
        cfg = toy_model.cfg
        x = T.constant(_window_batch(cfg, seed=7))
        zero = T.constant(np.zeros((cfg.window, cfg.window)))
        _, first = toy_model.wavelet_temporal_attention(x, zero, 0)
        assert first.shape == (cfg.n_components, cfg.heads, 3, 1, cfg.window, cfg.window)
        assert np.any(first.data != 0.0)
        # feeding the carried logits into the next block changes its output
        y_zero, _ = toy_model.wavelet_temporal_attention(x, zero, 1)
        y_carried, _ = toy_model.wavelet_temporal_attention(x, first, 1)
        assert not np.allclose(y_zero.data, y_carried.data)

    def test_component_mismatch_rejected(self, toy_model):
        cfg = toy_model.cfg
        m = cfg.window
        bad = T.constant(np.zeros((1, cfg.heads, 3, 1, m, m)))
        with pytest.raises(DimensionError):
            toy_model.wavelet_temporal_attention(
                T.constant(_window_batch(cfg, seed=8)), bad, 0
            )

    @pytest.mark.parametrize("filter_name", ["haar", "d4"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_band_operators_sum_to_identity(self, toy_setup, filter_name, level):
        # the attention's band decomposition of the window sums back to it
        cfg, bundle = toy_setup
        if (level, filter_name) == (3, "d4"):  # 22 taps: rejected before any operator is built
            with pytest.raises(ParameterError, match="22 taps"):
                replace(cfg, level=level, filter_name=filter_name)
            return
        model = Model(replace(cfg, level=level, filter_name=filter_name), bundle)
        ops = model._mra_ops.data
        assert ops.shape == (level + 1, 1, 1, cfg.window, cfg.window)
        np.testing.assert_allclose(ops.sum(axis=0)[0, 0], np.eye(cfg.window), rtol=0, atol=1e-12)


class TestChebGraphConv:
    def test_uniform_attention_matches_direct_sum(self, toy_setup, toy_model):
        cfg = toy_model.cfg
        n = cfg.nodes
        # block 0 maps the input channels to the model channels
        x = T.constant(np.random.default_rng(10).normal(size=(2, n, cfg.in_channels, cfg.window)))
        attn = T.constant(np.full((cfg.cheb_order, 2, n, n), 1.0 / n))
        out = toy_model.cheb_graph_conv(x, attn, 0).data
        # direct dense evaluation oracle
        expected = np.zeros((2, n, cfg.channels, cfg.window))
        theta = toy_model.graph.parameters["block0.gc.theta"].data
        theta = theta.reshape(cfg.cheb_order, cfg.in_channels, cfg.channels)
        basis = chebyshev_basis(toy_setup[1].laplacian, cfg.cheb_order)
        for k in range(cfg.cheb_order):
            gk = basis[k] * (1.0 / n)
            expected += np.einsum("ij,bjcm,cd->bidm", gk, x.data, theta[k])
        expected += toy_model.graph.parameters["block0.gc.bias"].data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_model_builds_basis_of_its_order(self, toy_setup, order):
        # one bundle serves every Chebyshev order the config asks for
        cfg, bundle = toy_setup
        model = Model(replace(cfg, cheb_order=order, width=order * 3, heads=3), bundle)
        expected = chebyshev_basis(bundle.laplacian, order)
        assert np.array_equal(model._cheb.data[:, 0], expected)
        assert model.predict(_window_batch(model.cfg)).shape == (3, cfg.nodes, cfg.horizon)

    def test_head_count_validated(self, toy_model):
        cfg = toy_model.cfg
        n = cfg.nodes
        x = T.constant(np.zeros((1, n, cfg.channels, cfg.window)))
        with pytest.raises(DimensionError):
            toy_model.cheb_graph_conv(x, T.constant(np.zeros((cfg.cheb_order - 1, 1, n, n))), 0)


class TestLevelZero:
    def test_disables_decomposition(self, toy_setup):
        cfg, bundle = toy_setup
        flat = Model(replace(cfg, level=0), bundle, seed=11)
        assert flat._mra_ops.shape == (1, 1, 1, cfg.window, cfg.window)
        np.testing.assert_array_equal(flat._mra_ops.data[0, 0, 0], np.eye(cfg.window))
        out = flat.predict(_window_batch(cfg, seed=12))
        assert out.shape == (3, cfg.nodes, cfg.horizon)


class TestGradientsFlowEverywhere:
    def test_every_parameter_receives_gradient(self, toy_model):
        x = _window_batch(toy_model.cfg, seed=13)
        target = np.random.default_rng(14).normal(
            size=(3, toy_model.cfg.nodes, toy_model.cfg.horizon)
        )
        loss = T.huber_loss(toy_model.forward(x), target)
        grads = toy_model.graph.backward(loss)
        assert set(grads) == set(toy_model.graph.parameters)
        dead = [name for name, g in grads.items() if not np.any(g)]
        assert not dead, f"parameters with identically zero gradient: {dead}"

    def test_full_model_gradients_match_finite_differences(self, toy_model):
        from conftest import assert_grads_close, finite_difference

        x = _window_batch(toy_model.cfg, batch=1, seed=15)
        target = np.random.default_rng(16).normal(
            size=(1, toy_model.cfg.nodes, toy_model.cfg.horizon)
        )

        def loss_value():
            return T.huber_loss(toy_model.forward(x), target).item()

        loss = T.huber_loss(toy_model.forward(x), target)
        grads = toy_model.graph.backward(loss)
        # spot-check one representative parameter from each block stage
        for name in [
            "block0.wta.wq",
            "block0.wta.wo",
            "block0.sa.wm",
            "block0.gc.theta",
            "block0.gtu.kernel0",
            "block1.gtu.res_proj" if "block1.gtu.res_proj" in grads else "block1.gc.bias",
            "pred.time_w",
        ]:
            arr = toy_model.graph.parameters[name].data
            numeric = finite_difference(loss_value, [arr])[0]
            assert_grads_close(grads[name], numeric)


class TestBackwardReleasesGradients:
    """``Graph.backward`` drops each closure's gradient once the closure has
    handed it on; leaves keep theirs."""

    @staticmethod
    def _small_step():
        cfg, bundle, x, target = TestFusedOpsLeaveModelBitsUnchanged._setup("small")
        return Model(cfg, bundle, seed=4), x, target

    def test_only_leaves_keep_a_gradient(self):
        model, x, target = self._small_step()
        loss = T.huber_loss(model.forward(x), target)
        nodes, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        model.graph.backward(loss)
        closures = [node for node in nodes if node._backward is not None]
        assert len(closures) > 100
        assert [node for node in closures if node.grad is not None] == []
        for name, p in model.graph.parameters.items():
            assert p.grad is not None and p.grad.shape == p.shape, name

    def test_second_backward_adds_the_same_gradients_again(self):
        # matmul, product and sum: two nodes between the loss and the parameters,
        # whose gradients a second pass must not find left over from the first
        g = Graph()
        a = g.parameter("a", np.random.default_rng(44).normal(size=(3, 4)))
        b = g.parameter("b", np.random.default_rng(45).normal(size=(4, 2)))
        loss = (T.matmul(a, b) * np.random.default_rng(46).normal(size=(3, 2))).sum()
        first = {name: grad.copy() for name, grad in g.backward(loss).items()}
        second = g.backward(loss)
        for name, grad in first.items():
            assert np.array_equal(second[name], 2 * grad), name

    def test_backward_peak_stays_well_below_the_forward_footprint(self):
        # the climb over the post-forward level: parameter gradients plus the
        # gradients of the nodes whose closures have not run yet
        model, x, target = self._small_step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = T.huber_loss(model.forward(x), target)
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.graph.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        retained = after_forward - before
        assert peak - after_forward <= 0.6 * retained, (peak - after_forward, retained)


class TestForwardFreesUnreadOutputs:
    """A closure keeps only the arrays its backward reads, so the outputs
    that no closure reads are freed inside the forward."""

    def test_forward_retains_less_than_its_recorded_outputs(self, monkeypatch):
        model, x, target = TestBackwardReleasesGradients._small_step()
        owned = []
        record = T.Tensor.__dict__["_result"].__func__

        def counted(data, parents, backward):
            out = record(data, parents, backward)
            if out._backward is not None and out.data.flags.owndata:
                owned.append(out.data.nbytes)
            return out

        monkeypatch.setattr(T.Tensor, "_result", staticmethod(counted))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = T.huber_loss(model.forward(x), target)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loss.requires_grad and len(owned) > 50
        assert retained <= 0.8 * sum(owned), (retained, sum(owned))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, toy_setup, toy_model, tmp_path):
        path = tmp_path / "model.bin"
        state = toy_model.graph.state()
        a_stag = toy_setup[1].a_stag
        extras = {"norm_mean": np.arange(4.0), "a_stag": a_stag}
        save_checkpoint(path, toy_model.cfg, state, extras)
        cfg2, state2, extras2 = load_checkpoint(path)
        assert cfg2 == toy_model.cfg
        assert set(state2) == set(state)
        for name, arr in state.items():
            assert np.array_equal(state2[name], arr)
        assert np.array_equal(extras2["norm_mean"], np.arange(4.0))
        assert np.array_equal(extras2["a_stag"], a_stag)

    def test_every_field_round_trips(self, tmp_path):
        default = ModelConfig(nodes=1)
        cfg = ModelConfig(nodes=5, blocks=2, width=4, heads=2, level=1, cheb_order=2,
                          channels=3, horizon=5, filter_name="d4")
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
        save_checkpoint(tmp_path / "model.bin", cfg, {})
        loaded, state, extras = load_checkpoint(tmp_path / "model.bin")
        assert loaded == cfg and state == {} and extras == {}

    def test_settable_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "nodes", "blocks", "width", "heads", "level", "cheb_order", "channels", "horizon",
            "filter_name",
        ]
        for constant in ({"pool_window": 2}, {"window": 6}, {"kernel_sizes": (3, 5)}):
            with pytest.raises(TypeError):
                ModelConfig(nodes=4, **constant)

    def test_restored_model_predicts_identically(self, toy_setup, toy_model, tmp_path):
        cfg, bundle = toy_setup
        path = tmp_path / "model.bin"
        save_checkpoint(path, cfg, toy_model.graph.state())
        cfg2, state2, _ = load_checkpoint(path)
        clone = Model(cfg2, bundle, seed=99)
        clone.graph.load_state(state2)
        x = _window_batch(cfg, seed=17)
        assert np.array_equal(toy_model.predict(x), clone.predict(x))

    def test_bundle_mismatch_rejected(self, toy_setup):
        cfg, bundle = toy_setup
        with pytest.raises(DimensionError):
            Model(replace(cfg, nodes=cfg.nodes + 1), bundle)
        wide = build_graph_bundle(np.abs(np.random.default_rng(3).normal(5, 1, (5, 40))), 0.5)
        with pytest.raises(DimensionError, match="Laplacian shape"):
            Model(cfg, GraphBundle(bundle.stad, bundle.strg, bundle.a_stag, wide.laplacian))
