"""The stacked spatiotemporal forecaster.

Each block runs wavelet temporal attention (per-band multi-head
self-attention over the window, recombined by the inverse transform),
spatial attention biased by the sparse relevance mask, Chebyshev graph
convolution, and a three-branch gated temporal convolution. A final
prediction layer maps the per-node channel/time stack to the forecast
horizon. Everything is built on the reverse-mode engine in
:mod:`wavetraffic.tensor`, so one backward pass yields gradients for
every registered weight.

A checkpoint's config and the CLI's ``--config`` files are ``key=value``
lines typed by the config dataclass fields (:func:`parse_settings`).
"""

from __future__ import annotations

import dataclasses
import math
import typing
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import wavelet
from .errors import DataError, DimensionError, ParameterError
from .graph import GraphBundle, chebyshev_basis
from .tensor import Graph, Tensor

__all__ = ["ModelConfig", "Model", "save_checkpoint", "load_checkpoint", "settings_schema",
           "parse_settings", "format_settings"]


@dataclass
class ModelConfig:
    nodes: int
    blocks: int = 4
    width: int = 33  # attention embedding of the node axis; divisible by heads
    heads: int = 3
    level: int = 2  # wavelet decomposition level; 0 disables the transform
    cheb_order: int = 3
    channels: int = 32
    horizon: int = 12
    filter_name: str = "haar"

    # the gated branches' pooled lengths (12-s+1)/2 = 5, 4, 3 sum back to the window
    window: typing.ClassVar[int] = 12
    kernel_sizes: typing.ClassVar[tuple] = (3, 5, 7)
    pool_window: typing.ClassVar[int] = 2  # gated-branch average pooling
    in_channels: typing.ClassVar[int] = 1  # one volume series per sensor
    eps: typing.ClassVar[float] = 1e-8  # layer-norm variance floor

    def __post_init__(self):
        for name in ("nodes", "blocks", "width", "heads", "cheb_order",
                     "channels", "horizon"):
            if getattr(self, name) < 1:
                raise ParameterError(f"ModelConfig.{name} must be positive")
        if self.level < 0:
            raise ParameterError("ModelConfig.level must be >= 0")
        if self.width % self.heads != 0:
            raise ParameterError(
                f"width {self.width} not divisible by head count {self.heads}"
            )
        if self.width < self.cheb_order:
            raise ParameterError(
                f"width {self.width} < cheb_order {self.cheb_order} leaves the "
                f"spatial attention heads (width // cheb_order) empty"
            )
        taps = wavelet.filter_width(self.filter_name, self.level)
        if taps > self.window:
            raise ParameterError(
                f"level-{self.level} {self.filter_name} filter has {taps} taps, "
                f"more than the {self.window}-step window"
            )

    @property
    def head_width(self) -> int:
        return self.width // self.heads

    @property
    def n_components(self) -> int:
        return self.level + 1


def _uniform(rng, fan_in, shape):
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """Config + parameter registry + forward pass.

    Wavelet bands (J), attention heads (H) and Chebyshev orders (K) are
    stacked along the leading axis of each parameter and constant, so
    every block stage runs as a few batched products. Each is stored in
    the shape the forward consumes, so no reshape node is recorded for it.
    """

    def __init__(self, cfg: ModelConfig, bundle: GraphBundle, seed: int = 0):
        for name, arr in (("mask", bundle.strg.mask), ("Laplacian", bundle.laplacian.matrix)):
            if arr.shape != (cfg.nodes, cfg.nodes):
                raise DimensionError(f"{name} shape {arr.shape} != ({cfg.nodes}, {cfg.nodes})")
        self.cfg = cfg
        self.graph = Graph()
        if cfg.level > 0:
            ops = wavelet.mra_matrices(cfg.filter_name, cfg.level, cfg.window)
        else:
            ops = [np.eye(cfg.window)]
        self._mra_ops = T.constant(np.stack(ops)[:, None, None])  # (J, 1, 1, M, M)
        cheb = chebyshev_basis(bundle.laplacian, cfg.cheb_order)
        self._cheb = T.constant(cheb[:, None])  # (K, 1, N, N)
        self._mask = T.constant(bundle.strg.mask)
        self._register_parameters(np.random.default_rng(seed))

    # -- parameters --------------------------------------------------------

    def _register_parameters(self, rng):
        cfg = self.cfg
        g = self.graph
        n, d, dh, m = cfg.nodes, cfg.width, cfg.head_width, cfg.window
        heads, bands, order = cfg.heads, cfg.n_components, cfg.cheb_order
        sh = d // order
        for b in range(cfg.blocks):
            c_in = cfg.in_channels if b == 0 else cfg.channels
            c_out = cfg.channels
            qkv, wo, fc_w = [], [], []
            for _ in range(bands):
                qkv.append(_uniform(rng, n, (heads, 3, n, dh)))
                wo.append(_uniform(rng, d, (d, n)))
                fc_w.append(_uniform(rng, n, (n, n)))
            pre = f"block{b}.wta"
            for name, w in zip(("wq", "wk", "wv"), np.moveaxis(np.stack(qkv), 2, 0)):
                g.parameter(f"{pre}.{name}", w.copy())  # each (J, H, N, dh)
            g.parameter(f"{pre}.wo", np.stack(wo))  # (J, H*dh, N)
            g.parameter(f"{pre}.fc_w", np.stack(fc_w))
            g.parameter(f"{pre}.fc_b", np.zeros((bands, 1, n)))
            g.parameter(f"{pre}.ln_gain", np.ones((bands, 1, n)))
            g.parameter(f"{pre}.ln_bias", np.zeros((bands, 1, n)))
            pre = f"block{b}.sa"
            g.parameter(f"{pre}.collapse_w", _uniform(rng, c_in, (c_in,)))
            g.parameter(f"{pre}.collapse_b", np.zeros(1))
            g.parameter(f"{pre}.embed_w", _uniform(rng, m, (m, d)))
            g.parameter(f"{pre}.embed_b", np.zeros(d))
            kq, wm = [], []
            for _ in range(order):
                kq.append(_uniform(rng, d, (2, d, sh)))
                wm.append(_uniform(rng, n, (n, n)))
            for name, w in zip(("wk", "wq"), np.moveaxis(np.stack(kq), 1, 0)):
                g.parameter(f"{pre}.{name}", w.copy())  # each (K, d, sh)
            g.parameter(f"{pre}.wm", np.stack(wm)[:, None])  # (K, 1, N, N)
            pre = f"block{b}.gc"
            theta = _uniform(rng, c_in, (order, c_in, c_out))
            g.parameter(f"{pre}.theta", theta.reshape(order * c_in, c_out))
            # the full broadcast shape keeps the order the bias gradient is summed in
            g.parameter(f"{pre}.bias", np.zeros((1, 1, c_out, 1)))
            pre = f"block{b}.gtu"
            for i, s in enumerate(cfg.kernel_sizes):
                g.parameter(f"{pre}.kernel{i}", _uniform(rng, c_out * s, (2 * c_out, c_out, s)))
                g.parameter(f"{pre}.kbias{i}", np.zeros(2 * c_out))
            if c_in != c_out:
                g.parameter(f"{pre}.res_proj", _uniform(rng, c_in, (c_in, c_out)))
            g.parameter(f"{pre}.ln_gain", np.ones(m))
            g.parameter(f"{pre}.ln_bias", np.zeros(m))
        g.parameter("pred.collapse_w", _uniform(rng, cfg.channels, (cfg.channels,)))
        g.parameter("pred.collapse_b", np.zeros(1))
        g.parameter("pred.time_w", _uniform(rng, m, (m, cfg.horizon)))
        g.parameter("pred.time_b", np.zeros(cfg.horizon))

    def _p(self, name: str) -> Tensor:
        return self.graph.parameters[name]

    # -- block pieces ------------------------------------------------------

    def wavelet_temporal_attention(self, x: Tensor, a_prev: Tensor, block: int,
                                   collect: list | None = None):
        """Decompose the window, attend per band and head, recombine by summation.

        ``x`` is (B, N, c, M). ``a_prev`` holds the residual time x time
        logits: an (M, M) zero bias at the first block, then the
        channel-averaged (J, H, B, 1, M, M) logits of the block before.
        Returns (y of the same shape as ``x``, updated logits).
        """
        cfg = self.cfg
        b_sz, n, c, m = x.shape
        bands, heads, dh = cfg.n_components, cfg.heads, cfg.head_width
        carried = (bands, heads, b_sz, 1, m, m)
        if a_prev.shape not in ((m, m), carried):
            raise DimensionError(
                f"residual attention logits have shape {a_prev.shape}, "
                f"expected ({m}, {m}) or {carried}"
            )
        d_r = T.matmul(self._mra_ops, x.transpose((0, 2, 3, 1)))  # (J, B, c, M, N)
        pre = f"block{block}.wta"
        rows = d_r.reshape(bands, 1, b_sz * c * m, n)

        def project(name):  # (J, 1, B*c*M, N) @ (J, H, N, dh)
            w = self._p(f"{pre}.{name}")
            return T.matmul(rows, w).reshape(bands, heads, b_sz, c, m, dh)

        q, k, v = project("wq"), project("wk"), project("wv")
        logits = T.attention_logits(q, k, a_prev, 1.0 / np.sqrt(dh))  # (J, H, B, c, M, M)
        # carried logits stay per batch element so windows are processed
        # independently of how they are batched
        new_logits = logits.mean(axis=3, keepdims=True)
        if collect is not None:
            collect.append(T.softmax_last(logits))
        merged = (
            T.softmax_matmul(logits, v)
            .transpose((0, 2, 3, 4, 1, 5))
            .reshape(bands, b_sz * c * m, heads * dh)
        )
        merged = T.matmul(merged, self._p(f"{pre}.wo"))
        fc_in = merged + rows.reshape(bands, b_sz * c * m, n)
        fc = T.matmul(fc_in, self._p(f"{pre}.fc_w")) + self._p(f"{pre}.fc_b")
        out = T.layer_norm(fc, self._p(f"{pre}.ln_gain"), self._p(f"{pre}.ln_bias"), cfg.eps)
        combined = out.sum(axis=0).reshape(b_sz, c, m, n)
        return combined.transpose((0, 3, 1, 2)), new_logits

    def spatial_attention(self, y: Tensor, block: int) -> Tensor:
        """Row-stochastic attention per Chebyshev order, stacked (K, B, N, N)."""
        cfg = self.cfg
        pre = f"block{block}.sa"
        b_sz, n = y.shape[:2]
        order, sh = cfg.cheb_order, cfg.width // cfg.cheb_order
        y_star = y.transpose((0, 2, 1, 3))  # (B, c, N, M)
        collapsed = (
            T.einsum("bcnm,c->bnm", y_star, self._p(f"{pre}.collapse_w"))
            + self._p(f"{pre}.collapse_b")
        )
        y_e = T.einsum("bnm,md->bnd", collapsed, self._p(f"{pre}.embed_w")) + self._p(f"{pre}.embed_b")
        rows = y_e.reshape(1, b_sz * n, cfg.width)
        kh = T.matmul(rows, self._p(f"{pre}.wk")).reshape(order, b_sz, n, sh)
        qh = T.matmul(rows, self._p(f"{pre}.wq")).reshape(order, b_sz, n, sh)
        bias = self._p(f"{pre}.wm") * self._mask
        return T.softmax_last(T.attention_logits(kh, qh, bias, 1.0 / np.sqrt(sh)))

    def cheb_graph_conv(self, x: Tensor, attn: Tensor, block: int) -> Tensor:
        """z = sum_k ((T_k(Lt) * P^(k)) x) theta_k over the node axis.

        ``x`` is (B, N, c, M) and ``attn`` the (K, B, N, N) stack from
        :meth:`spatial_attention`.
        """
        cfg = self.cfg
        b_sz, n, c, m = x.shape
        order = cfg.cheb_order
        if attn.shape != (order, b_sz, n, n):
            raise DimensionError(
                f"attention stack has shape {attn.shape}, expected {(order, b_sz, n, n)}"
            )
        gk = self._cheb * attn
        xg = T.matmul(gk, x.reshape(b_sz, n, c * m))  # (K, B, N, c*M)
        # one product sums over orders and input channels together
        xg = xg.reshape(order, b_sz, n, c, m).transpose((1, 2, 4, 0, 3))
        z = T.matmul(xg.reshape(b_sz * n * m, order * c), self._p(f"block{block}.gc.theta"))
        z = z.reshape(b_sz, n, m, cfg.channels).transpose((0, 1, 3, 2))
        return z + self._p(f"block{block}.gc.bias")

    def gated_temporal_conv(self, z: Tensor, x_in: Tensor, block: int) -> Tensor:
        """Three gated tanh branches, pooled and concatenated back to M."""
        cfg = self.cfg
        pre = f"block{block}.gtu"
        c = cfg.channels
        branches = []
        for i in range(len(cfg.kernel_sizes)):
            q = T.conv1d(z, self._p(f"{pre}.kernel{i}"), bias=self._p(f"{pre}.kbias{i}"))
            branches.append(T.gated_tanh_pool(q, c, cfg.pool_window))
        z_out = T.relu(T.concat(branches, axis=-1) + z)
        if x_in.shape[2] != c:
            x_in = T.einsum("bncm,cd->bndm", x_in, self._p(f"{pre}.res_proj"))
        out = T.relu(x_in + z_out)
        return T.layer_norm(out, self._p(f"{pre}.ln_gain"), self._p(f"{pre}.ln_bias"), cfg.eps)

    # -- full network ------------------------------------------------------

    def forward(self, x, collect_attention: bool = False):
        """Map a (B, N, c0, M) batch of windows to (B, N, horizon); one
        window is the batch ``x[None]``, and any other shape raises
        ``DimensionError``. Residual attention logits start at zero and
        thread through the stacked blocks. Returns the prediction ``Tensor``
        (and, when requested, the list of all attention tensors).
        """
        cfg = self.cfg
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape[1:] != (cfg.nodes, cfg.in_channels, cfg.window):
            raise DimensionError(
                f"forward: expected (B, {cfg.nodes}, {cfg.in_channels}, {cfg.window}), "
                f"got {arr.shape}"
            )
        h = T.constant(arr)
        resid = T.constant(np.zeros((cfg.window, cfg.window)))
        collected: list[Tensor] = []
        sink = collected if collect_attention else None
        for b in range(cfg.blocks):
            y, resid = self.wavelet_temporal_attention(h, resid, b, collect=sink)
            attn = self.spatial_attention(y, b)
            z = self.cheb_graph_conv(y, attn, b)
            h = self.gated_temporal_conv(z, h, b)
            if collect_attention:
                collected.append(attn)
        pred_in = (
            T.einsum("bncm,c->bnm", h, self._p("pred.collapse_w"))
            + self._p("pred.collapse_b")
        )
        out = T.einsum("bnm,mh->bnh", pred_in, self._p("pred.time_w")) + self._p("pred.time_b")
        if collect_attention:
            return out, collected
        return out

    def predict(self, x) -> np.ndarray:
        with T.no_grad():
            return self.forward(x).data


# -- checkpointing ---------------------------------------------------------

def settings_schema(cls) -> dict[str, type]:
    """Setting name -> annotated type for every field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _text(data: bytes, source) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError:
        raise DataError(f"{source}: not UTF-8 text") from None


def parse_settings(data: bytes, schema: dict[str, type], source) -> dict:
    """Typed values of the ``key=value`` lines of ``data``.

    Blank lines and ``#`` comments are skipped. Each value is cast by its
    ``schema`` type. A line without ``=``, an unknown or repeated key and a
    value that does not cast raise ``DataError`` prefixed by ``source``.
    """
    raw = {}
    for line in _text(data, source).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise DataError(f"{source}: malformed line {line!r}")
        if key in raw:
            raise DataError(f"{source}: repeated key {key!r}")
        raw[key] = value.strip()
    unknown = [key for key in raw if key not in schema]
    if unknown:
        raise DataError(f"{source}: unknown key(s): {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        cast = schema[key]
        try:
            out[key] = cast(value)
        except ValueError:
            raise DataError(f"{source}: bad value {key}={value!r}, "
                            f"expected {cast.__name__}") from None
    return out


def format_settings(settings) -> str:
    """The ``key=value`` lines of a config dataclass, in field order."""
    return "".join(f"{f.name}={getattr(settings, f.name)}\n"
                   for f in dataclasses.fields(settings))


_MODEL_SCHEMA = settings_schema(ModelConfig)


def _zip_entry(name: str) -> zipfile.ZipInfo:
    # fixed timestamp so identical states produce byte-identical archives
    return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))


def save_checkpoint(path, cfg: ModelConfig, state: dict[str, np.ndarray],
                    extras: dict[str, np.ndarray] | None = None):
    """Single archive: config as key=value text plus raw little-endian tensors."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(_zip_entry("config.txt"), format_settings(cfg))
        entries = dict(state)
        for name, arr in (extras or {}).items():
            entries[f"extra/{name}"] = arr
        manifest = []
        for name in sorted(entries):
            arr = np.ascontiguousarray(entries[name], dtype="<f8")
            shape = ",".join(str(s) for s in arr.shape)
            manifest.append(f"{name}\t{shape}")
            zf.writestr(_zip_entry(f"tensors/{name}"), arr.tobytes())
        zf.writestr(_zip_entry("manifest.txt"), "\n".join(manifest) + "\n")


def load_checkpoint(path):
    """Returns (config, parameter state dict, extras dict).

    A file that is not a zip archive, a missing or corrupt entry, a config
    that :func:`parse_settings` rejects or that lacks ``nodes``, a manifest
    shape that is not integers, a tensor whose byte length disagrees
    with its manifest shape and a tensor (a parameter or an extra) that
    holds NaN or inf each raise ``DataError``.
    """
    try:
        zf = zipfile.ZipFile(path, "r")
    except zipfile.BadZipFile:
        raise DataError(f"{path}: not a checkpoint archive") from None

    def read(name):
        try:
            return zf.read(name)
        except KeyError:
            raise DataError(f"{path}: checkpoint has no entry {name!r}") from None
        except (zipfile.BadZipFile, zlib.error) as exc:
            raise DataError(f"{path}: {exc}") from None

    with zf:
        settings = parse_settings(read("config.txt"), _MODEL_SCHEMA, "checkpoint config")
        if "nodes" not in settings:
            raise DataError("checkpoint config: no nodes entry")
        cfg = ModelConfig(**settings)
        state, extras = {}, {}
        for line in _text(read("manifest.txt"), f"{path}: manifest").strip().splitlines():
            name, _, shape_txt = line.partition("\t")
            try:
                shape = tuple(int(s) for s in shape_txt.split(",") if s)
            except ValueError:
                raise DataError(f"{path}: manifest shape {shape_txt!r} of {name!r} "
                                f"is not integers") from None
            raw = read(f"tensors/{name}")
            if len(raw) != 8 * math.prod(shape):
                raise DataError(f"{path}: tensor {name!r} has {len(raw)} bytes, "
                                f"its manifest shape {shape} needs {8 * math.prod(shape)}")
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
            bad = arr.size - np.count_nonzero(np.isfinite(arr))
            if bad:
                raise DataError(f"{path}: tensor {name!r} has {bad} non-finite entries")
            if name.startswith("extra/"):
                extras[name[len("extra/"):]] = arr.copy()
            else:
                state[name] = arr.copy()
    return cfg, state, extras
