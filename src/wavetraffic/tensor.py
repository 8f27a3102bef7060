"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a dynamic graph of ``Tensor`` nodes; calling
``Graph.backward`` on a scalar loss walks the graph once in reverse
topological order and runs each node's backward closure, which adds the
node's gradient into its parents. An intermediate node's gradient is
released as soon as its closure has handed it on; leaves (parameters and
tensors made with ``requires_grad=True``) keep theirs. The recorded
nodes and their data live until the caller drops the loss. Inside
``no_grad()`` operations record no graph. All arithmetic is float64 and
fully deterministic.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "Tensor",
    "Graph",
    "no_grad",
    "constant",
    "matmul",
    "einsum",
    "softmax_last",
    "attention_logits",
    "softmax_matmul",
    "gated_tanh_pool",
    "layer_norm",
    "conv1d",
    "relu",
    "concat",
    "huber_loss",
]


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph while active: results get no parents and no backward.

    For inference, where nothing calls ``Graph.backward``. The mode is per
    thread and is restored on exit, also when the block raises.
    """
    saved = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = saved


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array node in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # -- graph bookkeeping -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad, owned=False):
        """Add ``grad`` to this node's gradient.

        The first gradient is copied, since several parents may be handed
        views of one array, unless ``owned`` marks a fresh array that the
        calling closure made for this parent alone: that one is kept.
        """
        if self.grad is None:
            owned = owned and type(grad) is np.ndarray  # a full sum can give a numpy scalar
            self.grad = grad if owned else np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._result(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape), owned=True)

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / float(other))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._result(data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._result(data, (self,), backward)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), owned=True)

        return Tensor._result(data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / n


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data, name=None) -> Tensor:
    """A non-learnable graph input."""
    return Tensor(data, requires_grad=False, name=name)


# -- free functions --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched over leading axes like ``np.matmul``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionError(
            f"matmul: trailing extent of {a.shape} does not match leading extent of {b.shape}"
        )
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape), owned=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape), owned=True)

    return Tensor._result(data, (a, b), backward)


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with reverse-mode gradients.

    Restricted to specs where no index repeats within one operand and
    every operand index appears in the other operand or the output,
    which covers all contractions used by the model.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    lhs, out_sub = subscripts.replace(" ", "").split("->")
    sa, sb = lhs.split(",")
    data = np.einsum(subscripts, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out_sub},{sb}->{sa}", g, b.data), owned=True)
        if b.requires_grad:
            b._accumulate(np.einsum(f"{out_sub},{sa}->{sb}", g, a.data), owned=True)

    return Tensor._result(data, (a, b), backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._result(data, tuple(tensors), backward)


def relu(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    mask = t.data > 0
    data = np.where(mask, t.data, 0.0)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * mask, owned=True)

    return Tensor._result(data, (t,), backward)


def _softmax(x: np.ndarray) -> np.ndarray:
    """``exp(x - max) / sum`` over the last axis, in one fresh array.

    The row max is exact, so a running ``np.maximum`` over the last axis's
    slices gives the bits of ``x.max(axis=-1)`` without its short-row
    reduction; the shift, ``exp`` and division then run in place.
    """
    peak = np.array(x[..., 0])
    for j in range(1, x.shape[-1]):
        np.maximum(peak, x[..., j], out=peak)
    e = x - peak[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(p: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """``p * (g - sum(g * p))``: the gradient at the input of a softmax with
    output ``p`` and upstream ``g``, formed in ``out`` (which may be ``g``)."""
    out = np.subtract(g, (g * p).sum(axis=-1, keepdims=True), out=out)
    out *= p
    return out


def softmax_last(t: Tensor) -> Tensor:
    """Softmax along the last axis, max-shifted for stability."""
    t = _as_tensor(t)
    data = _softmax(t.data)

    def backward(g):
        if t.requires_grad:
            t._accumulate(_softmax_grad(data, g), owned=True)

    return Tensor._result(data, (t,), backward)


# The fused ops below are one graph node each. Their forward and
# backward repeat the arithmetic of the composed op chains they replace
# (kept as references in tests/conftest.py), array for array, so values
# and gradients are the same bits; the graph just keeps no intermediate
# node (and no gradient array for one).


def attention_logits(q: Tensor, k: Tensor, bias: Tensor, scale: float) -> Tensor:
    """``q @ kᵀ * scale + bias``: attention logits in one node.

    ``q`` (..., R, d) and ``k`` (..., S, d) give (..., R, S) logits;
    ``bias`` broadcasts to their shape.
    """
    q, k, bias = _as_tensor(q), _as_tensor(k), _as_tensor(bias)
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"attention_logits: feature extents of {q.shape} and {k.shape} differ")
    k_t = np.swapaxes(k.data, -1, -2)
    data = np.matmul(q.data, k_t)
    data *= scale
    data += bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        gs = g * scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(np.matmul(gs, k.data), q.shape), owned=True)
        if k.requires_grad:
            gk_t = _unbroadcast(np.matmul(np.swapaxes(q.data, -1, -2), gs), k_t.shape)
            k._accumulate(np.swapaxes(gk_t, -1, -2), owned=True)

    return Tensor._result(data, (q, k, bias), backward)


def softmax_matmul(logits: Tensor, v: Tensor) -> Tensor:
    """``softmax_last(logits) @ v`` in one node; the weights stay in the closure."""
    logits, v = _as_tensor(logits), _as_tensor(v)
    p = _softmax(logits.data)
    data = np.matmul(p, v.data)

    def backward(g):
        if v.requires_grad:
            v._accumulate(_unbroadcast(np.matmul(np.swapaxes(p, -1, -2), g), v.shape), owned=True)
        if logits.requires_grad:
            dp = np.matmul(g, np.swapaxes(v.data, -1, -2))
            logits._accumulate(_softmax_grad(p, dp, out=dp), owned=True)

    return Tensor._result(data, (logits, v), backward)


def gated_tanh_pool(q: Tensor, c: int, window: int) -> Tensor:
    """``tanh(q[..., :c, :]) * sigmoid(q[..., c:, :])`` mean-pooled over
    non-overlapping windows of the last axis (remainder dropped), in one node.

    The window mean is a sum of strided slices, added in the order of
    ``mean``'s reduction for windows below 8, then divided by ``window``.
    The gate's arrays are C-ordered whatever the layout of ``q``, so they
    line up with the pooled gradient; the backward writes both halves of
    the input gradient into one array laid out like ``q``.
    """
    q = _as_tensor(q)
    if window < 1:
        raise ParameterError(f"gated_tanh_pool: window must be >= 1, got {window}")
    n = q.shape[-1] // window * window
    th = np.tanh(q.data[..., :c, :], order="C")
    sg = np.negative(q.data[..., c:, :], order="C")
    np.exp(sg, out=sg)
    sg += 1.0
    np.divide(1.0, sg, out=sg)
    gated = th * sg
    data = gated[..., 0:n:window].copy()
    for j in range(1, window):
        data += gated[..., j:n:window]
    data /= window

    def backward(g):
        if not q.requires_grad:
            return
        gg = np.zeros_like(th)  # the gate's gradient: g / window over each window, 0 after
        gg[..., :n] = np.repeat(g / window, window, axis=-1)
        gq = np.empty_like(q.data)
        gt = gg * sg
        gt *= 1.0 - th * th
        gq[..., :c, :] = gt
        gg *= th
        gg *= sg
        gg *= 1.0 - sg
        gq[..., c:, :] = gg
        q._accumulate(gq, owned=True)

    return Tensor._result(data, (q,), backward)


def layer_norm(t: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One graph node. The forward repeats the arithmetic of the composed
    ops (mean as sum times 1/n, then the -0.5 power), so its values are
    the same bits; the backward is the closed-form layer-norm gradient.
    """
    if eps <= 0:
        raise ParameterError(f"layer_norm: eps must be positive, got {eps}")
    t, gain, bias = _as_tensor(t), _as_tensor(gain), _as_tensor(bias)
    scale = 1.0 / t.shape[-1]
    centered = t.data - t.data.sum(axis=-1, keepdims=True) * scale
    inv = np.power((centered * centered).sum(axis=-1, keepdims=True) * scale + eps, -0.5)
    normed = centered * inv
    data = normed * gain.data
    data += bias.data  # bias broadcasts to the shape of normed * gain

    def backward(g):
        if t.requires_grad:
            gn = _unbroadcast(g * gain.data, t.shape)
            dot = (gn * normed).sum(axis=-1, keepdims=True) * scale
            t._accumulate(inv * (gn - gn.sum(axis=-1, keepdims=True) * scale - normed * dot),
                          owned=True)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape), owned=True)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))

    return Tensor._result(data, (t, gain, bias), backward)


def conv1d(t: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid (no-padding) convolution along the last axis.

    ``t`` has shape (..., C_in, T), ``kernel`` (C_out, C_in, s); the
    output is (..., C_out, T_out) with T_out = T - s + 1.
    Taps are applied in cross-correlation order.

    Lowered to one matrix product (im2col): every output step's input
    window becomes one row of a (rows, C_in*s) matrix, rows running over
    the leading axes and T_out.
    """
    t, kernel = _as_tensor(t), _as_tensor(kernel)
    c_out, c_in, s = kernel.shape
    if t.shape[-2] != c_in:
        raise DimensionError(
            f"conv1d: input channels {t.shape[-2]} != kernel channels {c_in}"
        )
    length = t.shape[-1]
    if s > length:
        raise DimensionError(f"conv1d: kernel size {s} exceeds input length {length}")
    lead = t.shape[:-2]
    t_out = length - s + 1
    w = kernel.data.reshape(c_out, c_in * s)

    def columns():
        windows = np.lib.stride_tricks.sliding_window_view(t.data, s, axis=-1)
        # (..., C_in, T_out, s) windows -> (rows, C_in*s)
        return np.swapaxes(windows, -2, -3).reshape(-1, c_in * s)

    rows = columns() @ w.T  # (rows, C_out)
    if bias is not None:
        bias = _as_tensor(bias)
        rows += bias.data
    data = np.swapaxes(rows.reshape(lead + (t_out, c_out)), -1, -2)

    def backward(g):
        # the column matrix is rebuilt here rather than kept alive with the graph
        g_rows = np.swapaxes(g, -1, -2).reshape(-1, c_out)
        if kernel.requires_grad:
            kernel._accumulate((g_rows.T @ columns()).reshape(kernel.shape), owned=True)
        if t.requires_grad:
            g_cols = (g_rows @ w).reshape(lead + (t_out, c_in, s))
            gx = np.zeros_like(t.data)
            for l in range(s):  # col2im: tap l read input steps l .. l + T_out - 1
                gx[..., l : l + t_out] += np.swapaxes(g_cols[..., l], -1, -2)
            t._accumulate(gx, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_rows.sum(axis=0), owned=True)

    parents = (t, kernel) if bias is None else (t, kernel, bias)
    return Tensor._result(data, parents, backward)


def huber_loss(pred: Tensor, target, delta: float = 1.0) -> Tensor:
    """Mean Huber loss: quadratic within ``delta``, linear outside."""
    pred = _as_tensor(pred)
    target = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"huber_loss: shapes {pred.shape} and {target.shape} differ")
    if delta <= 0:
        raise ParameterError(f"huber_loss: delta must be positive, got {delta}")
    err = pred.data - target
    abs_err = np.abs(err)
    quad = abs_err <= delta
    elementwise = np.where(quad, 0.5 * err * err, delta * (abs_err - 0.5 * delta))
    data = elementwise.mean()
    n = err.size

    def backward(g):
        if pred.requires_grad:
            pred._accumulate(g * np.clip(err, -delta, delta) / n, owned=True)

    return Tensor._result(data, (pred,), backward)


class Graph:
    """Parameter registry plus the reverse pass over a recorded forward.

    Parameters are named ``Tensor``s with ``requires_grad=True``; after
    ``backward`` the gradient store maps each registered name to an
    array of the parameter's shape.
    """

    def __init__(self):
        self.parameters: dict[str, Tensor] = {}
        self.gradients: dict[str, np.ndarray] = {}

    def parameter(self, name: str, data) -> Tensor:
        if name in self.parameters:
            raise ParameterError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True, name=name)
        self.parameters[name] = t
        return t

    def zero_grad(self):
        for p in self.parameters.values():
            p.grad = None
        self.gradients = {}

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Run every closure between ``loss`` and the leaves, each once, in
        reverse topological order; returns the gradient store.

        Each closure's node gives up its gradient right after the closure
        has run: no closure reads it again, so at most the gradients of the
        nodes still waiting for their closure are alive at once. Leaves have
        no closure, so they stay out of the order and keep their gradients,
        which accumulate over calls until ``zero_grad``.
        """
        if loss.size != 1:
            raise DimensionError(f"backward: loss must be scalar, got shape {loss.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(loss, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        loss.grad = np.ones_like(loss.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None
        self.gradients = {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in self.parameters.items()
        }
        return self.gradients

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        """Replace every parameter's values; ``state`` must name exactly
        the registered parameters with their shapes. Nothing is replaced
        when the check fails."""
        unknown = sorted(set(state) - set(self.parameters))
        missing = sorted(set(self.parameters) - set(state))
        if unknown or missing:
            problems = []
            for label, names in (("unknown", unknown), ("missing", missing)):
                if names:
                    more = f" and {len(names) - 5} more" if len(names) > 5 else ""
                    problems.append(f"{len(names)} {label} parameter(s): "
                                    f"{', '.join(names[:5])}{more}")
            raise ParameterError(f"load_state: {'; '.join(problems)}")
        for name, value in state.items():
            if self.parameters[name].data.shape != np.shape(value):
                raise DimensionError(
                    f"load_state: shape mismatch for {name!r}: "
                    f"{self.parameters[name].data.shape} vs {np.shape(value)}"
                )
        for name, value in state.items():
            self.parameters[name].data = np.asarray(value, dtype=np.float64).copy()
