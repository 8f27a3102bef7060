"""Dense float64 tensors with reverse-mode automatic differentiation.

An operation on a tensor that needs a gradient records its result in a
dynamic graph: the result ``Tensor`` holds the data, and its graph node
holds no data, only the gradient, the parents' nodes and the backward
closure. Each closure keeps only the arrays its backward reads, so an
output that no closure reads is freed as soon as the forward drops its
``Tensor``; what the closures keep lives until the caller drops the loss.
Calling ``Graph.backward`` on a scalar loss walks the nodes once in
reverse topological order and runs each closure, which hands the node's
gradient on to its parents. A node keeps the first array it is handed and
adds later ones into it in place, so each closure hands each parent an
array that no other node holds and that the closure does not write after:
``+``, ``concat`` and ``attention_logits``' bias copy where two holders
would share one. An intermediate node's gradient is released as soon as
its closure has handed it on; leaves (parameters and tensors made with
``requires_grad=True``) keep theirs. Inside ``no_grad()`` operations
record no graph. All arithmetic is float64 and fully deterministic.
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

LN_EPS = 1e-8  # layer-norm variance floor
HUBER_DELTA = 1.0  # where the Huber loss turns from quadratic to linear


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


def _saved(t: "Tensor", reader: "Tensor"):
    """``t.data`` if ``reader`` has a node, since only ``reader``'s gradient
    reads it; else None, so that the closure does not keep the array."""
    return t.data if reader._node is not None else None


def _axis_order(a: np.ndarray) -> tuple:
    """The axes of ``a`` in the order that ``np.empty_like(a)`` lays out a
    fresh array: C or F when ``a`` is contiguous that way, else by falling
    stride. A closure keeps this instead of ``a`` to lay a gradient out like it."""
    if a.flags.c_contiguous:
        return tuple(range(a.ndim))
    if a.flags.f_contiguous:
        return tuple(range(a.ndim - 1, -1, -1))
    return tuple(sorted(range(a.ndim), key=lambda i: -abs(a.strides[i])))


def _new(make, shape: tuple, order: tuple) -> np.ndarray:
    """``make`` (``np.empty`` or ``np.zeros``) of ``shape``, its memory
    running over the axes in ``order``."""
    return make([shape[i] for i in order]).transpose(np.argsort(order))


class _Node:
    """The graph vertex of a tensor that needs a gradient.

    It holds no data: only the gradient, the parents' nodes and the
    backward closure, which a leaf does not have.
    """

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward

    def _accumulate(self, grad):
        """Add ``grad`` to this node's gradient: the first array is kept, not
        copied, and later ones are added into it in place. So ``grad`` must
        be held by no other node, nor written by the closure that hands it."""
        if self.grad is None:
            self.grad = np.asarray(grad)  # a full sum can give a numpy scalar
        else:
            self.grad += grad


class Tensor:
    """A float64 array, with a graph node when it needs a gradient."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

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
        return f"Tensor(shape={self.data.shape})"

    # -- graph bookkeeping: the node's fields, read through its tensor -----

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, backward):
        self._node._backward = backward

    @staticmethod
    def _result(data, parents, backward):
        """Wrap ``data``, recording a node when a parent has one.

        A closure runs only for a recorded node, so a one-input op's
        closure can take its input's node as given.
        """
        out = Tensor(data)
        if _grad_mode.enabled:
            nodes = tuple(p._node for p in parents if p._node is not None)
            if nodes:
                out._node = _Node(nodes, backward)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        data = self.data + other.data
        na, nb, sa, sb = self._node, other._node, self.shape, other.shape
        shared = na is not None and nb is not None and sa == sb == data.shape  # views of one g

        def backward(g):
            if na is not None:
                na._accumulate(_unbroadcast(g, sa))
            if nb is not None:
                nb._accumulate(np.array(g) if shared else _unbroadcast(g, sb))

        return Tensor._result(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        data = self.data * other.data
        na, nb, sa, sb = self._node, other._node, self.shape, other.shape
        a, b = _saved(self, other), _saved(other, self)

        def backward(g):
            if na is not None:
                na._accumulate(_unbroadcast(g * b, sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(g * a, sb))

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / float(other))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        node, old = self._node, self.shape
        data = self.data.reshape(shape)

        def backward(g):
            node._accumulate(g.reshape(old))

        return Tensor._result(data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        node = self._node
        data = self.data.transpose(axes)

        def backward(g):
            node._accumulate(g.transpose(inverse))

        return Tensor._result(data, (self,), backward)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        node, shape = self._node, self.shape
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            node._accumulate(np.broadcast_to(g, shape).copy())

        return Tensor._result(data, (self,), backward)

    def mean(self, axis: int, keepdims=False):
        return self.sum(axis=axis, keepdims=keepdims) / self.shape[axis]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    """A non-learnable graph input."""
    return Tensor(data, requires_grad=False)


# -- free functions --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched over leading axes like ``np.matmul``."""
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionError(
            f"matmul: trailing extent of {a.shape} does not match leading extent of {b.shape}"
        )
    data = np.matmul(a.data, b.data)
    na, nb, sa, sb = a._node, b._node, a.shape, b.shape
    a_data, b_data = _saved(a, b), _saved(b, a)

    def backward(g):
        if na is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            na._accumulate(_unbroadcast(ga, sa))
        if nb is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            nb._accumulate(_unbroadcast(gb, sb))

    return Tensor._result(data, (a, b), backward)


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with reverse-mode gradients.

    Restricted to specs where no index repeats within one operand and
    every operand index appears in the other operand or the output,
    which covers all contractions used by the model.
    """
    lhs, out_sub = subscripts.replace(" ", "").split("->")
    sa, sb = lhs.split(",")
    data = np.einsum(subscripts, a.data, b.data)
    na, nb = a._node, b._node
    a_data, b_data = _saved(a, b), _saved(b, a)

    def backward(g):
        if na is not None:
            na._accumulate(np.einsum(f"{out_sub},{sb}->{sa}", g, b_data))
        if nb is not None:
            nb._accumulate(np.einsum(f"{out_sub},{sa}->{sb}", g, a_data))

    return Tensor._result(data, (a, b), backward)


def concat(tensors, axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                node._accumulate(np.array(g[tuple(idx)]))  # the slice has gaps: copy it compact

    return Tensor._result(data, tuple(tensors), backward)


def relu(t: Tensor) -> Tensor:
    node = t._node
    mask = t.data > 0
    data = np.where(mask, t.data, 0.0)

    def backward(g):
        node._accumulate(g * mask)

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
    output ``p`` and upstream ``g``, formed in ``out`` (which may be ``g``).

    The row sums of ``g * p`` are taken one leading slice at a time, so the
    whole product is never allocated; each row sums the same products.
    """
    dot = np.empty(g.shape[:-1] + (1,))
    for i in np.ndindex(g.shape[:1] if g.ndim > 1 else ()):
        dot[i] = (g[i] * p[i]).sum(axis=-1, keepdims=True)
    out = np.subtract(g, dot, out=out)
    out *= p
    return out


def softmax_last(t: Tensor) -> Tensor:
    """Softmax along the last axis, max-shifted for stability."""
    node = t._node
    data = _softmax(t.data)

    def backward(g):
        node._accumulate(_softmax_grad(data, g))

    return Tensor._result(data, (t,), backward)


# The fused ops below are one graph node each. Their forward and
# backward repeat the arithmetic of the composed op chains they replace
# (kept as references in tests/conftest.py), array for array, so values
# and gradients are the same bits; the graph just keeps no intermediate
# node (and no gradient array for one).


def attention_logits(q: Tensor, k: Tensor, bias: Tensor) -> Tensor:
    """``q @ kᵀ / sqrt(d) + bias``: scaled dot-product attention logits in one node.

    ``q`` (..., R, d) and ``k`` (..., S, d) give (..., R, S) logits;
    ``bias`` broadcasts to their shape.
    """
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"attention_logits: feature extents of {q.shape} and {k.shape} differ")
    scale = 1.0 / np.sqrt(q.shape[-1])
    k_t = np.swapaxes(k.data, -1, -2)
    data = np.matmul(q.data, k_t)
    data *= scale
    data += bias.data
    nq, nk, nbias = q._node, k._node, bias._node
    q_shape, k_t_shape, bias_shape = q.shape, k_t.shape, bias.shape
    q_data, k_data = _saved(q, k), _saved(k, q)
    bias_view = bias_shape == data.shape  # the bias gradient is g itself, not a sum

    def backward(g):
        if nbias is not None:  # copied or summed before g scales
            nbias._accumulate(np.array(g) if bias_view else _unbroadcast(g, bias_shape))
        g *= scale  # this node's own gradient, which no one reads after this closure
        if nq is not None:
            nq._accumulate(_unbroadcast(np.matmul(g, k_data), q_shape))
        if nk is not None:
            gk_t = _unbroadcast(np.matmul(np.swapaxes(q_data, -1, -2), g), k_t_shape)
            nk._accumulate(np.swapaxes(gk_t, -1, -2))

    return Tensor._result(data, (q, k, bias), backward)


def softmax_matmul(logits: Tensor, v: Tensor) -> Tensor:
    """``softmax_last(logits) @ v`` in one node; the weights stay in the closure."""
    p = _softmax(logits.data)
    data = np.matmul(p, v.data)
    nl, nv, v_shape = logits._node, v._node, v.shape
    v_data = _saved(v, logits)

    def backward(g):
        if nv is not None:
            nv._accumulate(_unbroadcast(np.matmul(np.swapaxes(p, -1, -2), g), v_shape))
        if nl is not None:
            dp = np.matmul(g, np.swapaxes(v_data, -1, -2))
            nl._accumulate(_softmax_grad(p, dp, out=dp))

    return Tensor._result(data, (logits, v), backward)


def gated_tanh_pool(q: Tensor, window: int) -> Tensor:
    """``tanh(q[..., :c, :]) * sigmoid(q[..., c:, :])``, c half of the channel axis
    (-2), mean-pooled over non-overlapping windows of the last axis, in one node.

    The window mean (a remainder is dropped) is a sum of strided slices, added in
    the order of ``mean``'s reduction for windows below 8, then divided by ``window``.
    The gate's arrays are C-ordered whatever the layout of ``q``, so they
    line up with the pooled gradient; the backward writes both halves of
    the input gradient into one array laid out like ``q``.
    """
    if window < 1:
        raise ParameterError(f"gated_tanh_pool: window must be >= 1, got {window}")
    c, odd = divmod(q.shape[-2], 2)
    if odd:
        raise DimensionError(f"gated_tanh_pool: odd channel extent in {q.shape}")
    node, shape, order = q._node, q.shape, _axis_order(q.data)
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
        gg = np.zeros_like(th)  # the gate's gradient: g / window over each window, 0 after
        gg[..., :n] = np.repeat(g / window, window, axis=-1)
        gq = _new(np.empty, shape, order)
        gt = gg * sg
        gt *= 1.0 - th * th
        gq[..., :c, :] = gt
        gg *= th
        gg *= sg
        gg *= 1.0 - sg
        gq[..., c:, :] = gg
        node._accumulate(gq)

    return Tensor._result(data, (q,), backward)


def layer_norm(t: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One graph node. The forward repeats the arithmetic of the composed
    ops (mean as sum times 1/n, then the -0.5 power), so its values are
    the same bits; the backward is the closed-form layer-norm gradient.
    """
    scale = 1.0 / t.shape[-1]
    centered = t.data - t.data.sum(axis=-1, keepdims=True) * scale
    inv = np.power((centered * centered).sum(axis=-1, keepdims=True) * scale + LN_EPS, -0.5)
    normed = centered * inv
    data = normed * gain.data
    data += bias.data  # bias broadcasts to the shape of normed * gain
    nt, ngain, nbias = t._node, gain._node, bias._node
    t_shape, gain_shape, bias_shape = t.shape, gain.shape, bias.shape
    gain_data = _saved(gain, t)

    def backward(g):
        if nt is not None:
            gn = _unbroadcast(g * gain_data, t_shape)
            dot = (gn * normed).sum(axis=-1, keepdims=True) * scale
            nt._accumulate(inv * (gn - gn.sum(axis=-1, keepdims=True) * scale - normed * dot))
        if ngain is not None:
            ngain._accumulate(_unbroadcast(g * normed, gain_shape))
        if nbias is not None:
            nbias._accumulate(_unbroadcast(g, bias_shape))

    return Tensor._result(data, (t, gain, bias), backward)


def conv1d(t: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Valid (no-padding) convolution along the last axis.

    ``t`` has shape (..., C_in, T), ``kernel`` (C_out, C_in, s) and ``bias``
    (C_out,); the output is (..., C_out, T_out) with T_out = T - s + 1.
    Taps are applied in cross-correlation order.

    Lowered to one matrix product (im2col): every output step's input
    window becomes one row of a (rows, C_in*s) matrix, rows running over
    the leading axes and T_out.
    """
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

    def columns(x):
        windows = np.lib.stride_tricks.sliding_window_view(x, s, axis=-1)
        # (..., C_in, T_out, s) windows -> (rows, C_in*s)
        return np.swapaxes(windows, -2, -3).reshape(-1, c_in * s)

    rows = columns(t.data) @ w.T  # (rows, C_out)
    rows += bias.data
    data = np.swapaxes(rows.reshape(lead + (t_out, c_out)), -1, -2)
    nt, nk, nb = t._node, kernel._node, bias._node
    t_shape, t_order, k_shape = t.shape, _axis_order(t.data), kernel.shape
    x = _saved(t, kernel)

    def backward(g):
        # the column matrix is rebuilt here rather than kept alive with the graph
        g_rows = np.swapaxes(g, -1, -2).reshape(-1, c_out)
        if nk is not None:
            nk._accumulate((g_rows.T @ columns(x)).reshape(k_shape))
        if nt is not None:
            g_cols = (g_rows @ w).reshape(lead + (t_out, c_in, s))
            gx = _new(np.zeros, t_shape, t_order)
            for l in range(s):  # col2im: tap l read input steps l .. l + T_out - 1
                gx[..., l : l + t_out] += np.swapaxes(g_cols[..., l], -1, -2)
            nt._accumulate(gx)
        if nb is not None:
            nb._accumulate(g_rows.sum(axis=0))

    return Tensor._result(data, (t, kernel, bias), backward)


def huber_value(err: np.ndarray) -> np.ndarray:
    """Elementwise Huber value: quadratic within ``HUBER_DELTA``, linear outside.
    The one formula of :func:`huber_loss` and ``fit``'s validation loss."""
    a = np.abs(err)
    return np.where(a <= HUBER_DELTA, 0.5 * err * err, HUBER_DELTA * (a - 0.5 * HUBER_DELTA))


def huber_loss(pred: Tensor, target) -> Tensor:
    """Mean Huber loss (:func:`huber_value`) with gradient clip(err) / n."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"huber_loss: shapes {pred.shape} and {target.shape} differ")
    node = pred._node
    err = pred.data - target

    def backward(g):
        node._accumulate(g * np.clip(err, -HUBER_DELTA, HUBER_DELTA) / err.size)

    return Tensor._result(huber_value(err).mean(), (pred,), backward)


class Graph:
    """Parameter registry plus the reverse pass over a recorded forward.

    Parameters are ``Tensor``s with ``requires_grad=True``, registered by
    name; each keeps its gradient in ``.grad``.
    """

    def __init__(self):
        self.parameters: dict[str, Tensor] = {}

    def parameter(self, name: str, data) -> Tensor:
        if name in self.parameters:
            raise ParameterError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self.parameters[name] = t
        return t

    def zero_grad(self):
        for p in self.parameters.values():
            p.grad = None

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Run every closure between ``loss`` and the leaves, each once, in
        reverse topological order over the graph nodes; returns a new dict
        of each parameter's gradient by name, zeros where none reached it.

        Each closure's node gives up its gradient right after the closure
        has run: no closure reads it again, so at most the gradients of the
        nodes still waiting for their closure are alive at once. Leaves have
        no closure, so they stay out of the order and keep their gradients,
        which accumulate over calls until ``zero_grad``.
        """
        if loss.size != 1:
            raise DimensionError(f"backward: loss must be scalar, got shape {loss.shape}")
        root = loss._node if loss._node is not None else _Node()  # a graph-free loss: no closure
        topo: list[_Node] = []
        seen = set()
        stack = [(root, False)]
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
        root.grad = np.ones_like(loss.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None
        return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in self.parameters.items()}

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
