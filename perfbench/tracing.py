"""Spans recorded around calls into the wavetraffic modules.

The traced run installs wrappers from here onto the names each caller
resolves (``training.adam_step``, ``cli.build_graph_bundle``,
``tensor.einsum`` as seen through ``T.einsum``, ...). Nothing inside
``src/`` changes: a wrapper replaces a module or class attribute for the
duration of the run and :meth:`Tracer.uninstall` puts the original back.

Two kinds of record are kept in memory and written out when the run ends:

* a *span* for each call at a layer boundary: id, parent id, name,
  start, end, plus optional attributes (bytes, windows);
* *leaf* totals for calls too frequent to keep one by one (``einsum``,
  ``conv1d``, ``stad_distance``, ``weighted_quantile``, backward
  closures): count and seconds, summed per name into the innermost span
  open at the time of the call.

A span's self time is its duration minus its child spans and the leaf
time recorded directly under it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

STAGES = {
    "wavelet_temporal_attention": "wta",
    "spatial_attention": "sa",
    "cheb_graph_conv": "gc",
    "gated_temporal_conv": "gtu",
}
STAGE_NAMES = ("wta", "sa", "gc", "gtu", "head")
CLI_STAGES = ("build-graph", "forecast", "conformal", "evaluate")
WINDOWS_PER_PREDICT = 64  # model.predict_s is reported per this many windows


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "leaf", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.leaf = defaultdict(lambda: [0, 0.0])
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.stage = None  # model stage whose method is running, for backward attribution
        self.op = "other"  # tensor op running, for backward attribution
        self._patches = []
        self.open("bench.run")

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order (top {popped.name!r})")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def leaf(self, name: str, seconds: float, count: int = 1):
        entry = self.stack[-1].leaf[name]
        entry[0] += count
        entry[1] += seconds

    def finish(self):
        while self.stack:
            self.close(self.stack[-1])

    def write(self, path):
        """One JSON object per span, in opening order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "leaf": {k: v for k, v in s.leaf.items()},
                    "attrs": s.attrs,
                }) + "\n")

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def spanned(self, owner, attr, name, note=None, stage=None):
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``note(args, result)`` returns attributes stored on the span;
        ``stage`` marks tensors created inside the call for backward
        attribution.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = tracer.stage
            if stage is not None:
                tracer.stage = stage
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
                tracer.stage = saved
            if note is not None:
                span.attrs.update(note(args, result))
            return result

        self._patch(owner, attr, wrapper)

    def leafed(self, owner, attr, name, op=None):
        """Replace ``owner.attr`` by a wrapper that adds to leaf totals."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = tracer.op
            if op is not None:
                tracer.op = op
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(name, perf_counter() - t0)
                tracer.op = saved

        self._patch(owner, attr, wrapper)

    def install(self):
        """Wrap every traced name of the ``wavetraffic`` package.

        ``optim.adam_step`` is wrapped as ``training.adam_step``, the name
        ``fit`` resolves.
        """
        from wavetraffic import cli, conformal, data_io, evalbench, graph, model, tensor, training, wavelet

        size_of = lambda path: os.path.getsize(path) if os.path.exists(path) else 0

        # tensor: per-op leaves, the node hook and the Graph methods of a step
        self.leafed(tensor, "einsum", "tensor.einsum", op="einsum")
        self.leafed(tensor, "conv1d", "tensor.conv1d", op="conv1d")
        self._hook_results(tensor.Tensor)
        self._hook_step(tensor.Graph)
        self.spanned(tensor.Graph, "backward", "tensor.backward")
        self.spanned(tensor.Graph, "state", "tensor.state")

        # model: forward, predict and the four stage methods
        self.spanned(model.Model, "forward", "model.forward", stage="head")
        self.spanned(model.Model, "predict", "model.predict",
                     note=lambda a, r: {"windows": len(r)})
        for method, stage in STAGES.items():
            self.spanned(model.Model, method, f"model.{stage}", stage=stage)
        self.spanned(cli, "load_checkpoint", "model.load_checkpoint")
        self.spanned(wavelet, "mra_matrices", "wavelet.mra_matrices")

        # training and optim
        self.spanned(training, "fit", "training.fit")
        self.spanned(training, "make_windows", "training.make_windows")
        self.spanned(training, "adam_step", "optim.adam_step")

        # graph, under both the names graph.py and cli.py resolve
        self.spanned(graph, "build_graph_bundle", "graph.build_graph_bundle")
        self.spanned(cli, "build_graph_bundle", "graph.build_graph_bundle")
        self.spanned(graph, "build_stad", "graph.build_stad")
        self.leafed(graph, "stad_distance", "graph.stad_distance")
        self.spanned(graph, "sparsify", "graph.sparsify")
        self.spanned(graph, "scaled_laplacian", "graph.scaled_laplacian")
        self.spanned(cli, "scaled_laplacian", "graph.scaled_laplacian")

        # conformal, as cli.py resolves it through ``cp``
        self.spanned(conformal, "calibrate_stream", "conformal.calibrate_stream")
        self.leafed(conformal, "weighted_quantile", "conformal.weighted_quantile")
        self.leafed(conformal, "empirical_coverage", "conformal.empirical_coverage")

        # data_io, with the bytes each call moved
        self.spanned(data_io, "load_csv", "data_io.load_csv",
                     note=lambda a, r: {"bytes_read": size_of(a[0])})
        self.spanned(data_io, "load_forecasts", "data_io.load_forecasts",
                     note=lambda a, r: {"bytes_read": size_of(a[0])})
        self.spanned(data_io, "save_forecasts", "data_io.save_forecasts",
                     note=lambda a, r: {"bytes_written": size_of(a[0])})

        # evalbench, as cli.py resolves it by attribute
        for fn in ("mae", "mape", "rmse", "stepwise_errors"):
            self.leafed(evalbench, fn, "evalbench.metrics")

    def _hook_results(self, tensor_cls):
        """Tag every recorded node with the stage and op that created it.

        The node's ``_backward`` closure is wrapped so its time is charged
        to ``backward.<stage>.<op>`` under the span running the backward
        pass; each node also adds one to the ``tensor.node`` count.
        """
        orig = tensor_cls.__dict__["_result"].__func__
        tracer = self

        def result(data, parents, backward):
            out = orig(data, parents, backward)
            inner = out._backward
            if inner is not None:
                key = f"backward.{tracer.stage or 'loss'}.{tracer.op}"
                tracer.leaf("tensor.node", 0.0)

                def timed(g):
                    t0 = perf_counter()
                    inner(g)
                    tracer.leaf(key, perf_counter() - t0)

                out._backward = timed
            return out

        self._patch(tensor_cls, "_result", staticmethod(result))

    def _hook_step(self, graph_cls):
        """Open ``training.step`` at ``zero_grad`` and close it after ``load_state``.

        ``fit`` calls ``zero_grad`` first and ``load_state`` last in every
        step, so the step span covers forward, loss, backward, the state
        copy and the Adam update.
        """
        tracer = self
        zero_grad = graph_cls.zero_grad
        load_state = graph_cls.load_state

        def traced_zero_grad(graph):
            if tracer.stack[-1].name == "training.fit":
                tracer.open("training.step")
            with tracer.span("tensor.zero_grad"):
                zero_grad(graph)

        def traced_load_state(graph, state):
            with tracer.span("tensor.load_state"):
                load_state(graph, state)
            if tracer.stack[-1].name == "training.step":
                tracer.close(tracer.stack[-1])

        self._patch(graph_cls, "zero_grad", traced_zero_grad)
        self._patch(graph_cls, "load_state", traced_load_state)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# -- per-layer metrics from the span tree -----------------------------------


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def named(self, name, within=None):
        pool = self.subtree(within) if within is not None else self.spans
        return [s for s in pool if s.name == name]

    def subtree(self, span):
        out, todo = [], [span]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children[s.id])
        return out

    def span_time(self, name, within) -> float:
        return sum(s.duration for s in self.named(name, within))

    def leaf_total(self, prefix, within, index) -> float:
        """Sum of leaf counts (index 0) or seconds (index 1) whose name starts with ``prefix``."""
        return sum(v[index] for s in self.subtree(within)
                   for k, v in s.leaf.items() if k.startswith(prefix))

    def attr_total(self, attr, within) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.subtree(within))

    def self_time(self, span) -> float:
        kids = sum(c.duration for c in self.children[span.id])
        leaves = sum(v[1] for v in span.leaf.values())
        return span.duration - kids - leaves


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def per_layer(spans) -> dict[str, float]:
    """Reduce a finished trace to the per-layer metrics of BENCHMARK.json.

    Units of reduction: per training step, per ``fit`` call, per set-up,
    per pipeline pass or per CLI stage, each reported as the median over
    the run. A layer the workload never calls reports 0.
    """
    tree = SpanTree(spans)
    m: dict[str, float] = {}

    # -- training steps: tensor, optim, model stages -------------------------
    steps = tree.named("training.step")
    per_step = defaultdict(list)
    for step in steps:
        fwd = tree.named("model.forward", step)
        fwd_s = sum(s.duration for s in fwd)
        per_step["training.step_s"].append(step.duration)
        per_step["tensor.graph_nodes"].append(tree.leaf_total("tensor.node", step, 0))
        for op in ("einsum", "conv1d"):
            per_step[f"tensor.{op}.calls"].append(tree.leaf_total(f"tensor.{op}", step, 0))
            per_step[f"tensor.{op}.fwd_s"].append(
                sum(tree.leaf_total(f"tensor.{op}", f, 1) for f in fwd))
            per_step[f"tensor.{op}.bwd_s"].append(
                sum(tree.leaf_total(f"backward.{st}.{op}", step, 1)
                    for st in STAGE_NAMES + ("loss",)))
        per_step["tensor.other.fwd_s"].append(
            fwd_s - per_step["tensor.einsum.fwd_s"][-1] - per_step["tensor.conv1d.fwd_s"][-1])
        per_step["tensor.other.bwd_s"].append(
            sum(tree.leaf_total(f"backward.{st}.other", step, 1)
                for st in STAGE_NAMES + ("loss",)))
        per_step["tensor.backward_s"].append(tree.span_time("tensor.backward", step))
        per_step["tensor.state_copy_s"].append(
            tree.span_time("tensor.state", step) + tree.span_time("tensor.load_state", step))
        per_step["optim.adam_step_s"].append(tree.span_time("optim.adam_step", step))
        staged = 0.0
        for stage in STAGE_NAMES[:-1]:
            t = tree.span_time(f"model.{stage}", step)
            staged += t
            per_step[f"model.{stage}.fwd_s"].append(t)
        per_step["model.head.fwd_s"].append(fwd_s - staged)
        for stage in STAGE_NAMES:
            per_step[f"model.{stage}.bwd_s"].append(tree.leaf_total(f"backward.{stage}.", step, 1))

    for key in ("tensor.einsum.calls", "tensor.einsum.fwd_s", "tensor.einsum.bwd_s",
                "tensor.conv1d.calls", "tensor.conv1d.fwd_s", "tensor.conv1d.bwd_s",
                "tensor.graph_nodes", "tensor.other.fwd_s", "tensor.other.bwd_s",
                "tensor.state_copy_s", "optim.adam_step_s"):
        m[key] = _median(per_step[key])
    m["tensor.backward_p50_s"] = _median(per_step["tensor.backward_s"])
    m["tensor.backward_p90_s"] = _quantile(per_step["tensor.backward_s"], 0.9)
    for stage in STAGE_NAMES:
        for part in ("fwd_s", "bwd_s"):
            m[f"model.{stage}.{part}"] = _median(per_step[f"model.{stage}.{part}"])
    m["training.steps"] = len(steps)
    m["training.step_p50_s"] = _median(per_step["training.step_s"])
    m["training.step_p90_s"] = _quantile(per_step["training.step_s"], 0.9)
    accounted = sum(m[f"model.{s}.{p}"] for s in STAGE_NAMES for p in ("fwd_s", "bwd_s"))
    accounted += m["optim.adam_step_s"] + m["tensor.state_copy_s"]
    m["training.accounted_ratio"] = accounted / m["training.step_p50_s"] if steps else 0.0

    # -- per fit, per set-up -------------------------------------------------
    fits = tree.named("training.fit")
    m["training.val_pass_s"] = _median([tree.span_time("model.predict", f) for f in fits])
    setups = tree.named("bench.setup")
    m["training.make_windows_s"] = _median(
        [tree.span_time("training.make_windows", s) for s in setups])
    m["wavelet.mra_matrices_s"] = _median(
        [tree.span_time("wavelet.mra_matrices", s) for s in setups])

    # -- model.predict per 64 windows, inside fit or forecast ----------------
    owners = fits + tree.named("cli.forecast")
    per_window = [p.duration * WINDOWS_PER_PREDICT / p.attrs["windows"]
                  for o in owners for p in tree.named("model.predict", o)]
    m["model.predict_s"] = _median(per_window)

    # -- graph: the build-graph stage if the workload has one, else set-up ---
    graph_units = tree.named("cli.build-graph") or setups
    m["graph.build_stad_s"] = _median([tree.span_time("graph.build_stad", u) for u in graph_units])
    m["graph.stad_distance.calls"] = _median(
        [tree.leaf_total("graph.stad_distance", u, 0) for u in graph_units])
    m["graph.sparsify_s"] = _median([tree.span_time("graph.sparsify", u) for u in graph_units])
    m["graph.scaled_laplacian_s"] = _median(
        [tree.span_time("graph.scaled_laplacian", u) for u in graph_units])

    # -- pipeline stages -----------------------------------------------------
    conf = tree.named("cli.conformal")
    m["conformal.calibrate_stream_s"] = _median(
        [tree.span_time("conformal.calibrate_stream", c) for c in conf])
    m["conformal.streams"] = _median(
        [len(tree.named("conformal.calibrate_stream", c)) for c in conf])
    m["conformal.weighted_quantile.calls"] = _median(
        [tree.leaf_total("conformal.weighted_quantile", c, 0) for c in conf])
    passes = tree.named("bench.pass")
    for fn in ("load_csv", "save_forecasts", "load_forecasts"):
        m[f"data_io.{fn}_s"] = _median([tree.span_time(f"data_io.{fn}", p) for p in passes])
    m["data_io.bytes_read"] = _median([tree.attr_total("bytes_read", p) for p in passes])
    m["data_io.bytes_written"] = _median([tree.attr_total("bytes_written", p) for p in passes])
    m["evalbench.metrics_s"] = _median(
        [tree.leaf_total("evalbench.metrics", e, 1) for e in tree.named("cli.evaluate")])
    for stage in CLI_STAGES:
        # forecast runs twice per pass (val, test); report the sum per pass
        m[f"cli.{stage}.self_s"] = _median(
            [sum(tree.self_time(s) for s in tree.named(f"cli.{stage}", p)) for p in passes])
    return m
