"""The three benchmark workloads: set-up, one timed operation, and its checks.

Each workload is a closed loop: one process runs its operation back to
back, the next only after the previous one completed and was checked.

* ``train_small`` -- ``training.fit`` on the small config. Bound by
  per-op Python and autodiff overhead.
* ``train_paper`` -- ``training.fit`` on the paper config at B=8. Bound
  by large contractions (``conv1d`` and the attention einsums).
* ``pipeline`` -- ``build-graph``, ``forecast`` (val, test),
  ``conformal`` and ``evaluate`` through ``wavetraffic.cli.main`` on CSV
  files. Forward-only model work plus the graph, conformal, data_io and
  evalbench layers that training never calls.

The program only receives inputs generated here from the seed; every
output that is timed is also checked, and a failed check, a raised
exception or a non-zero exit counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from wavetraffic import cli, data_io, graph, model, training

HORIZON = 12
WINDOW = 12
SPLIT = (0.6, 0.2, 0.2)
COVERAGE_RANGE = (0.85, 0.95)  # acceptance criterion 09 at beta = 0.1
LAPLACIAN_TOL = 1e-6
VALUE_RTOL = 1e-9  # CSV cells carry 12 significant digits
OUTPUTS = ("graph", "val.csv", "test.csv", "bands.csv", "metrics.csv")
P_SP = 0.25  # each node keeps ceil(N * P_SP) adjacency entries, itself included
LR = 1e-3
ALPHA = 288  # conformal score window: one day of 5-minute steps
BETA = 0.1


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Tally:
    """Attempted and failed operations of one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, label, action, check):
        """Run ``action`` timed, then ``check`` its result untimed.

        Returns ``(seconds, result)``, or ``None`` when the action raised,
        exited non-zero or failed its check.
        """
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = action()
            seconds = perf_counter() - t0
            check(result)
        except Exception as exc:  # any fault of the program is one failed operation
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        return seconds, result


def span_or_null(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# -- training workloads ------------------------------------------------------


@dataclass(frozen=True)
class TrainWorkload:
    """One ``training.fit`` epoch on a seeded subset of windows per operation."""

    name: str
    nodes: int
    channels: int
    blocks: int
    width: int
    heads: int
    level: int
    batch: int
    n_train: int
    n_val: int
    steps: int = 4032

    def setup(self, seed, workdir):
        x = data_io.synthetic(self.nodes, self.steps, seed)
        train_seg, val_seg, _ = training.split(x, training.SplitSpec(*SPLIT))
        stats = training.compute_stats(train_seg)
        bundle = graph.build_graph_bundle(train_seg[:, 0, :], p_sp=P_SP)
        cfg = model.ModelConfig(nodes=self.nodes, blocks=self.blocks, width=self.width,
                                heads=self.heads, level=self.level, channels=self.channels)
        net = model.Model(cfg, bundle, seed=seed)
        rng = np.random.default_rng(seed)
        subsets = []
        for seg, count in ((train_seg, self.n_train), (val_seg, self.n_val)):
            inputs, targets = training.make_windows(training.normalize(seg, stats))
            idx = np.sort(rng.choice(len(inputs), size=count, replace=False))
            subsets.append((inputs[idx], targets[idx]))
        return {
            "model": net,
            "init": net.graph.state(),
            "train": subsets[0],
            "val": subsets[1],
            "cfg": training.TrainConfig(epochs=1, lr=LR, batch_size=self.batch, seed=seed),
            "val_mae": None,
        }

    def run_op(self, env, tally, tracer):
        net = env["model"]
        net.graph.load_state(env["init"])

        def check(result):
            require(len(result.log) == 1, f"expected one epoch in the log, got {len(result.log)}")
            row = result.log[0]
            for key in ("train_loss", "val_loss", "val_mae"):
                require(math.isfinite(row[key]), f"non-finite {key} {row[key]}")
            require(all(np.all(np.isfinite(v)) for v in result.final_state.values()),
                    "non-finite parameter after training")
            first = env["val_mae"]
            require(first is None or row["val_mae"] == first,
                    f"val_mae {row['val_mae']!r} differs from the run's first {first!r}")

        done = tally.attempt(
            "training.fit",
            lambda: training.fit(net, env["train"], env["val"], env["cfg"]),
            check,
        )
        if done is None:
            return None
        seconds, result = done
        env["val_mae"] = result.log[0]["val_mae"]
        return {
            "op_s": seconds,
            "train_windows_per_s": self.n_train / seconds,
            "forecast_mae": env["val_mae"],
        }


# -- pipeline workload -------------------------------------------------------


@dataclass(frozen=True)
class PipelineWorkload:
    """One pass of the CLI stages a user runs after training."""

    name: str
    nodes: int
    steps: int  # series length at 5-minute steps

    def setup(self, seed, workdir):
        work = Path(workdir)
        work.mkdir(parents=True, exist_ok=True)
        x = data_io.synthetic(self.nodes, self.steps, seed)
        data_io.save_csv(work / "data.csv", x)
        segments = dict(zip(("train", "val", "test"), training.split(x, training.SplitSpec(*SPLIT))))
        stats = training.compute_stats(segments["train"])
        bundle = graph.build_graph_bundle(segments["train"][:, 0, :], p_sp=P_SP)
        cfg = model.ModelConfig(nodes=self.nodes, blocks=2, width=3, heads=3, level=2, channels=4)
        net = model.Model(cfg, bundle, seed=seed)
        model.save_checkpoint(work / "checkpoint.bin", cfg, net.graph.state(), extras={
            "norm_mean": stats.mean, "norm_std": stats.std,
            "a_stad": bundle.stad.adjacency, "strg_mask": bundle.strg.mask,
            "a_stag": bundle.a_stag,
        })
        return {"work": work, "model": net, "stats": stats, "segments": segments}

    # -- checks -----------------------------------------------------------

    def _check_graph(self, env):
        out = env["work"] / "graph"
        a_stad = np.loadtxt(out / "a_stad.csv", delimiter=",", ndmin=2)
        a_stag = np.loadtxt(out / "a_stag.csv", delimiter=",", ndmin=2)
        n = self.nodes
        require(a_stad.shape == (n, n) and a_stag.shape == (n, n), "adjacency shape")
        require(np.array_equal(a_stad, a_stad.T), "STAD adjacency is not symmetric")
        require(np.array_equal(a_stag, a_stag.T), "STAG adjacency is not symmetric")
        require(np.all((a_stad >= 0) & (a_stad <= 1)), "STAD adjacency outside [0, 1]")
        lap = graph.scaled_laplacian(a_stag).matrix
        spectrum = np.linalg.eigvalsh(lap)
        require(spectrum.min() >= -1 - LAPLACIAN_TOL and spectrum.max() <= 1 + LAPLACIAN_TOL,
                f"scaled Laplacian spectrum [{spectrum.min()}, {spectrum.max()}] outside [-1, 1]")

    def _expected_targets(self, env, segment):
        x = env["segments"][segment][:, 0, :]
        starts = range(x.shape[1] - WINDOW - HORIZON + 1)
        return np.stack([x[:, s + WINDOW : s + WINDOW + HORIZON] for s in starts])

    def _read_long(self, path, columns):
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        require(table.shape[1] == columns, f"{path.name}: {table.shape[1]} columns")
        return table

    def _check_forecast(self, env, segment):
        path = env["work"] / f"{segment}.csv"
        y_exp = self._expected_targets(env, segment)
        t, n, s = y_exp.shape
        table = self._read_long(path, 5)
        require(len(table) == t * n * s, f"{path.name}: {len(table)} rows, expected {t}x{n}x{s}")
        require(not np.isnan(table).any(), f"{path.name}: NaN in forecasts")
        y = table[:, 3].reshape(t, n, s)
        pred = table[:, 4].reshape(t, n, s)
        require(np.allclose(y, y_exp, rtol=VALUE_RTOL, atol=0), f"{path.name}: targets differ")
        # spot-check the first and last window against the in-memory model
        stats = env["stats"]
        x = env["segments"][segment]
        mean, std = stats.mean[:, None, None], stats.std[:, None, None]
        for w in (0, t - 1):
            window = (x[:, :, w : w + WINDOW] - mean) / std
            ref = env["model"].predict(window[None])[0] * std[:, :, 0] + mean[:, :, 0]
            require(np.allclose(pred[w], ref, rtol=1e-8, atol=1e-9),
                    f"{path.name}: window {w} prediction differs from the model")
        env[segment] = (y, pred)

    def _check_bands(self, env):
        y, pred = env["test"]
        table = self._read_long(env["work"] / "bands.csv", 8)
        t, n, s = y.shape
        require(len(table) == t * n * s, f"bands.csv: {len(table)} rows")
        lo = table[:, 5].reshape(t, n, s)
        hi = table[:, 6].reshape(t, n, s)
        covered = (lo <= y) & (y <= hi)
        require(np.array_equal(covered, table[:, 7].reshape(t, n, s) == 1),
                "bands.csv: covered column disagrees with lo <= y <= hi")
        per_step = covered.mean(axis=(0, 1))
        low, high = COVERAGE_RANGE
        require(np.all((per_step >= low) & (per_step <= high)),
                f"per-step coverage {np.round(per_step, 4).tolist()} outside {COVERAGE_RANGE}")

    def _check_metrics(self, env):
        y, pred = env["test"]
        rows = {}
        with open(env["work"] / "metrics.csv") as fh:
            next(fh)
            for line in fh:
                name, *values = line.strip().split(",")
                rows[name] = np.array([float(v) for v in values])
        err = y - pred
        expected = {
            "mae": lambda e, yy: np.mean(np.abs(e)),
            "mape": lambda e, yy: np.mean(np.abs(e / yy)) * 100.0,
            "rmse": lambda e, yy: np.sqrt(np.mean(e * e)),
        }
        require(sorted(rows) == sorted(expected), f"metrics.csv rows {sorted(rows)}")
        for name, fn in expected.items():
            want = [fn(err, y)] + [fn(err[..., k], y[..., k]) for k in range(y.shape[-1])]
            require(np.allclose(rows[name], want, rtol=VALUE_RTOL, atol=0),
                    f"metrics.csv {name} differs from the recomputation")

    # -- one pass ---------------------------------------------------------

    def _stages(self, env):
        w = env["work"]
        data = str(w / "data.csv")
        ck = str(w / "checkpoint.bin")
        return [
            ("build-graph", ["build-graph", "--input", data, "--p-sp", str(P_SP),
                             "--out-dir", str(w / "graph")],
             lambda: self._check_graph(env)),
            ("forecast", ["forecast", "--checkpoint", ck, "--data", data, "--segment", "val",
                          "--out", str(w / "val.csv")],
             lambda: self._check_forecast(env, "val")),
            ("forecast", ["forecast", "--checkpoint", ck, "--data", data, "--segment", "test",
                          "--out", str(w / "test.csv")],
             lambda: self._check_forecast(env, "test")),
            ("conformal", ["conformal", "--calibration", str(w / "val.csv"),
                           "--test", str(w / "test.csv"), "--alpha", str(ALPHA),
                           "--beta", str(BETA), "--out", str(w / "bands.csv")],
             lambda: self._check_bands(env)),
            ("evaluate", ["evaluate", "--forecasts", str(w / "test.csv"),
                          "--out", str(w / "metrics.csv")],
             lambda: self._check_metrics(env)),
        ]

    def run_op(self, env, tally, tracer):
        # a stage that exits 0 without writing must not pass on the last pass's file
        for name in OUTPUTS:
            path = env["work"] / name
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        times = {}
        with span_or_null(tracer, "bench.pass"):
            for stage, argv, check in self._stages(env):
                def action(argv=argv, stage=stage):
                    sink = io.StringIO()
                    with span_or_null(tracer, f"cli.{stage}"), contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        code = cli.main(argv)
                    if code != 0:
                        raise CheckFailed(f"exit code {code}: {sink.getvalue().strip()}")

                done = tally.attempt(f"cli {' '.join(argv[:1] + argv[-1:])}", action,
                                     lambda _result, check=check: check())
                if done is None:
                    return None
                times[stage] = times.get(stage, 0.0) + done[0]
        y, pred = env["test"]
        y_val, _ = env["val"]
        forecast_windows = len(y_val) + len(y)
        std = env["stats"].std[None, :, None]
        return {
            "op_s": sum(times.values()),
            "forecast_windows_per_s": forecast_windows / times["forecast"],
            "forecast_mae": float(np.mean(np.abs(y - pred) / std)),
            "graph_build_s": times["build-graph"],
            "conformal_points_per_s": y.size / times["conformal"],
            "evaluate_points_per_s": y.size / times["evaluate"],
        }


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train_small", nodes=8, channels=4, blocks=2, width=3, heads=3, level=2,
                      batch=32, n_train=640, n_val=160),
        TrainWorkload("train_paper", nodes=32, channels=32, blocks=4, width=33, heads=3, level=2,
                      batch=8, n_train=16, n_val=8),
        PipelineWorkload("pipeline", nodes=16, steps=2016),
    )
}
