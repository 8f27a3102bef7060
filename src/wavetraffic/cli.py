"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. Every
subcommand is deterministic for fixed inputs, flags, and seeds.

Settings enter by flags only: ``train`` and ``sweep-level`` generate a flag, typed
as the field, for each ``ModelConfig`` field but ``nodes`` and each ``TrainConfig``
field; a flag left out keeps the field's default. The split is the constant 6:2:2 of
``training.SplitSpec()``, so ``forecast`` cuts as ``train`` did. An error about an
input file names the file (``_about``). ``mcb`` ranks ties at the group's max rank.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from . import conformal as cp
from . import data_io, evalbench, training, wavelet
from .errors import DataError, ParameterError, WavetrafficError
from .graph import (GraphBundle, StadMatrix, StrgMask, build_graph_bundle, build_stag,
                    scaled_laplacian)
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint

__all__ = ["main", "build_parser"]


def _config(cls, args, **given):
    """A ``cls`` from ``given`` and the fields that a flag set; the rest keep defaults."""
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return cls(**given, **{key: value for key, value in flags.items() if value is not None})


def _add_settings_flags(sub, skip=()):
    """A ``--field-name`` flag per config field, typed as the field and ``None`` if unset."""
    for cls in (ModelConfig, training.TrainConfig):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.name not in ("nodes", *skip):  # nodes comes from the data
                sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                 type=hints[f.name], default=None)


@contextlib.contextmanager
def _about(*where):
    """Prefix a ``WavetrafficError`` raised inside with ``where``: a file, then any segment."""
    try:
        yield
    except WavetrafficError as exc:
        raise type(exc)(": ".join(map(str, (*where, exc)))) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetraffic",
        description="Wavelet-based spatiotemporal traffic forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="write per-band wavelet components as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("build-graph", help="write STAD/STRG/STAG matrices as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="train a forecaster and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_settings_flags(p)

    p = sub.add_parser("forecast", help="roll a checkpoint over sliding windows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--segment", default="all", choices=["all", "train", "val", "test"])

    # no abbreviations: --level would otherwise be read as --levels
    p = sub.add_parser("sweep-level", help="train once per wavelet level, compare MAPE",
                       allow_abbrev=False)
    p.add_argument("--data", required=True)
    p.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", required=True)
    _add_settings_flags(p, skip=["level"])

    p = sub.add_parser("conformal", help="interval forecasts from calibration + test forecasts")
    p.add_argument("--calibration", required=True, help="forecast CSV of the calibration split")
    p.add_argument("--test", required=True, help="forecast CSV of the test split")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=int, default=288, help="score window size")
    p.add_argument("--beta", type=float, default=0.1, help="miscoverage level")

    p = sub.add_parser("evaluate", help="accuracy metrics from a forecast CSV")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mcb", help="multiple-comparisons-with-the-best rank test")
    p.add_argument("--table", required=True,
                   help="CSV: first column model names, remaining columns datasets")
    p.add_argument("--gamma", type=float, default=0.05, choices=sorted(evalbench.TUKEY_TABLE))
    p.add_argument("--out", required=True)
    for name in ("build-graph", "train", "sweep-level"):  # the graph's sparsity
        sub.choices[name].add_argument("--p-sp", dest="p_sp", type=float, default=0.01)
    return parser


# -- subcommand bodies -----------------------------------------------------


def _cmd_decompose(args) -> int:
    x = data_io.load_csv(args.input)
    filt = ModelConfig.filter_name  # the bands that the model's attention sees
    fits = [j for j in range(1, 64) if wavelet.filter_width(filt, j) <= x.shape[-1]]
    if not fits:
        with _about(args.input):
            raise DataError(f"a {x.shape[-1]}-step series is too short for any {filt} level")
    if args.level not in fits:
        raise ParameterError(f"--level must be in 1..{len(fits)} for the {filt} filter "
                             f"on a {x.shape[-1]}-step series, got {args.level}")
    comps = wavelet.mra(x, filt, args.level)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"detail{j}" for j in range(1, args.level + 1)] + [f"smooth{args.level}"]
    for name, comp in zip(names, comps):
        data_io.save_csv(out / f"{name}.csv", comp)
    print(f"wrote {len(comps)} component files to {out}")
    return 0


def _cmd_build_graph(args) -> int:
    _check_p_sp(args.p_sp)
    x = data_io.load_csv(args.input)
    with _about(args.input):
        bundle = build_graph_bundle(x[:, 0, :], p_sp=args.p_sp)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_io.save_table(out / "a_stad.csv", bundle.stad.adjacency)
    data_io.save_table(out / "a_strg.csv", bundle.strg.mask)
    data_io.save_table(out / "a_stag.csv", bundle.a_stag)
    print(f"wrote a_stad.csv, a_strg.csv, a_stag.csv to {out}")
    _print_graph_size(bundle.a_stag)
    return 0


def _check_p_sp(p_sp):
    if not 0 < p_sp <= 1:
        raise ParameterError(f"--p-sp must be in (0, 1], got {p_sp}")


def _print_graph_size(a_stag):
    entries = np.count_nonzero(a_stag) - np.count_nonzero(a_stag.diagonal())
    print(f"STAG: {entries} off-diagonal entries, mean degree {entries / len(a_stag):.3g}")


def _prepare_training(args):
    _check_p_sp(args.p_sp)
    train_cfg = _config(training.TrainConfig, args)
    x = data_io.load_csv(args.data)
    with _about(args.data):
        segs = dict(zip(("train", "val", "test"), training.split(x)))
    stats = training.compute_stats(segs["train"])
    cfg = _config(ModelConfig, args, nodes=len(x))  # nodes comes from the data
    with _about(args.data):
        bundle = build_graph_bundle(segs["train"][:, 0, :], p_sp=args.p_sp)
    _print_graph_size(bundle.a_stag)
    windows = [_windows(args.data, name, seg, stats) for name, seg in segs.items()]
    return cfg, bundle, stats, train_cfg, windows


def _windows(path, name, seg, stats):
    with _about(path, name):  # e.g. a segment too short for one window
        return training.make_windows(training.normalize(seg, stats))


def _cmd_train(args) -> int:
    cfg, bundle, stats, train_cfg, (tr, va, _te) = _prepare_training(args)
    model = Model(cfg, bundle, seed=train_cfg.seed)
    result = training.fit(model, tr, va, train_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # what training measured; forecast derives the rest as build_graph_bundle does
    save_checkpoint(out / "checkpoint.bin", cfg, result.best_state, extras={
        "norm_mean": stats.mean, "norm_std": stats.std,
        "a_stad": bundle.stad.adjacency, "strg_mask": bundle.strg.mask,
    })
    columns = ["epoch", "train_loss", "val_loss", "val_mae", "wall_seconds"]
    log = [[row[key] for key in columns] for row in result.log]
    data_io.save_table(out / "log.csv", np.reshape(log, (-1, len(columns))), header=columns)
    print(f"trained {train_cfg.epochs} epochs; checkpoint and log written to {out}")
    return 0


def _model_from_checkpoint(path):
    cfg, state, extras = load_checkpoint(path)
    with _about(path):
        n = cfg.nodes
        shapes = {"a_stad": (n, n), "strg_mask": (n, n), "norm_mean": (n,), "norm_std": (n,)}
        missing = sorted(shapes.keys() - extras.keys())
        if missing:
            raise DataError(f"checkpoint lacks {', '.join(f'extra/{m}' for m in missing)}")
        for name, shape in shapes.items():
            if extras[name].shape != shape:
                raise DataError(f"extra/{name} has shape {extras[name].shape}, "
                                f"expected {shape} for {n} nodes")
        std = extras["norm_std"]
        bad = np.count_nonzero(std <= 0)
        if bad:
            raise DataError(f"extra/norm_std has {bad} non-positive entries")
        mask = extras["strg_mask"]
        bad = np.count_nonzero((mask != 0) & (mask != 1))
        if bad:
            raise DataError(f"extra/strg_mask has {bad} entries other than 0 and 1")
        a_stad = extras["a_stad"]
        # build_stad's output is symmetric and nonnegative, as scaled_laplacian needs build_stag's
        bad = np.count_nonzero((a_stad != a_stad.T) | (a_stad < 0))
        if bad:
            raise DataError(f"extra/a_stad has {bad} negative or asymmetric entries")
        stats = training.NormalizationStats(mean=extras["norm_mean"], std=std)
        stad, strg = StadMatrix(a_stad), StrgMask(mask)
        a_stag = build_stag(stad, strg)
        bundle = GraphBundle(stad, strg, a_stag, scaled_laplacian(a_stag))
        model = Model(cfg, bundle)
        model.graph.load_state(state)
    return model, stats


def _cmd_forecast(args) -> int:
    model, stats = _model_from_checkpoint(args.checkpoint)
    x = data_io.load_csv(args.data)
    with _about(args.data):
        if len(x) != model.cfg.nodes:
            raise DataError(f"{len(x)} sensors, but the checkpoint "
                            f"was trained on {model.cfg.nodes}")
        if args.segment != "all":
            segs = dict(zip(("train", "val", "test"), training.split(x)))
            x = segs[args.segment]
    windows = _windows(args.data, args.segment, x, stats)
    y, pred = training.predict_windows(model, windows, stats)
    data_io.save_forecasts(args.out, y, pred)
    print(f"wrote {len(y)} x {model.cfg.nodes} x {model.cfg.horizon} forecasts to {args.out}")
    return 0


def _cmd_sweep_level(args) -> int:
    if len(set(args.levels)) < len(args.levels):
        raise ParameterError(f"--levels repeats a level: {' '.join(map(str, args.levels))}")
    base, bundle, stats, train_cfg, (tr, va, te) = _prepare_training(args)
    # every level's config is checked before the first one trains
    configs = [dataclasses.replace(base, level=level) for level in args.levels]
    rows = []
    for cfg in configs:
        model = Model(cfg, bundle, seed=train_cfg.seed)
        result = training.fit(model, tr, va, train_cfg)
        model.graph.load_state(result.best_state)
        y, pred = training.predict_windows(model, te, stats)
        with _about(args.data, "test"):
            rows.append([cfg.level, evalbench.mape(y, pred), evalbench.mae(y, pred),
                         evalbench.rmse(y, pred)])
    data_io.save_table(args.out, rows, header=["level", "mape", "mae", "rmse"])
    print(f"wrote {len(rows)}-row level sweep to {args.out}")
    return 0


def _cmd_conformal(args) -> int:
    if not 0 < args.beta < 1:
        raise ParameterError(f"--beta must be in (0, 1), got {args.beta}")
    shortest = cp.min_window(args.beta)
    if args.alpha < shortest:
        raise ParameterError(f"--alpha {args.alpha} is below {shortest}, the fewest scores "
                             f"that can give a finite band at --beta {args.beta}")
    y_cal, pred_cal, _ = data_io.load_forecasts(args.calibration)
    y_test, pred_test, _ = data_io.load_forecasts(args.test)
    with _about(args.test):  # the file that the bands are for
        lo, hi = cp.calibrate_stream(y_cal, pred_cal, y_test, pred_test,
                                     window=args.alpha, beta=args.beta)
    data_io.save_forecasts(args.out, y_test, pred_test, intervals=(lo, hi))
    for step in range(y_test.shape[2]):
        cov = cp.empirical_coverage(lo[:, :, step], hi[:, :, step], y_test[:, :, step])
        print(f"step {step + 1}: empirical coverage {cov:.4f}")
    return 0


def _cmd_evaluate(args) -> int:
    y, pred, _ = data_io.load_forecasts(args.forecasts)
    with _about(args.forecasts):
        overall = {name: getattr(evalbench, name)(y, pred) for name in ("mae", "mape", "rmse")}
        steps = {name: evalbench.stepwise_errors(y, pred, name) for name in overall}
    _write_named_rows(args.out, ["metric", "overall"] + [f"step{s+1}" for s in range(y.shape[-1])],
                      [[name, value, *steps[name]] for name, value in overall.items()])
    step_mae = steps["mae"]
    print(f"MAE {overall['mae']:.6g} over {y.size} points "
          f"(stepwise MAE {step_mae[0]:.6g}..{step_mae[-1]:.6g}); wrote {args.out}")
    return 0


def _cmd_mcb(args) -> int:
    with data_io.open_text(args.table) as fh:
        rows = list(csv.reader(fh))
    with _about(args.table):
        if not rows:
            raise DataError("empty file")
        header = rows[0]
        models, values = [], []
        for r, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise DataError(f"row {r} has {len(row)} cells, expected {len(header)}")
            try:
                values.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"row {r}: {exc}") from None
            models.append(row[0])
        table = evalbench.ErrorTable(np.reshape(values, (len(models), len(header) - 1)),
                                     models, header[1:])
        result = evalbench.mcb(table, gamma=args.gamma)
    ranked = zip(result.models, result.mean_ranks, *result.intervals.T, result.significantly_worse)
    _write_named_rows(args.out, ["model", "mean_rank", "interval_lo", "interval_hi",
                                 "significantly_worse"], ranked)
    best = result.models[result.best_index]
    print(f"best model {best!r} with mean rank {result.mean_ranks[result.best_index]:.4g}; "
          f"critical distance {result.critical_distance:.4g}")
    return 0


def _write_named_rows(path, header, rows):
    """A CSV whose rows are a name, then numbers written by ``data_io.fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([name, *map(data_io.fmt, numbers)] for name, *numbers in rows)


_COMMANDS = {
    "decompose": _cmd_decompose,
    "build-graph": _cmd_build_graph,
    "train": _cmd_train,
    "forecast": _cmd_forecast,
    "sweep-level": _cmd_sweep_level,
    "conformal": _cmd_conformal,
    "evaluate": _cmd_evaluate,
    "mcb": _cmd_mcb,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WavetrafficError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
