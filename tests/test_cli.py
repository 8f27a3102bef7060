import argparse
import csv
import dataclasses
import re
import shlex
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import per_stream_bands
from wavetraffic import conformal as cp
from wavetraffic import cli, data_io, evalbench, training, wavelet
from wavetraffic.cli import build_parser, main
from wavetraffic.graph import build_graph_bundle
from wavetraffic.model import ModelConfig, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    x = data_io.synthetic(4, 700, seed=13)
    data_io.save_csv(path, x)
    return path, x


# sweep-level sets the level from --levels; train also takes --level
_FAST_SWEEP = [
    "--epochs", "1", "--batch-size", "64", "--lr", "1e-3",
    "--blocks", "1", "--width", "3", "--channels", "2",
    "--p-sp", "0.5", "--seed", "0",
]
_FAST_TRAIN = _FAST_SWEEP + ["--level", "1"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    data_path, _ = dataset
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(data_path), "--out", str(out), *_FAST_TRAIN])
    assert code == 0
    return out


class TestDecompose:
    def test_writes_components_that_sum_back(self, dataset, tmp_path):
        data_path, x = dataset
        out = tmp_path / "bands"
        assert main(["decompose", "--input", str(data_path), "--level", "2",
                     "--out-dir", str(out)]) == 0
        names = ["detail1.csv", "detail2.csv", "smooth2.csv"]
        comps = [data_io.load_csv(out / n) for n in names]
        total = sum(comps)
        loaded = data_io.load_csv(data_path)
        np.testing.assert_allclose(total, loaded, atol=1e-8)
        direct = wavelet.mra(loaded, "haar", 2)
        for written, computed in zip(comps, direct):
            np.testing.assert_allclose(written, computed, atol=1e-9)

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = main(["decompose", "--input", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _stag_line(a_stag):
    entries = int((a_stag[~np.eye(len(a_stag), dtype=bool)] != 0).sum())
    return f"STAG: {entries} off-diagonal entries, mean degree {entries / len(a_stag):.3g}"


class TestBuildGraph:
    @pytest.mark.parametrize("p_sp", ["0.01", "0.5"])
    def test_prints_graph_size(self, dataset, tmp_path, capsys, p_sp):
        data_path, _ = dataset
        out = tmp_path / "graph"
        assert main(["build-graph", "--input", str(data_path), "--p-sp", p_sp,
                     "--out-dir", str(out)]) == 0
        stag = np.loadtxt(out / "a_stag.csv", delimiter=",")
        assert capsys.readouterr().out.splitlines()[-1] == _stag_line(stag)
        if p_sp == "0.01":  # each of the 4 rows keeps one entry, its diagonal
            assert _stag_line(stag).startswith("STAG: 0 off-diagonal entries")

    def test_matrices_written(self, dataset, tmp_path):
        data_path, _ = dataset
        out = tmp_path / "graph"
        assert main(["build-graph", "--input", str(data_path), "--p-sp", "0.5",
                     "--out-dir", str(out)]) == 0
        stad = np.loadtxt(out / "a_stad.csv", delimiter=",")
        strg = np.loadtxt(out / "a_strg.csv", delimiter=",")
        stag = np.loadtxt(out / "a_stag.csv", delimiter=",")
        np.testing.assert_allclose(np.diag(stad), 1.0)
        assert set(np.unique(strg)) <= {0.0, 1.0}
        np.testing.assert_allclose(stag, stag.T)
        assert np.all(stag[strg == 1.0] > 0.0)


class TestTrainAndForecast:
    def test_train_outputs(self, trained):
        cfg, state, extras = load_checkpoint(trained / "checkpoint.bin")
        assert cfg.blocks == 1 and cfg.level == 1 and cfg.nodes == 4
        assert state  # parameters present
        # what training measured; forecast derives a_stag from a_stad and strg_mask
        assert sorted(extras) == ["a_stad", "norm_mean", "norm_std", "strg_mask"]
        with open(trained / "log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "val_mae", "wall_seconds"]
        assert len(rows) == 2  # header + one epoch

    def test_train_prints_graph_size(self, dataset, tmp_path, capsys):
        data_path, _ = dataset
        assert main(["train", "--data", str(data_path), "--out", str(tmp_path),
                     *_FAST_TRAIN]) == 0
        train_seg = training.split(data_io.load_csv(data_path))[0]
        a_stag = build_graph_bundle(train_seg[:, 0, :], p_sp=0.5).a_stag
        assert _stag_line(a_stag) in capsys.readouterr().out.splitlines()

    def test_forecast_segment(self, trained, dataset, tmp_path):
        data_path, x = dataset
        out = tmp_path / "val.csv"
        assert main(["forecast", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(data_path), "--segment", "val",
                     "--out", str(out)]) == 0
        y, pred, intervals = data_io.load_forecasts(out)
        n_val = int(np.floor(0.2 * x.shape[-1]))
        assert y.shape == (n_val - 24 + 1, 4, 12)
        assert intervals is None
        assert np.all(np.isfinite(pred))
        # targets must be the raw (denormalized) series values
        val_start = int(np.floor(0.6 * x.shape[-1]))
        np.testing.assert_allclose(y[0, :, 0], x[:, 0, val_start + 12], rtol=1e-10)

    def test_forecast_deterministic(self, trained, dataset, tmp_path):
        data_path, _ = dataset
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["forecast", "--checkpoint", str(trained / "checkpoint.bin"),
                         "--data", str(data_path), "--segment", "test",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_forecast_rejects_old_parameter_names(self, trained, dataset, tmp_path, capsys):
        # checkpoints from before the stacked parameters kept one theta per order
        cfg, state, extras = load_checkpoint(trained / "checkpoint.bin")
        theta = state.pop("block0.gc.theta")
        for k in range(len(theta)):
            state[f"block0.gc.theta{k}"] = theta[k]
        old = tmp_path / "old.bin"
        save_checkpoint(old, cfg, state, extras)
        data_path, _ = dataset
        code = main(["forecast", "--checkpoint", str(old), "--data", str(data_path),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: ")
        assert "block0.gc.theta0" in err and "missing parameter(s): block0.gc.theta" in err
        assert not (tmp_path / "out.csv").exists()

    def test_forecast_ignores_a_stored_a_stag(self, trained, dataset, tmp_path):
        # checkpoints written before a_stag was derived carry it; forecast
        # rebuilds it from a_stad and strg_mask, so a stored one changes nothing
        cfg, state, extras = load_checkpoint(trained / "checkpoint.bin")
        old = tmp_path / "old.bin"
        save_checkpoint(old, cfg, state, {**extras, "a_stag": np.ones((4, 4))})
        data_path, _ = dataset
        outputs = []
        for checkpoint in (trained / "checkpoint.bin", old):
            out = tmp_path / f"{checkpoint.stem}.csv"
            assert main(["forecast", "--checkpoint", str(checkpoint), "--data", str(data_path),
                         "--segment", "val", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def trained_six(tmp_path_factory):
    # at --p-sp 0.5 each of the six rows keeps three entries, so a_stad
    # reaches the Laplacian; at the default 0.01 only the diagonal is kept
    data_path = tmp_path_factory.mktemp("data6") / "six.csv"
    data_io.save_csv(data_path, data_io.synthetic(6, 700, seed=5))
    out = tmp_path_factory.mktemp("run6")
    assert main(["train", "--data", str(data_path), "--out", str(out), *_FAST_TRAIN]) == 0
    return data_path, out / "checkpoint.bin"


def _flip_unlinked_pair(mask):
    # an off-diagonal entry whose pair is unlinked both ways, so the
    # max-symmetrized graph gains an edge
    i, j = np.argwhere(mask + mask.T == 0)[0]
    flipped = mask.copy()
    flipped[i, j] = 1.0
    return flipped


@pytest.mark.parametrize("extra, change", [
    ("a_stad", lambda a: a ** 2),  # a uniform scale would leave the scaled Laplacian as it is
    ("norm_mean", lambda m: m + 1.0),
    ("norm_std", lambda s: s * 2.0),
    ("strg_mask", _flip_unlinked_pair),
], ids=["a_stad", "norm_mean", "norm_std", "strg_mask"])
def test_every_stored_extra_reaches_the_forecast(trained_six, tmp_path, extra, change):
    data_path, checkpoint = trained_six
    cfg, state, extras = load_checkpoint(checkpoint)
    changed = tmp_path / "changed.bin"
    save_checkpoint(changed, cfg, state, {**extras, extra: change(extras[extra])})
    outputs = []
    for path in (checkpoint, changed):
        out = tmp_path / f"{path.stem}.csv"
        code = main(["forecast", "--checkpoint", str(path), "--data", str(data_path),
                     "--segment", "val", "--out", str(out)])
        outputs.append(out.read_bytes() if code == 0 else code)
    assert outputs[0] != outputs[1]


def _subcommand(name):
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def _setting_names():
    """The config fields that flags set; ``nodes`` comes from the data."""
    return ({f.name for f in dataclasses.fields(ModelConfig)} - {"nodes"}
            | {f.name for f in dataclasses.fields(training.TrainConfig)})


class TestSettingsFlags:
    # the destinations of the flags that set no config field
    _OTHER = {"help", "data", "out", "p_sp", "levels"}

    @pytest.mark.parametrize("command, unset", [("train", set()), ("sweep-level", {"level"})],
                             ids=["train", "sweep-level"])
    def test_one_flag_per_setting(self, command, unset):
        actions = [a for a in _subcommand(command)._actions if a.dest not in self._OTHER]
        assert sorted(a.dest for a in actions) == sorted(_setting_names() - unset)
        # a flag default would override the dataclass default
        assert all(a.default is None for a in actions)

    # a valid value other than the default for each settings flag
    _NON_DEFAULT = [
        ("--blocks", "2", "blocks", 2), ("--width", "6", "width", 6),
        ("--heads", "11", "heads", 11), ("--level", "1", "level", 1),
        ("--channels", "5", "channels", 5),
        ("--epochs", "3", "epochs", 3), ("--lr", "0.002", "lr", 0.002),
        ("--batch-size", "16", "batch_size", 16), ("--seed", "7", "seed", 7),
    ]

    @pytest.mark.parametrize("flag, text, field, value", _NON_DEFAULT,
                             ids=[flag for flag, *_ in _NON_DEFAULT])
    def test_flag_reaches_its_setting(self, dataset, tmp_path, monkeypatch, flag, text, field,
                                      value):
        received = []

        def no_training(model, train_windows, val_windows, cfg):
            received.append(cfg)
            state = model.graph.state()
            return training.FitResult(best_state=state, final_state=state)
        monkeypatch.setattr(training, "fit", no_training)
        data_path, _ = dataset
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_path), "--out", str(out), flag, text]) == 0
        defaults = {"model": ModelConfig(nodes=4), "train": training.TrainConfig()}
        owner = "model" if hasattr(defaults["model"], field) else "train"
        assert getattr(defaults[owner], field) != value
        expected = {**defaults, owner: dataclasses.replace(defaults[owner], **{field: value})}
        assert load_checkpoint(out / "checkpoint.bin")[0] == expected["model"]
        assert received == [expected["train"]]


@pytest.fixture(scope="module")
def forecast_pair(trained, dataset, tmp_path_factory):
    data_path, _ = dataset
    out = tmp_path_factory.mktemp("fc")
    for segment in ("val", "test"):
        assert main(["forecast", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(data_path), "--segment", segment,
                     "--out", str(out / f"{segment}.csv")]) == 0
    return out


class TestConformalEvaluateMcb:
    def test_conformal_output(self, forecast_pair, tmp_path, capsys):
        out = tmp_path / "bands.csv"
        assert main(["conformal", "--calibration", str(forecast_pair / "val.csv"),
                     "--test", str(forecast_pair / "test.csv"),
                     "--alpha", "60", "--beta", "0.1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "empirical coverage" in printed
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "node", "step", "y", "pred", "lo", "hi", "covered"]
        body = np.array([[float(v) for v in r] for r in rows[1:]])
        lo, hi, y, covered = body[:, 5], body[:, 6], body[:, 3], body[:, 7]
        assert np.all(lo <= hi)
        np.testing.assert_array_equal(covered, (lo <= y) & (y <= hi))

    def test_conformal_bands_match_per_stream_calibrators(self, forecast_pair, tmp_path):
        out = tmp_path / "bands.csv"
        assert main(["conformal", "--calibration", str(forecast_pair / "val.csv"),
                     "--test", str(forecast_pair / "test.csv"),
                     "--alpha", "60", "--beta", "0.1", "--out", str(out)]) == 0
        y_cal, p_cal, _ = data_io.load_forecasts(forecast_pair / "val.csv")
        y, pred, _ = data_io.load_forecasts(forecast_pair / "test.csv")
        lo, hi = per_stream_bands(y_cal, p_cal, y, pred, window=60, beta=0.1)
        lines = ["t,node,step,y,pred,lo,hi,covered"]
        for t, node, step in np.ndindex(y.shape):
            ix = t, node, step
            cells = [y[ix], pred[ix], lo[ix], hi[ix]]
            lines.append(",".join([str(t), str(node), str(step + 1)]
                                  + [data_io.fmt(v) for v in cells]
                                  + [str(int(lo[ix] <= y[ix] <= hi[ix]))]))
        assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()

    def test_conformal_run_calls_every_exported_name(self, forecast_pair, tmp_path,
                                                     monkeypatch):
        calls = dict.fromkeys(cp.__all__, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in cp.__all__:
            monkeypatch.setattr(cp, name, counted(name, getattr(cp, name)))
        assert main(["conformal", "--calibration", str(forecast_pair / "val.csv"),
                     "--test", str(forecast_pair / "test.csv"),
                     "--out", str(tmp_path / "bands.csv")]) == 0
        assert [name for name, n in calls.items() if n == 0] == []

    def test_load_forecasts_reads_bands(self, forecast_pair, tmp_path):
        out = tmp_path / "bands.csv"
        assert main(["conformal", "--calibration", str(forecast_pair / "val.csv"),
                     "--test", str(forecast_pair / "test.csv"),
                     "--alpha", "60", "--beta", "0.1", "--out", str(out)]) == 0
        y_cal, p_cal, _ = data_io.load_forecasts(forecast_pair / "val.csv")
        y, pred, _ = data_io.load_forecasts(forecast_pair / "test.csv")
        lo, hi = cp.calibrate_stream(y_cal, p_cal, y, pred, window=60, beta=0.1)
        y2, pred2, intervals = data_io.load_forecasts(out)
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_array_equal(pred2, pred)
        twelve_digits = np.vectorize(data_io.fmt)
        for got, want in zip(intervals, (lo, hi)):
            np.testing.assert_array_equal(twelve_digits(got), twelve_digits(want))

    def test_conformal_rejects_mismatched_streams(self, forecast_pair, tmp_path, capsys):
        y, pred, _ = data_io.load_forecasts(forecast_pair / "val.csv")
        short = tmp_path / "val_short.csv"
        data_io.save_forecasts(short, y[:, :, :6], pred[:, :, :6])
        code = main(["conformal", "--calibration", str(short),
                     "--test", str(forecast_pair / "test.csv"),
                     "--out", str(tmp_path / "bands.csv")])
        assert code == 1
        assert "calibration streams (4, 6) != test (4, 12)" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("empty_arg", ["--calibration", "--test"])
    def test_conformal_rejects_header_only_file(self, forecast_pair, tmp_path, capsys,
                                                 empty_arg):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,node,step,y,pred\n")
        files = {"--calibration": str(forecast_pair / "val.csv"),
                 "--test": str(forecast_pair / "test.csv"), empty_arg: str(empty)}
        code = main(["conformal", *(a for kv in files.items() for a in kv),
                     "--out", str(tmp_path / "bands.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: no forecast rows\n"

    @pytest.mark.filterwarnings("error")
    def test_evaluate_rejects_header_only_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,node,step,y,pred,lo,hi,covered\n")
        code = main(["evaluate", "--forecasts", str(empty), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: no forecast rows\n"

    def test_evaluate_output(self, forecast_pair, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["evaluate", "--forecasts", str(forecast_pair / "test.csv"),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["metric", "overall"]
        assert [r[0] for r in rows[1:]] == ["mae", "mape", "rmse"]
        y, pred, _ = data_io.load_forecasts(forecast_pair / "test.csv")
        assert float(rows[1][1]) == pytest.approx(evalbench.mae(y, pred), rel=1e-9)

    def test_evaluate_bytes_match_csv_writer_reference(self, forecast_pair, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["evaluate", "--forecasts", str(forecast_pair / "test.csv"),
                     "--out", str(out)]) == 0
        y, pred, _ = data_io.load_forecasts(forecast_pair / "test.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "overall"] + [f"step{s}" for s in range(1, 13)])
            for name in ("mae", "mape", "rmse"):
                steps = evalbench.stepwise_errors(y, pred, name)
                writer.writerow([name, data_io.fmt(getattr(evalbench, name)(y, pred))]
                                + [data_io.fmt(v) for v in steps])
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_mcb_output(self, tmp_path):
        table = tmp_path / "errors.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "d1", "d2", "d3"])
            writer.writerow(["alpha", "1.0", "1.1", "1.2"])
            writer.writerow(["beta", "2.0", "2.1", "2.2"])
            writer.writerow(["gamma", "3.0", "3.1", "3.2"])
        out = tmp_path / "ranks.csv"
        assert main(["mcb", "--table", str(table), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["alpha", "beta", "gamma"]
        assert [float(r[1]) for r in rows[1:]] == [1.0, 2.0, 3.0]

    def test_mcb_bytes_match_csv_writer_reference(self, tmp_path):
        # a tie, a name that needs quoting, and a model significantly worse
        values = [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 2.0], [3.0, 3.0, 3.0, 3.0]]
        models = ["alpha", "beta, v2", "gamma"]
        table = tmp_path / "errors.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "d1", "d2", "d3", "d4"])
            writer.writerows([name, *row] for name, row in zip(models, values))
        out = tmp_path / "ranks.csv"
        assert main(["mcb", "--table", str(table), "--out", str(out)]) == 0
        result = evalbench.mcb(evalbench.ErrorTable(values, models, ["d1", "d2", "d3", "d4"]))
        assert result.significantly_worse.any() and result.mean_ranks[0] == 1.25
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "mean_rank", "interval_lo", "interval_hi",
                             "significantly_worse"])
            for i, name in enumerate(models):
                writer.writerow([name, data_io.fmt(result.mean_ranks[i]),
                                 data_io.fmt(result.intervals[i, 0]),
                                 data_io.fmt(result.intervals[i, 1]),
                                 int(result.significantly_worse[i])])
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_mcb_gamma_outside_the_table_names_the_flag(self, tmp_path, capsys):
        table = tmp_path / "errors.csv"
        table.write_text("model,d1,d2\nalpha,1.0,1.1\nbeta,2.0,2.1\ngamma,3.0,3.1\n")
        out = tmp_path / "ranks.csv"
        # the flag is checked before any file is read, so a missing table is not named
        for path in (table, tmp_path / "missing.csv"):
            with pytest.raises(SystemExit) as exc:
                main(["mcb", "--table", str(path), "--gamma", "0.07", "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --gamma: invalid choice: 0.07 (choose from 0.01, 0.05, 0.1)" in err
            assert str(path) not in err and not out.exists()
        assert main(["mcb", "--table", str(table), "--gamma", "0.10", "--out", str(out)]) == 0


class TestSweepLevel:
    def test_sweep_two_levels(self, dataset, tmp_path, monkeypatch):
        calls = {"load_csv": 0, "build_graph_bundle": 0}

        def counted(owner, name):
            raw = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return raw(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(data_io, "load_csv")
        counted(cli, "build_graph_bundle")
        data_path, _ = dataset
        out = tmp_path / "sweep.csv"
        assert main(["sweep-level", "--data", str(data_path), "--levels", "0", "1",
                     "--out", str(out), *_FAST_SWEEP]) == 0
        assert calls == {"load_csv": 1, "build_graph_bundle": 1}
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "mape", "mae", "rmse"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert all(np.isfinite(float(v)) for v in row[1:])

    @pytest.mark.parametrize("flags", [["--levels", "1", "--level", "7"], ["--level", "7"]])
    def test_level_flag_is_a_usage_error(self, dataset, tmp_path, capsys, flags):
        # not taken as an abbreviation of --levels either
        data_path, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["sweep-level", "--data", str(data_path), *flags,
                  "--out", str(tmp_path / "sweep.csv"), *_FAST_SWEEP])
        assert exc.value.code == 2
        assert "unrecognized arguments: --level 7" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_too_wide_level_fails_before_any_training(self, dataset, tmp_path, capsys,
                                                      monkeypatch):
        fits = []
        fit = training.fit

        def counted(*args, **kwargs):
            fits.append(1)
            return fit(*args, **kwargs)
        monkeypatch.setattr(training, "fit", counted)
        data_path, _ = dataset
        out = tmp_path / "sweep.csv"
        for levels, message in [
            # level 4 of haar is a 16-tap filter on the 12-step window; levels 1 and 2 fit
            (["1", "2", "4"], "level-4 haar filter has 16 taps, more than the 12-step window"),
            # a repeated level would train twice and write two rows of one level
            (["1", "1"], "--levels repeats a level: 1 1"),
        ]:
            assert main(["sweep-level", "--data", str(data_path), "--levels", *levels,
                         "--out", str(out), *_FAST_SWEEP]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert fits == [] and not out.exists()


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x.csv"])
        assert exc.value.code == 2


class TestMalformedInput:
    """Bad input ends in ``error:`` and exit code 1, never a traceback."""

    def _fails_cleanly(self, argv, capsys, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        return err

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--lr", "nan"], "lr=nan"),
        ("train", ["--lr", "inf"], "lr=inf"),
        # no epoch would run, and the checkpoint would hold the initial parameters
        ("train", ["--epochs", "0"], "epochs=0"),
        ("sweep-level", ["--epochs", "0"], "epochs=0"),
        ("train", ["--lr", "inf", "--epochs", "0"], "epochs=0, lr=inf"),
        # numpy's generator takes no negative seed
        ("train", ["--seed", "-1"], "seed=-1"),
        ("sweep-level", ["--seed", "-1"], "seed=-1"),
    ], ids=["lr_nan", "lr_inf", "train_epochs_zero", "sweep_level_epochs_zero",
            "lr_inf_and_epochs_zero", "train_seed_negative", "sweep_level_seed_negative"])
    def test_bad_training_setting(self, dataset, tmp_path, capsys, command, flags, message):
        data_path, _ = dataset
        self._fails_cleanly([command, "--data", str(data_path), "--out", str(tmp_path / "run"),
                             *flags], capsys, f"invalid training configuration: {message}")
        assert not (tmp_path / "run").exists()

    def test_width_below_cheb_order(self, dataset, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "fit", no_training)
        data_path, _ = dataset
        self._fails_cleanly(["train", "--data", str(data_path), "--out", str(tmp_path / "run"),
                             *_FAST_TRAIN, "--width", "2", "--heads", "2"], capsys,
                            "width 2 < cheb_order 3")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, removed", [
        ("build-graph", ["--stad-window", "100"]),
        ("train", ["--stad-window", "100"]),
        ("sweep-level", ["--stad-window", "100"]),
        ("train", ["--config", "run.cfg"]),
        ("sweep-level", ["--config", "run.cfg"]),
        ("train", ["--split", "6:2:2"]),
        ("sweep-level", ["--split", "6:2:2"]),
        ("forecast", ["--split", "6:2:2"]),
        ("train", ["--cheb-order", "3"]),
        ("train", ["--huber-delta", "1.0"]),
        ("sweep-level", ["--cheb-order", "3"]),
        ("sweep-level", ["--huber-delta", "1.0"]),
        ("train", ["--filter", "haar"]),
        ("sweep-level", ["--filter", "haar"]),
        ("decompose", ["--filter", "haar"]),
        ("mcb", ["--ties", "max"]),
    ], ids=["build-graph-stad-window", "train-stad-window", "sweep-level-stad-window",
            "train-config", "sweep-level-config", "train-split", "sweep-level-split",
            "forecast-split", "train-cheb-order", "train-huber-delta",
            "sweep-level-cheb-order", "sweep-level-huber-delta", "train-filter",
            "sweep-level-filter", "decompose-filter", "mcb-ties"])
    def test_removed_option_exits_two(self, dataset, tmp_path, capsys, command, removed):
        # the distance graph is built from the whole training series, settings
        # enter by flags only, and the split, Chebyshev order, Huber delta,
        # wavelet filter and mcb's tie rule are constants
        data_path, _ = dataset
        out = tmp_path / "out"
        fast = {"sweep-level": _FAST_SWEEP, "train": _FAST_TRAIN}.get(command, [])
        io_flags = (["--input", str(data_path), "--out-dir", str(out)]
                    if command in ("build-graph", "decompose")
                    else ["--table", str(data_path), "--out", str(out)] if command == "mcb"
                    else ["--data", str(data_path), "--out", str(out), *fast])
        if command == "forecast":
            io_flags += ["--checkpoint", str(tmp_path / "checkpoint.bin")]
        with pytest.raises(SystemExit) as exc:
            main([command, *io_flags, *removed])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [18, 19])
    def test_conformal_refuses_a_window_too_short_for_a_finite_band(
            self, forecast_pair, tmp_path, capsys, alpha):
        # at beta 0.05 the rank ceil(0.95 (n + 1)) first fits in n scores at n = 19
        out = tmp_path / "bands.csv"
        argv = ["conformal", "--calibration", str(forecast_pair / "val.csv"),
                "--test", str(forecast_pair / "test.csv"),
                "--alpha", str(alpha), "--beta", "0.05", "--out", str(out)]
        if alpha == 19:
            assert main(argv) == 0
            _, _, (lo, hi) = data_io.load_forecasts(out)
            assert np.isfinite(lo).all() and np.isfinite(hi).all()
            return
        message = ("--alpha 18 is below 19, the fewest scores that can give a finite band "
                   "at --beta 0.05")
        self._fails_cleanly(argv, capsys, message)
        assert not out.exists()
        # refused before any forecast file is read
        argv[2] = str(tmp_path / "missing.csv")
        self._fails_cleanly(argv, capsys, message)

    @pytest.mark.parametrize("argv, message", [
        (["conformal", "--calibration", "val.csv", "--test", "test.csv", "--beta", "1.5"],
         "--beta must be in (0, 1), got 1.5"),
        (["build-graph", "--input", "data.csv", "--out-dir", "graph", "--p-sp", "0"],
         "--p-sp must be in (0, 1], got 0.0"),
        (["train", "--data", "data.csv", "--p-sp", "1.5"], "--p-sp must be in (0, 1], got 1.5"),
        (["sweep-level", "--data", "data.csv", "--p-sp", "nan"],
         "--p-sp must be in (0, 1], got nan"),
    ], ids=["conformal-beta", "build-graph-p-sp", "train-p-sp", "sweep-level-p-sp"])
    def test_out_of_range_flag(self, tmp_path, capsys, monkeypatch, argv, message):
        # refused before any input file is read: none of them exists
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        if "--out-dir" not in argv:
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not (tmp_path / "graph").exists()

    @pytest.mark.parametrize("level, message", [
        ("0", "--level must be in 1..9 for the haar filter on a 700-step series, got 0"),
        # level 9's 512 taps fit the 700 steps, level 10's 1024 would wrap around
        ("10", "--level must be in 1..9 for the haar filter on a 700-step series, got 10"),
    ], ids=["zero", "wider_than_series"])
    def test_decompose_level_out_of_range(self, dataset, tmp_path, capsys, level, message):
        data_path, _ = dataset
        out = tmp_path / "bands"
        assert main(["decompose", "--input", str(data_path), "--level", level,
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    _SPLIT = "series of length 2 too short for split SplitSpec(train=0.6, val=0.2, test=0.2)"
    # faults that the checks past the loaders find, each named by its input file
    _FAULTS_PAST_THE_LOADER = [
        ("build-graph_one_sensor", "build_stad: need an (N>=2) x time matrix, got (1, 700)"),
        ("train_one_sensor", "build_stad: need an (N>=2) x time matrix, got (1, 420)"),
        ("sweep-level_one_sensor", "build_stad: need an (N>=2) x time matrix, got (1, 420)"),
        ("build-graph_one_step", "stad_distance: need at least two observations"),
        ("train_two_steps", _SPLIT),
        ("forecast_two_steps", _SPLIT),
        ("conformal_node_counts_differ",
         "calibrate_stream: calibration streams (3, 12) != test (4, 12)"),
        ("evaluate_zero_truth", "mape: every ground-truth entry is (near) zero"),
        # level 1's two haar taps need two steps, so there is no level range to name
        ("decompose_one_step", "a 1-step series is too short for any haar level"),
    ]

    @pytest.mark.parametrize("case, message", _FAULTS_PAST_THE_LOADER,
                             ids=[case for case, _ in _FAULTS_PAST_THE_LOADER])
    def test_fault_past_the_loader_names_its_file(self, dataset, trained, forecast_pair,
                                                  tmp_path, capsys, case, message):
        command, fault = case.split("_", 1)
        x = dataset[1]
        bad = tmp_path / "bad.csv"
        out = tmp_path / "out"
        if command == "conformal":
            y, pred, _ = data_io.load_forecasts(forecast_pair / "val.csv")
            data_io.save_forecasts(tmp_path / "cal.csv", y[:, :3], pred[:, :3])
            bad = forecast_pair / "test.csv"  # the file that the bands are for
            argv = ["--calibration", str(tmp_path / "cal.csv"), "--test", str(bad)]
        elif command == "evaluate":
            y, pred, _ = data_io.load_forecasts(forecast_pair / "test.csv")
            data_io.save_forecasts(bad, np.zeros_like(y), pred)
            argv = ["--forecasts", str(bad)]
        else:
            data_io.save_csv(bad, {"one_sensor": x[:1], "one_step": x[..., :1],
                                   "two_steps": x[..., :2]}[fault])
            argv = {"build-graph": ["--input", str(bad), "--out-dir", str(out)],
                    "decompose": ["--input", str(bad), "--out-dir", str(out)],
                    "train": ["--data", str(bad), *_FAST_TRAIN],
                    "sweep-level": ["--data", str(bad), *_FAST_SWEEP],
                    "forecast": ["--checkpoint", str(trained / "checkpoint.bin"),
                                 "--data", str(bad), "--segment", "val"]}[command]
        if "--out-dir" not in argv:
            argv += ["--out", str(out)]
        assert main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {message}\n" and err.count(str(bad)) == 1
        assert not out.exists()

    # ids are the fault names alone, so rewording a message keeps the test ids
    _CHECKPOINT_FAULTS = [
        ("not_zip", "not a checkpoint archive"),
        ("unknown_config_key", "checkpoint config: unknown key(s): dropout"),
        ("constants_in_config",
         "checkpoint config: unknown key(s): pool_window, in_channels, eps"),
        ("geometry_in_config", "checkpoint config: unknown key(s): kernel_sizes, window"),
        ("horizon_in_config", "checkpoint config: unknown key(s): horizon"),
        ("cheb_order_in_config", "checkpoint config: unknown key(s): cheb_order"),
        ("filter_name_in_config", "checkpoint config: unknown key(s): filter_name"),
        ("config_line_without_equals", "checkpoint config: malformed line 'blocks 1'"),
        ("config_blank_line", "checkpoint config: malformed line ''"),
        ("config_comment_line", "checkpoint config: malformed line '# saved by hand'"),
        ("repeated_config_key", "checkpoint config: repeated key 'blocks'"),
        ("bad_config_value", "checkpoint config: bad value blocks='one', expected int"),
        ("config_not_utf8", "checkpoint config: not UTF-8 text"),
        ("no_nodes", "checkpoint config: no nodes entry"),
        # values that ModelConfig rejects
        ("heads_not_dividing_width",
         "checkpoint config: width 3 not divisible by head count 2"),
        ("zero_blocks", "checkpoint config: ModelConfig.blocks must be positive"),
        ("level_wider_than_window",
         "checkpoint config: level-9 haar filter has 512 taps, more than the 12-step window"),
        ("bad_manifest_shape", "manifest shape 'x1,1,2,1' of 'block0.gc.bias' is not integers"),
        ("bad_crc", "Bad CRC-32 for file 'tensors/block0.gc.theta'"),
        ("bad_deflate_stream", "while decompressing data"),
        ("missing_entry", "checkpoint has no entry 'tensors/block0.gc.theta'"),
        ("short_tensor", "tensor 'block0.gc.theta' has"),
        ("missing_extra", "checkpoint lacks extra/norm_mean"),
        ("a_stad_too_wide", "extra/a_stad has shape (5, 5), expected (4, 4) for 4 nodes"),
        ("a_stad_not_square", "extra/a_stad has shape (4, 3), expected (4, 4)"),
        ("strg_mask_flat", "extra/strg_mask has shape (16,), expected (4, 4)"),
        ("norm_mean_length_one", "extra/norm_mean has shape (1,), expected (4,)"),
        ("norm_std_length_three", "extra/norm_std has shape (3,), expected (4,)"),
        ("norm_std_zero", "extra/norm_std has 4 non-positive entries"),
        ("norm_std_negative", "extra/norm_std has 1 non-positive entries"),
        ("norm_std_nan", "tensor 'extra/norm_std' has 1 non-finite entries"),
        ("norm_std_negative_and_inf", "tensor 'extra/norm_std' has 1 non-finite entries"),
        ("strg_mask_all_nan", "tensor 'extra/strg_mask' has 16 non-finite entries"),
        ("strg_mask_fractional", "extra/strg_mask has 4 entries other than 0 and 1"),
        ("a_stag_nan", "tensor 'extra/a_stag' has 3 non-finite entries"),
        ("a_stad_nan", "tensor 'extra/a_stad' has 3 non-finite entries"),
        ("a_stad_asymmetric", "extra/a_stad has 6 negative or asymmetric entries"),
        ("a_stad_negative", "extra/a_stad has 4 negative or asymmetric entries"),
        ("norm_mean_nan", "tensor 'extra/norm_mean' has 1 non-finite entries"),
        ("wq_nan", "tensor 'block0.wta.wq' has 1 non-finite entries"),
        ("time_w_inf", "tensor 'pred.time_w' has 1 non-finite entries"),
    ]

    @pytest.mark.parametrize("fault, message", _CHECKPOINT_FAULTS,
                             ids=[fault for fault, _ in _CHECKPOINT_FAULTS])
    def test_forecast_malformed_checkpoint(self, trained, dataset, tmp_path, capsys,
                                           fault, message):
        edits = {
            "unknown_config_key": ("config.txt", lambda data: data + b"dropout=1\n"),
            # the lines a checkpoint written before these became constants carries
            "constants_in_config": ("config.txt", lambda data: data.replace(
                b"channels=", b"pool_window=2\nchannels=") + b"in_channels=1\neps=1e-08\n"),
            # the lines a checkpoint written before the geometry became constant carries
            "geometry_in_config": ("config.txt", lambda data: data.replace(
                b"channels=", b"kernel_sizes=3,5,7\nchannels=") + b"window=12\n"),
            # the line a checkpoint written before the horizon became constant carries
            "horizon_in_config": ("config.txt", lambda data: data.replace(
                b"level=", b"horizon=12\nlevel=")),
            # the line a checkpoint written before the Chebyshev order became constant carries
            "cheb_order_in_config": ("config.txt", lambda data: data.replace(
                b"channels=", b"cheb_order=3\nchannels=")),
            # the line a checkpoint written before the wavelet filter became constant carries
            "filter_name_in_config": ("config.txt", lambda data: data + b"filter_name=haar\n"),
            "config_line_without_equals": ("config.txt",
                                           lambda data: data.replace(b"blocks=1", b"blocks 1")),
            # the parser reads only what the writer writes: no blank or comment lines
            "config_blank_line": ("config.txt", lambda data: data + b"\n"),
            "config_comment_line": ("config.txt", lambda data: b"# saved by hand\n" + data),
            "repeated_config_key": ("config.txt", lambda data: data + b"blocks=2\n"),
            "config_not_utf8": ("config.txt", lambda data: data + b"\xff\n"),
            "bad_config_value": ("config.txt",
                                 lambda data: data.replace(b"blocks=1", b"blocks=one")),
            "no_nodes": ("config.txt", lambda data: data.replace(b"nodes=4\n", b"")),
            "heads_not_dividing_width": ("config.txt",
                                         lambda data: data.replace(b"heads=3", b"heads=2")),
            "zero_blocks": ("config.txt", lambda data: data.replace(b"blocks=1", b"blocks=0")),
            "level_wider_than_window": ("config.txt",
                                        lambda data: data.replace(b"level=1", b"level=9")),
            "bad_manifest_shape": ("manifest.txt", lambda data: data.replace(b"\t", b"\tx", 1)),
            "missing_entry": ("tensors/block0.gc.theta", lambda data: None),
            "short_tensor": ("tensors/block0.gc.theta", lambda data: data[:-8]),
            "missing_extra": ("manifest.txt", lambda data: b"\n".join(
                line for line in data.split(b"\n") if not line.startswith(b"extra/norm_mean"))),
        }
        bad_extras = {
            "a_stad_too_wide": ("a_stad", np.eye(5)),
            "a_stad_not_square": ("a_stad", np.ones((4, 3))),
            "strg_mask_flat": ("strg_mask", np.ones(16)),
            "norm_mean_length_one": ("norm_mean", np.zeros(1)),
            "norm_std_length_three": ("norm_std", np.ones(3)),
            "norm_std_zero": ("norm_std", np.zeros(4)),
            "norm_std_negative": ("norm_std", np.array([1.0, -1.0, 1.0, 1.0])),
            "norm_std_nan": ("norm_std", np.array([1.0, np.nan, 1.0, 1.0])),
            "norm_std_negative_and_inf": ("norm_std", np.array([1.0, -1.0, 1.0, np.inf])),
            "strg_mask_all_nan": ("strg_mask", np.full((4, 4), np.nan)),
            "strg_mask_fractional": ("strg_mask", np.eye(4) * 0.5),
            # an older checkpoint carries a_stag; forecast does not read it,
            # but the loader rejects a non-finite entry in any tensor
            "a_stag_nan": ("a_stag", np.where(np.eye(4, k=1) == 1, np.nan, 0.0)),
            "a_stad_nan": ("a_stad", np.where(np.eye(4, k=1) == 1, np.nan, 0.0)),
            # three pairs differ, both entries of each counted
            "a_stad_asymmetric": ("a_stad", np.eye(4, k=1) * 0.5),
            "a_stad_negative": ("a_stad", np.ones((4, 4)) - 2 * np.eye(4)),
        }
        # the first entry of a parameter or an extra made nan or inf; a nan
        # weight that ReLU zeroes gave finite but changed forecasts
        poisoned = {
            "norm_mean_nan": ("extra/norm_mean", np.nan),
            "wq_nan": ("block0.wta.wq", np.nan),
            "time_w_inf": ("pred.time_w", np.inf),
        }
        bad = tmp_path / "bad.bin"
        if fault in bad_extras or fault in poisoned:
            cfg, state, extras = load_checkpoint(trained / "checkpoint.bin")
            if fault in poisoned:
                name, value = poisoned[fault]
                tensors, key = ((extras, name[len("extra/"):]) if name.startswith("extra/")
                                else (state, name))
                tensors[key].flat[0] = value
            else:
                name, value = bad_extras[fault]
                extras = {**extras, name: value}
            save_checkpoint(bad, cfg, state, extras)
        elif fault == "not_zip":
            bad.write_text("epoch,loss\n1,0.5\n")
        elif fault in ("bad_crc", "bad_deflate_stream"):
            method = zipfile.ZIP_DEFLATED if fault == "bad_deflate_stream" else zipfile.ZIP_STORED
            with zipfile.ZipFile(trained / "checkpoint.bin") as src, \
                    zipfile.ZipFile(bad, "w", method) as dst:
                for info in src.infolist():
                    dst.writestr(info.filename, src.read(info))
            raw = bytearray(bad.read_bytes())
            with zipfile.ZipFile(bad) as zf:
                info = zf.getinfo("tensors/block0.gc.theta")
            # corrupt the first data bytes after the entry's local header
            start = info.header_offset + 30 + len(info.filename) + len(info.extra)
            raw[start : start + 4] = bytes(b ^ 0xA5 for b in raw[start : start + 4])
            bad.write_bytes(bytes(raw))
        else:
            target, edit = edits[fault]
            with zipfile.ZipFile(trained / "checkpoint.bin") as src, \
                    zipfile.ZipFile(bad, "w") as dst:
                for info in src.infolist():
                    data = src.read(info)
                    data = edit(data) if info.filename == target else data
                    if data is not None:
                        dst.writestr(info, data)
        data_path, _ = dataset
        out = tmp_path / "out.csv"
        err = self._fails_cleanly(["forecast", "--checkpoint", str(bad), "--data",
                                   str(data_path), "--out", str(out)], capsys, message)
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("model,d1,d2\nalpha,1.0,1.1\nbeta,2.0,n/a\n", "row 3: could not convert"),
        ("model,d1,d2\nalpha,1.0,1.1\nbeta,2.0\n", "row 3 has 2 cells, expected 3"),
        ("", "empty file"),
        ("model,d1,d2\nalpha,1.0,1.1\nbeta,2.0,nan\n",
         "error table entry 'beta', 'd2' is nan; entries must be finite and nonnegative"),
        ("model,d1,d2\nalpha,1.0,1.1\nbeta,-2.0,1.2\n",
         "error table entry 'beta', 'd1' is -2.0; entries must be finite and nonnegative"),
        ("model,d1,d2\n", "mcb needs at least 2 models and 1 dataset"),
        ("model,d1,d2\nalpha,1.0,1.1\n", "mcb needs at least 2 models and 1 dataset"),
        ("model,d1,d2\nm1,1.0,1.1\nm2,2.0,1.2\nm1,3.0,1.3\n", "error table repeats model 'm1'"),
    ], ids=["non_numeric_cell", "ragged_row", "empty_file", "nan_cell", "negative_cell",
            "header_only", "one_model", "repeated_model"])
    def test_mcb_malformed_table(self, tmp_path, capsys, text, message):
        table = tmp_path / "errors.csv"
        table.write_text(text)
        out = tmp_path / "r.csv"
        err = self._fails_cleanly(["mcb", "--table", str(table), "--out", str(out)],
                                  capsys, message)
        assert err.startswith(f"error: {table}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "build-graph", "train", "forecast",
                                         "conformal", "evaluate", "mcb"])
    def test_non_utf8_input_file(self, command, dataset, trained, forecast_pair, tmp_path,
                                 capsys):
        data_path, _ = dataset
        forecasts = forecast_pair / "test.csv"
        text = {"conformal": forecasts, "evaluate": forecasts}.get(command, data_path).read_bytes()
        if command == "mcb":
            text = b"model,d1,d2\nalpha,1.0,1.1\nbeta,2.0,1.2\n"
        head, _, rest = text.partition(b"\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(head + b"\n\xff" + rest)  # 0xff starts no UTF-8 sequence
        out = str(tmp_path / "out")
        argv = {
            "decompose": ["--input", str(bad), "--out-dir", out],
            "build-graph": ["--input", str(bad), "--out-dir", out],
            "train": ["--data", str(bad), "--out", out, *_FAST_TRAIN],
            "forecast": ["--checkpoint", str(trained / "checkpoint.bin"), "--data", str(bad),
                         "--out", out],
            "conformal": ["--calibration", str(bad), "--test", str(forecasts), "--out", out],
            "evaluate": ["--forecasts", str(bad), "--out", out],
            "mcb": ["--table", str(bad), "--out", out],
        }[command]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("command", ["evaluate", "conformal"])
    def test_non_finite_forecast_cells(self, command, forecast_pair, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,node,step,y,pred\n0,0,1,1.5,1.4\n0,0,2,1.5,nan\n"
                       "1,0,1,1.5,inf\n1,0,2,1.5,1.6\n")
        out = tmp_path / "out.csv"
        argv = (["evaluate", "--forecasts", str(bad)] if command == "evaluate" else
                ["conformal", "--calibration", str(forecast_pair / "val.csv"),
                 "--test", str(bad)])
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: row 2 after the header has pred = nan\n"
        assert not out.exists()

    def test_segment_too_short_for_one_window(self, trained, dataset, tmp_path, capsys):
        # 100 steps split 60:20:20, and one window needs 12 + 12 steps
        short = tmp_path / "short.csv"
        data_io.save_csv(short, dataset[1][..., :100])
        out = tmp_path / "out"
        message = f"error: {short}: val: segment length 20 shorter than input+horizon = 24\n"
        assert main(["train", "--data", str(short), "--out", str(out), *_FAST_TRAIN]) == 1
        assert capsys.readouterr().err == message
        assert main(["forecast", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(short), "--segment", "val", "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_forecast_sensor_count_differs_from_checkpoint(self, trained, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        data_io.save_csv(wide, data_io.synthetic(5, 700, seed=13))
        out = tmp_path / "out.csv"
        self._fails_cleanly(["forecast", "--checkpoint", str(trained / "checkpoint.bin"),
                             "--data", str(wide), "--out", str(out)], capsys,
                            "5 sensors, but the checkpoint was trained on 4")
        assert not out.exists()


def test_readme_cli_quick_start_parses():
    # every documented command line must be accepted by the current parser
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Quick start \(CLI\)\n+```bash\n(.*?)```", readme, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("wavetraffic ")]
    assert len(commands) >= 8
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]


def test_readme_config_keys_match_schema():
    # the documented settings flags are exactly the flags that set a config field
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listing = re.search(r"The settings flags are(.*?)\.\n", readme, re.S).group(1)
    documented = re.findall(r"`(--[\w-]+)`", listing)
    fields = _setting_names()
    flags = [flag for action in _subcommand("train")._actions if action.dest in fields
             for flag in action.option_strings]
    assert sorted(documented) == sorted(flags) and len(flags) == len(fields)
