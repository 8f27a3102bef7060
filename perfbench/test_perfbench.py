"""Tests of the benchmark's own code, on workloads shrunk to run in seconds."""

import json
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import workloads  # noqa: E402
from wavetraffic import evalbench, training  # noqa: E402

TINY_TRAIN = workloads.TrainWorkload("tiny_train", nodes=4, channels=2, blocks=1, width=3,
                                     heads=3, level=2, batch=4, n_train=8, n_val=4, steps=1152)
TINY_PIPELINE = workloads.PipelineWorkload("tiny_pipeline", nodes=3, steps=2016)
DECLARED = json.loads((Path(run.REPO) / "BENCHMARK.json").read_text())


def _measure(workload, tmp_path, trace):
    result, record, _ = run.measure(workload, seed=3, seconds=0, trace=trace,
                                    workdir=tmp_path / "work", setup_panel=(1,),
                                    setup_repeats=1)
    return result, record


def test_result_names_and_units_match_benchmark_json(tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = _measure(TINY_TRAIN, tmp_path, trace)
        assert result["correct"], result
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        assert reported == declared


@pytest.mark.parametrize("workload, counts", [
    (TINY_TRAIN, ("tensor.graph_nodes", "tensor.einsum.calls", "tensor.conv1d.calls")),
    (TINY_PIPELINE, ("graph.stad_distance.calls", "conformal.weighted_quantile.calls",
                     "conformal.streams")),
])
def test_exact_counts_repeat_across_traced_runs(workload, counts, tmp_path):
    first, _ = _measure(workload, tmp_path, trace=True)
    second, _ = _measure(workload, tmp_path, trace=True)
    assert first["correct"] and second["correct"], (first, second)
    for name in counts:
        value = first["metrics"][name]["value"]
        assert value > 0, name
        assert second["metrics"][name]["value"] == value, name


def test_corrupted_evaluate_output_is_a_failed_operation(tmp_path, monkeypatch):
    real = evalbench.rmse
    monkeypatch.setattr(evalbench, "rmse", lambda y, p: real(y, p) * 1.001)
    result, record = _measure(TINY_PIPELINE, tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 5
    assert record["error_rate"] == pytest.approx(0.2)
    assert "metrics.csv rmse" in record["errors"][0]


def test_non_finite_training_loss_is_a_failed_operation(tmp_path, monkeypatch):
    real = training.fit

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        out.log[0]["val_mae"] = np.nan
        return out

    monkeypatch.setattr(training, "fit", corrupted)
    result, record = _measure(TINY_TRAIN, tmp_path, trace=False)
    assert result["failed"] == result["attempted"] == 1
    assert "non-finite val_mae" in record["errors"][0]
