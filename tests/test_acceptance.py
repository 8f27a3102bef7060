"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line directly to the terminal (one
per criterion) and then asserts, so the verdicts are visible regardless
of pytest's capture settings.
"""

import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavetraffic import conformal as cp
from wavetraffic import data_io, evalbench, training
from wavetraffic import tensor as T
from wavetraffic import wavelet as wv
from wavetraffic.cli import main as cli_main
from wavetraffic.graph import build_graph_bundle, chebyshev_basis, scaled_laplacian
from wavetraffic.model import Model, ModelConfig
from wavetraffic.tensor import Tensor


_CAPTURE_MANAGER = None


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance {num:02d}] {name}: {verdict}{suffix}"
    if _CAPTURE_MANAGER is not None:
        # bypass pytest's fd-level capture so each verdict reaches the terminal
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
        sys.__stdout__.flush()
    assert ok, f"criterion {num} failed{suffix}"


# -- shared synthetic training runs (criteria 7, 8, 9) ----------------------


@pytest.fixture(scope="module")
def synthetic_runs():
    """Train the wavelet (level 2) and wavelet-disabled (level 0) models
    on the same seeded synthetic dataset with identical seeds."""
    x = data_io.synthetic(8, 4032, seed=42)
    tr_seg, va_seg, te_seg = training.split(x)  # 6:2:2
    stats = training.compute_stats(tr_seg)
    bundle = build_graph_bundle(tr_seg[:, 0, :], p_sp=0.25, cheb_order=3)
    trw, vaw, tew = (training.make_windows(training.normalize(seg, stats))
                     for seg in (tr_seg, va_seg, te_seg))
    tcfg = training.TrainConfig(epochs=30, lr=2e-3, batch_size=32, seed=0)
    out = {"stats": stats, "windows": (trw, vaw, tew)}
    for level in (2, 0):
        cfg = ModelConfig(nodes=8, blocks=2, width=3, heads=3, level=level, channels=4)
        model = Model(cfg, bundle, seed=0)
        t0 = time.perf_counter()
        result = training.fit(model, trw, vaw, tcfg)
        wall = time.perf_counter() - t0
        model.graph.load_state(result.best_state)
        out[level] = {
            "model": model,
            "log": result.log,
            "wall": wall,
            "test_mae": evalbench.mae(*training.predict_windows(model, tew, stats)),
        }
    return out


# -- criteria ---------------------------------------------------------------


def test_criterion_01_modwt_perfect_reconstruction():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(1000):
            length = int(rng.integers(8, 513))
            filt = ("haar", "d4")[int(rng.integers(2))]
            level = int(rng.integers(1, 4))
            u = rng.normal(size=length)
            rec = wv.imodwt(wv.mra(u, filt, level))
            worst = max(worst, float(np.max(np.abs(rec - u))))
    elapsed = time.perf_counter() - t0
    _report(1, "MODWT perfect reconstruction (1000 series)",
            worst < 1e-10 and elapsed < 10.0,
            f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_shift_equivariance():
    rng = np.random.default_rng(2)
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            length = int(rng.integers(16, 257))
            shift = int(rng.integers(1, length))
            filt = ("haar", "d4")[int(rng.integers(2))]
            level = int(rng.integers(1, 4))
            u = rng.normal(size=length)
            base_c, base_s = wv.modwt(u, filt, level)
            sh_c, sh_s = wv.modwt(np.roll(u, shift), filt, level)
            ok &= all(np.array_equal(np.roll(a, shift), b)
                      for a, b in zip(base_c, sh_c))
            ok &= np.array_equal(np.roll(base_s, shift), sh_s)
    _report(2, "shift equivariance (100 pairs, exact)", ok)


def test_criterion_03_gradient_audit(toy_setup):
    from conftest import assert_grads_close, finite_difference, gradcheck_op

    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    def rand(shape, requires_grad=True):
        return Tensor(rng.normal(size=shape), requires_grad=requires_grad)

    # every differentiable primitive
    a, b = rand((3, 4)), rand((4, 2))
    gradcheck_op(lambda: T.matmul(a, b).sum(), [a, b])
    e1, e2 = rand((2, 3, 4)), rand((4, 5))
    w = rng.normal(size=(2, 3, 5))
    gradcheck_op(lambda: (T.einsum("bij,jk->bik", e1, e2) * w).sum(), [e1, e2])
    s = rand((3, 6))
    sw = rng.normal(size=(3, 6))
    gradcheck_op(lambda: (T.softmax_last(s) * sw).sum(), [s])
    ln, g_, b_ = rand((2, 5)), Tensor(np.ones(5), requires_grad=True), Tensor(np.zeros(5), requires_grad=True)
    lw = rng.normal(size=(2, 5))
    gradcheck_op(lambda: (T.layer_norm(ln, g_, b_) * lw).sum(), [ln, g_, b_])
    cx, ck, cb = rand((2, 2, 9)), rand((3, 2, 3)), Tensor(np.zeros(3), requires_grad=True)
    cw = rng.normal(size=(2, 3, 7))
    gradcheck_op(lambda: (T.conv1d(cx, ck, cb) * cw).sum(), [cx, ck, cb])
    pv = rand((2, 2, 8))
    pw = rng.normal(size=(2, 2, 4))
    gradcheck_op(lambda: (T.avg_pool_last(pv, 2) * pw).sum(), [pv])
    u, v = rand((3, 4)), rand((3, 4))
    gradcheck_op(lambda: (T.tanh(u) * T.sigmoid(v) + T.relu(u * v)).sum(), [u, v])
    c1, c2 = rand((2, 3)), rand((2, 2))
    gradcheck_op(
        lambda: (T.concat([c1, c2], axis=1)[:, 1:4].transpose((1, 0)).reshape(6)
                 * np.arange(6.0)).sum(),
        [c1, c2],
    )
    pw2 = Tensor(np.abs(rng.normal(size=(3, 3))) + 0.5, requires_grad=True)
    gradcheck_op(lambda: pw2.power(1.7).mean(axis=1).sum(), [pw2])
    hx = rand((6,))
    ht = rng.normal(size=6)
    gradcheck_op(lambda: T.huber_loss(hx, ht), [hx])

    # full 2-block, N=4, M=12 model: every registered parameter
    cfg, bundle = toy_setup
    model = Model(cfg, bundle, seed=17)
    x = rng.normal(size=(1, cfg.nodes, cfg.in_channels, cfg.window))
    target = rng.normal(size=(1, cfg.nodes, cfg.horizon))
    loss = T.huber_loss(model.forward(x), target)
    grads = model.graph.backward(loss)

    def loss_value():
        return T.huber_loss(model.forward(x), target).item()

    n_entries = 0
    for name, tensor in model.graph.parameters.items():
        numeric = finite_difference(loss_value, [tensor.data])[0]
        assert_grads_close(grads[name], numeric, rtol=1e-4)
        n_entries += tensor.data.size
    elapsed = time.perf_counter() - t0
    _report(3, "gradient audit (all ops + full model)",
            elapsed < 300.0,
            f"{n_entries} model entries, {elapsed:.1f}s")


def test_criterion_04_branch_length_identity():
    cfg = ModelConfig(nodes=4)  # kernels {3,5,7}, pool 2, window 12
    raw = [cfg.window - s + 1 for s in cfg.kernel_sizes]
    pooled = [r // cfg.pool_window for r in raw]
    ok = raw == [10, 8, 6] and pooled == [5, 4, 3] and sum(pooled) == 12
    # the geometry is constant: no config sets another kernel set or window
    for bad in ({"kernel_sizes": (3, 5)}, {"kernel_sizes": (2, 5, 7)}, {"window": 6}):
        try:
            ModelConfig(nodes=4, **bad)
        except TypeError:
            continue
        ok = False
    _report(4, "gated-branch length identity {3,5,7}/W=2/M=12", ok,
            f"raw {raw} -> pooled {pooled}")


def test_criterion_05_attention_row_stochastic(toy_setup):
    cfg, bundle = toy_setup
    model = Model(cfg, bundle, seed=5)
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    for trial in range(5):
        x = rng.normal(scale=1.0 + trial, size=(2, cfg.nodes, cfg.in_channels, cfg.window))
        _, collected = model.forward(x, collect_attention=True)
        for attn in collected:
            worst = max(worst, float(np.max(np.abs(attn.data.sum(axis=-1) - 1.0))))
            count += 1
    _report(5, "attention matrices row-stochastic", worst <= 1e-12,
            f"{count} tensors, max row-sum deviation {worst:.2e}")


def test_criterion_06_laplacian_spectrum_and_chebyshev():
    rng = np.random.default_rng(6)
    ok = True
    worst_eig, worst_res = -np.inf, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        a = rng.uniform(0, 1, size=(n, n))
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
        if rng.uniform() < 0.2:
            a *= rng.uniform(0, 1, size=(n, n)) > 0.5  # sparsify some graphs
            a = np.maximum(a, a.T)
        lap = scaled_laplacian(a)
        eigs = np.linalg.eigvalsh(lap.matrix)  # dense eigensolver oracle
        worst_eig = max(worst_eig, float(eigs.max()))
        ok &= eigs.min() >= -1.0 - 1e-6 and eigs.max() <= 1.0 + 1e-6
        basis = chebyshev_basis(lap, 4)
        lt = lap.matrix
        for k in range(2, 4):
            res = np.max(np.abs(basis.matrices[k]
                                - (2.0 * lt @ basis.matrices[k - 1] - basis.matrices[k - 2])))
            worst_res = max(worst_res, float(res))
            ok &= res < 1e-10
    _report(6, "Laplacian spectrum in [-1, 1] + Chebyshev recurrence", ok,
            f"max eig {worst_eig:.8f}, max residual {worst_res:.2e}")


def test_criterion_07_learnability(synthetic_runs):
    log = synthetic_runs[2]["log"]
    first = log[0]["val_mae"]
    best = min(row["val_mae"] for row in log)
    wall = synthetic_runs[2]["wall"]
    _report(7, "learnability on synthetic data (30 epochs)",
            best < 0.7 * first and wall < 900.0,
            f"val MAE {first:.4f} -> {best:.4f} ({best / first:.2f}x), {wall:.0f}s")


def test_criterion_08_wavelet_ablation(synthetic_runs):
    with_wavelet = synthetic_runs[2]["test_mae"]
    without = synthetic_runs[0]["test_mae"]
    _report(8, "wavelet ablation direction (J=2 vs J=0 test MAE)",
            with_wavelet <= without * 1.02,
            f"J=2 {with_wavelet:.4f} vs J=0 {without:.4f}")


def test_criterion_09_conformal_coverage(synthetic_runs):
    run = synthetic_runs[2]
    model = run["model"]
    _, vaw, tew = synthetic_runs["windows"]
    yv, pv = training.predict_windows(model, vaw, synthetic_runs["stats"])
    yt, pt = training.predict_windows(model, tew, synthetic_runs["stats"])
    covered, total = 0, 0
    for node in range(model.cfg.nodes):
        for step in range(model.cfg.horizon):
            lo, hi, _ = cp.calibrate_stream(
                yv[:, node, step], pv[:, node, step],
                yt[:, node, step], pt[:, node, step],
                window=288, beta=0.1,
            )
            covered += int(((yt[:, node, step] >= lo) & (yt[:, node, step] <= hi)).sum())
            total += len(lo)
    coverage = covered / total
    _report(9, "conformal coverage in [0.85, 0.95] at beta=0.1",
            total >= 5000 and 0.85 <= coverage <= 0.95,
            f"coverage {coverage:.4f} over {total} points")


def test_criterion_10_mcb_and_improvement():
    from test_evalbench import _BENCHMARK_MAE, _BENCHMARK_MODELS

    table = evalbench.ErrorTable(_BENCHMARK_MAE, _BENCHMARK_MODELS,
                                 ["net1", "net2", "net3"])
    result = evalbench.mcb(table, gamma=0.05)
    ours = result.models.index("ours")
    rank_ok = (result.best_index == ours
               and round(result.mean_ranks[ours], 2) == 1.67)
    imp_ok = (round(evalbench.improvement(1.72, 1.70), 2) == 1.16
              and round(evalbench.improvement(3.98, 3.88), 2) == 2.51)
    _report(10, "rank-test and improvement regression values",
            rank_ok and imp_ok,
            f"mean rank {result.mean_ranks[ours]:.4f}")


def test_criterion_11_end_to_end_determinism(tmp_path):
    data_path = tmp_path / "toy.csv"
    data_io.save_csv(data_path, data_io.synthetic(4, 700, seed=99))

    def pipeline(out: Path):
        out.mkdir()
        args = [
            "--epochs", "1", "--batch-size", "64", "--lr", "1e-3",
            "--blocks", "1", "--width", "3", "--channels", "2", "--level", "1",
            "--p-sp", "0.5", "--seed", "0",
        ]
        assert cli_main(["build-graph", "--input", str(data_path), "--p-sp", "0.5",
                         "--out-dir", str(out / "graph")]) == 0
        assert cli_main(["train", "--data", str(data_path), "--out", str(out), *args]) == 0
        for segment in ("val", "test"):
            assert cli_main(["forecast", "--checkpoint", str(out / "checkpoint.bin"),
                             "--data", str(data_path), "--segment", segment,
                             "--out", str(out / f"{segment}.csv")]) == 0
        assert cli_main(["conformal", "--calibration", str(out / "val.csv"),
                         "--test", str(out / "test.csv"), "--alpha", "60",
                         "--out", str(out / "bands.csv")]) == 0
        assert cli_main(["evaluate", "--forecasts", str(out / "test.csv"),
                         "--out", str(out / "metrics.csv")]) == 0

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    pipeline(run_a)
    pipeline(run_b)
    files = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    ok = files == sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    compared = 0
    for rel in files:
        if rel.name == "log.csv":
            # the per-epoch wall_seconds column is wall-clock time and can
            # never repeat bytewise; compare everything else in the log
            strip = lambda p: [",".join(line.split(",")[:-1])
                               for line in (p / rel).read_text().splitlines()]
            ok &= strip(run_a) == strip(run_b)
        else:
            ok &= (run_a / rel).read_bytes() == (run_b / rel).read_bytes()
        compared += 1
    _report(11, "end-to-end pipeline bytewise determinism",
            ok and compared >= 8,
            f"{compared} files compared (log.csv minus wall_seconds)")
