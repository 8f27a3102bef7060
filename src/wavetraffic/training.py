"""Normalization, chronological splits, sliding windows, and the
training loop (Huber loss + Adam, seeded shuffling, best-validation
checkpointing).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DimensionError, ParameterError, TrainingError
from .model import Model, ModelConfig
from .optim import AdamState, adam_step

__all__ = [
    "NormalizationStats",
    "SplitSpec",
    "TrainConfig",
    "compute_stats",
    "normalize",
    "split",
    "make_windows",
    "predict_windows",
    "fit",
    "FitResult",
]


@dataclass
class NormalizationStats:
    """Per-node mean and population standard deviation from the training split."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class SplitSpec:
    train: float = 0.6
    val: float = 0.2
    test: float = 0.2

    def __post_init__(self):
        fracs = (self.train, self.val, self.test)
        if any(f <= 0 for f in fracs):
            raise ParameterError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ParameterError(f"split fractions must sum to 1, got {sum(fracs)}")


@dataclass
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        # each range test is False for nan, and lr's upper bound rejects inf
        ok = {"epochs": self.epochs >= 1, "lr": 0 <= self.lr < math.inf,
              "batch_size": self.batch_size >= 1}
        bad = [f"{name}={getattr(self, name)!r}" for name, good in ok.items() if not good]
        if bad:
            raise ParameterError(f"invalid training configuration: {', '.join(bad)}")


def compute_stats(train_x) -> NormalizationStats:
    """Stats over the time axis of a (N, ..., M_train) array; never pass
    validation or test data here."""
    x = np.asarray(train_x, dtype=np.float64)
    axes = tuple(range(1, x.ndim))
    mean = x.mean(axis=axes)
    std = x.std(axis=axes)  # population convention
    low = std < 1e-8
    if np.any(low):
        warnings.warn(
            f"{int(low.sum())} node(s) have near-zero variance; std clamped to 1",
            stacklevel=2,
        )
        std = np.where(low, 1.0, std)
    return NormalizationStats(mean=mean, std=std)


def normalize(x, stats: NormalizationStats) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shape = (-1,) + (1,) * (x.ndim - 1)  # per node, the leading axis
    return (x - stats.mean.reshape(shape)) / stats.std.reshape(shape)


def split(x, spec: SplitSpec = SplitSpec()):
    """Chronological (train, val, test) partition along the last axis.

    Train/val take their floor allocations; the remainder goes to test.
    """
    x = np.asarray(x)
    m = x.shape[-1]
    n_train = int(np.floor(spec.train * m))
    n_val = int(np.floor(spec.val * m))
    n_test = m - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DimensionError(f"series of length {m} too short for split {spec}")
    return (
        x[..., :n_train],
        x[..., n_train : n_train + n_val],
        x[..., n_train + n_val :],
    )


def make_windows(x):
    """Sliding (input, target) pairs from a (N, c, M_seg) segment.

    Inputs are (W, N, c, L) with L = ``ModelConfig.window``; targets
    (W, N, ``ModelConfig.horizon``) taken from channel 0 starting right at
    each input's end.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c, m = x.shape
    length, horizon = ModelConfig.window, ModelConfig.horizon
    total = length + horizon
    if m < total:
        raise DimensionError(
            f"segment length {m} shorter than input+horizon = {total}"
        )
    view = np.lib.stride_tricks.sliding_window_view
    inputs = view(x[..., : m - horizon], length, axis=-1)  # (N, c, W, L)
    targets = view(x[:, 0, length:], horizon, axis=-1)  # (N, W, horizon)
    return (np.ascontiguousarray(inputs.transpose(2, 0, 1, 3)),
            np.ascontiguousarray(targets.transpose(1, 0, 2)))


@dataclass
class FitResult:
    best_state: dict[str, np.ndarray]
    final_state: dict[str, np.ndarray]
    log: list[dict] = field(default_factory=list)


def predict_windows(model: Model, windows, stats: NormalizationStats):
    """(targets, predictions) in data units for normalized ``(inputs, targets)``
    windows from :func:`make_windows`; the model runs 64 windows at a time."""
    inputs, targets = windows
    preds = np.concatenate(
        [model.predict(inputs[lo : lo + 64]) for lo in range(0, len(inputs), 64)]
    )
    std, mean = stats.std[None, :, None], stats.mean[None, :, None]
    return targets * std + mean, preds * std + mean


def fit(model: Model, train_windows, val_windows, cfg: TrainConfig = TrainConfig()) -> FitResult:
    """Adam over seeded shuffled batches; retains the best-validation state.

    ``train_windows`` / ``val_windows`` are (inputs, targets) pairs from
    :func:`make_windows` built on normalized data.
    """
    tr_x, tr_y = train_windows
    va_x, va_y = val_windows
    state = AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    log: list[dict] = []
    best_val = np.inf
    best_state = model.graph.state()
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(tr_x))
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            model.graph.zero_grad()
            pred = model.forward(tr_x[idx])
            loss = T.huber_loss(pred, tr_y[idx])
            if not np.isfinite(loss.item()):
                raise TrainingError(
                    f"non-finite loss in epoch {epoch}, batch {n_batches}"
                )
            grads = model.graph.backward(loss)
            updated = adam_step(model.graph.state(), grads, state)
            model.graph.load_state(updated)
            epoch_loss += loss.item()
            n_batches += 1
            # the step's graph hangs off these two; free it before the next forward
            del pred, loss
        val_loss, val_abs, val_count = 0.0, 0.0, 0
        for lo in range(0, len(va_x), cfg.batch_size):
            pred = model.predict(va_x[lo : lo + cfg.batch_size])
            chunk = va_y[lo : lo + cfg.batch_size]
            val_loss += T.huber_value(pred - chunk).sum()
            val_abs += np.abs(pred - chunk).sum()
            val_count += chunk.size
        val_loss /= max(val_count, 1)
        val_mae = val_abs / max(val_count, 1)
        log.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(n_batches, 1),
            "val_loss": val_loss,
            "val_mae": val_mae,
            "wall_seconds": time.perf_counter() - t0,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_state = model.graph.state()
    return FitResult(best_state=best_state, final_state=model.graph.state(), log=log)
