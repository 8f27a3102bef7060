"""Weighted split-conformal prediction intervals over a point forecaster.

Scores are absolute errors scaled by a rolling uncertainty estimate;
the interval half-width at each step is the windowed order-statistic
quantile of past scores times the current uncertainty scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, ParameterError

__all__ = [
    "weighted_quantile",
    "interval",
    "empirical_coverage",
    "ConformalCalibrator",
    "calibrate_stream",
]

_XI_FLOOR = 1e-8


def weighted_quantile(scores, beta: float):
    """Windowed conformal quantile along the last axis of ``scores``: the
    ceil((1-beta)(n+1))-th order statistic, +inf when that rank exceeds n.

    A 1-D window gives a float; a ``(streams, n)`` window gives one value
    per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise DimensionError("weighted_quantile: empty score window")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"weighted_quantile: beta must be in (0, 1), got {beta}")
    n = scores.shape[-1]
    rank = math.ceil((1.0 - beta) * (n + 1))
    if rank > n:
        q = np.full(scores.shape[:-1], math.inf)
    else:
        q = np.partition(scores, rank - 1, axis=-1)[..., rank - 1]
    return float(q) if scores.ndim == 1 else q


def interval(pred, xi, cq):
    """Symmetric band pred +/- cq * xi."""
    pred = np.asarray(pred, dtype=np.float64)
    xi = np.maximum(np.asarray(xi, dtype=np.float64), _XI_FLOOR)
    cq = np.asarray(cq, dtype=np.float64)
    if np.any(cq < 0):
        raise ParameterError("interval: quantile must be nonnegative")
    half = cq * xi
    return pred - half, pred + half


def empirical_coverage(lo, hi, y) -> float:
    lo, hi, y = (np.asarray(a, dtype=np.float64) for a in (lo, hi, y))
    if not (lo.shape == hi.shape == y.shape):
        raise DimensionError(
            f"empirical_coverage: misaligned shapes {lo.shape}, {hi.shape}, {y.shape}"
        )
    return float(np.mean((y >= lo) & (y <= hi)))


@dataclass
class ConformalCalibrator:
    """Sequential score window for one forecast stream.

    Seed it with calibration-split residuals, then alternate
    ``bounds`` / ``update`` in time order over the test stream.
    """

    window: int = 288
    beta: float = 0.1
    scores: list = field(default_factory=list)
    abs_residuals: list = field(default_factory=list)

    def __post_init__(self):
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must be in (0, 1), got {self.beta}")

    def seed(self, y_cal, pred_cal):
        y_cal = np.asarray(y_cal, dtype=np.float64)
        pred_cal = np.asarray(pred_cal, dtype=np.float64)
        if y_cal.shape != pred_cal.shape:
            raise DimensionError("seed: calibration arrays misaligned")
        for y, p in zip(y_cal, pred_cal):
            self.update(y, p)

    def _xi(self) -> float:
        recent = self.abs_residuals[-self.window :]
        if not recent:
            raise ParameterError("calibrator has no residuals yet; seed it first")
        return max(float(np.mean(recent)), _XI_FLOOR)

    def bounds(self, pred: float):
        """(lo, hi) for the next forecast given the current window."""
        xi = self._xi()
        cq = weighted_quantile(self.scores[-self.window :], self.beta)
        lo, hi = interval(pred, xi, cq if math.isfinite(cq) else 0.0)
        if math.isinf(cq):
            return -math.inf, math.inf
        return float(lo), float(hi)

    def update(self, y: float, pred: float):
        resid = abs(float(y) - float(pred))
        # first observation has no past scale; its score carries no information
        self.scores.append(resid / self._xi() if self.abs_residuals else 0.0)
        self.abs_residuals.append(resid)


def calibrate_stream(y_cal, pred_cal, y_test, pred_test,
                     window: int = 288, beta: float = 0.1):
    """Band one stream, or many that share a time index; returns (lo, hi, coverage).

    Arrays are ``(T,)`` for one stream or ``(T, *streams)`` for many, the
    calibration and test arrays agreeing on ``streams``. ``lo`` and ``hi``
    have the shape of ``y_test``; coverage is over all of it. Each stream
    gets the bands :class:`ConformalCalibrator` gives it, bit for bit.

    Calibration residuals seed the score window; each test origin *t*
    first emits an interval, then folds in its realized residual before
    origin *t+1* is bounded. A horizon-*s* target of origin *t* is
    observed only *s-1* origins later, so for *s >= 2* this update rule
    lets each interval see *s-1* future observations (ROADMAP item 1
    holds the horizon-lag fix).
    """
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    y_cal, pred_cal, y_test, pred_test = (
        np.asarray(a, dtype=np.float64) for a in (y_cal, pred_cal, y_test, pred_test))
    if y_cal.shape != pred_cal.shape:
        raise DimensionError("calibrate_stream: calibration arrays misaligned")
    if y_test.shape != pred_test.shape:
        raise DimensionError("calibrate_stream: test arrays misaligned")
    if y_cal.shape[1:] != y_test.shape[1:]:
        raise DimensionError(
            f"calibrate_stream: calibration streams {y_cal.shape[1:]} != test {y_test.shape[1:]}")
    if len(y_cal) == 0:
        raise ParameterError("calibrate_stream: empty calibration split; nothing seeds the window")
    for name, a in (("y_cal", y_cal), ("pred_cal", pred_cal),
                    ("y_test", y_test), ("pred_test", pred_test)):
        if not np.all(np.isfinite(a)):
            raise DataError(f"calibrate_stream: non-finite value in {name}")
    n_cal, n_test = len(y_cal), len(y_test)
    # streams-major (streams, time): a row mean then sums in the order the
    # per-stream list mean does, which keeps the bands bit-identical
    streams_major = lambda a: np.ascontiguousarray(a.reshape(len(a), -1).T)
    pred = streams_major(np.concatenate([pred_cal, pred_test]))
    resid = np.abs(streams_major(np.concatenate([y_cal, y_test])) - pred)
    xi = np.ones_like(resid)
    for k in range(1, resid.shape[1]):
        xi[:, k] = resid[:, max(0, k - window) : k].mean(axis=1)
    xi = np.maximum(xi, _XI_FLOOR)
    scores = np.zeros_like(resid)  # the first residual has no past scale
    scores[:, 1:] = resid[:, 1:] / xi[:, 1:]
    lo = np.empty((len(resid), n_test))
    hi = np.empty_like(lo)
    for t, k in enumerate(range(n_cal, n_cal + n_test)):
        cq = weighted_quantile(scores[:, max(0, k - window) : k], beta)
        lo[:, t], hi[:, t] = interval(pred[:, k], xi[:, k], cq)
    lo = lo.T.reshape(y_test.shape)
    hi = hi.T.reshape(y_test.shape)
    return lo, hi, empirical_coverage(lo, hi, y_test)
