"""Forecast accuracy metrics, stepwise error curves, improvement ratios,
and the multiple-comparisons-with-the-best (MCB) rank test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "mae",
    "mape",
    "rmse",
    "stepwise_errors",
    "improvement",
    "ErrorTable",
    "McbResult",
    "mcb",
    "tukey_critical_value",
]


def _aligned(y, y_hat):
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.shape != y_hat.shape:
        raise DimensionError(f"metric inputs misaligned: {y.shape} vs {y_hat.shape}")
    return y, y_hat


def mae(y, y_hat) -> float:
    y, y_hat = _aligned(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    y, y_hat = _aligned(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def mape(y, y_hat) -> float:
    """Mean absolute percentage error, in percent.

    Entries with |y| < 1e-8 are excluded (count reported via warning);
    an all-near-zero truth vector is an error.
    """
    y, y_hat = _aligned(y, y_hat)
    keep = np.abs(y) >= 1e-8
    dropped = int((~keep).sum())
    if keep.sum() == 0:
        raise ParameterError("mape: every ground-truth entry is (near) zero")
    if dropped:
        warnings.warn(f"mape: excluded {dropped} near-zero ground-truth entries",
                      stacklevel=2)
    return float(np.mean(np.abs((y[keep] - y_hat[keep]) / y[keep])) * 100.0)


_METRICS = {"mae": mae, "mape": mape, "rmse": rmse}


def stepwise_errors(y, y_hat, metric: str = "mae") -> np.ndarray:
    """One ``mae``, ``mape`` or ``rmse`` value per horizon step (last axis)
    of aligned arrays."""
    if metric not in _METRICS:
        raise ParameterError(f"stepwise_errors: unknown metric {metric!r}; "
                             f"expected one of {', '.join(_METRICS)}")
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DimensionError(f"stepwise_errors: shapes {y.shape} vs {y_hat.shape}")
    fn = _METRICS[metric]
    return np.array([fn(y[..., s], y_hat[..., s]) for s in range(y.shape[-1])])


def improvement(base: float, new: float) -> float:
    """(base - new) / base * 100, the signed percentage gain over a baseline."""
    if base <= 0:
        raise ParameterError(f"improvement: baseline must be positive, got {base}")
    return (base - new) / base * 100.0


# Upper critical values of the studentized range at df = inf, divided by
# sqrt(2); rows are model counts 2..20.
TUKEY_TABLE = {
    0.01: [2.575829, 2.913494, 3.113250, 3.254686, 3.363740, 3.452213, 3.526471,
           3.590339, 3.646292, 3.696021, 3.740733, 3.781318, 3.818451, 3.852654,
           3.884343, 3.913850, 3.941446, 3.967357, 3.991770],
    0.05: [1.959964, 2.343701, 2.569032, 2.727774, 2.849705, 2.948320, 3.030878,
           3.101730, 3.163684, 3.218654, 3.268004, 3.312739, 3.353618, 3.391230,
           3.426041, 3.458425, 3.488685, 3.517073, 3.543799],
    0.10: [1.644854, 2.052293, 2.291341, 2.459516, 2.588521, 2.692732, 2.779884,
           2.854606, 2.919889, 2.977768, 3.029694, 3.076733, 3.119693, 3.159199,
           3.195743, 3.229723, 3.261461, 3.291224, 3.319233],
}


def tukey_critical_value(n_models: int, gamma: float = 0.05) -> float:
    key = round(gamma, 10)
    if key not in TUKEY_TABLE or not 2 <= n_models <= 20:
        raise ParameterError(
            f"no critical value for gamma={gamma} with {n_models} models; the table "
            f"covers gamma in {{{', '.join(map(str, TUKEY_TABLE))}}} and 2-20 models"
        )
    return TUKEY_TABLE[key][n_models - 2]


@dataclass
class ErrorTable:
    """models x datasets matrix of one error metric (lower is better)."""

    values: np.ndarray
    models: list[str]
    datasets: list[str]

    def __post_init__(self):
        v = self.values = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.models), len(self.datasets)):
            raise DimensionError(
                f"error table shape {v.shape} does not match "
                f"{len(self.models)} models x {len(self.datasets)} datasets"
            )
        repeated = [m for i, m in enumerate(self.models) if m in self.models[:i]]
        if repeated:
            raise ParameterError(f"error table repeats model {repeated[0]!r}")
        bad = np.argwhere(~np.isfinite(v) | (v < 0))
        if len(bad):
            i, j = bad[0]
            raise ParameterError(f"error table entry {self.models[i]!r}, {self.datasets[j]!r} "
                                 f"is {v[i, j]}; entries must be finite and nonnegative")


@dataclass
class McbResult:
    models: list[str]
    mean_ranks: np.ndarray
    critical_distance: float
    intervals: np.ndarray  # (models, 2): mean rank -/+ CD/2
    best_index: int
    significantly_worse: np.ndarray  # bool per model


def _rank_column(col: np.ndarray) -> np.ndarray:
    """Ranks with 1 = lowest error; a tie group gets its max rank, the count of
    entries at or below its value."""
    order = np.sort(col)
    return np.searchsorted(order, col, side="right").astype(np.float64)


def mcb(table: ErrorTable, gamma: float = 0.05) -> McbResult:
    """Rank models per dataset, a tie at its maximum rank; compare mean ranks to the best.

    critical distance = xi * sqrt(M (M+1) / (6 D)) with xi from
    :func:`tukey_critical_value`; a model is flagged
    significantly worse when its interval lies entirely above the best
    model's interval.
    """
    n_models, n_datasets = table.values.shape
    if n_models < 2 or n_datasets < 1:
        raise ParameterError("mcb needs at least 2 models and 1 dataset")
    xi = tukey_critical_value(n_models, gamma)
    ranks = np.column_stack(
        [_rank_column(table.values[:, d]) for d in range(n_datasets)]
    )
    mean_ranks = ranks.mean(axis=1)
    cd = xi * np.sqrt(n_models * (n_models + 1) / (6.0 * n_datasets))
    intervals = np.column_stack([mean_ranks - cd / 2.0, mean_ranks + cd / 2.0])
    best = int(np.argmin(mean_ranks))
    worse = intervals[:, 0] > intervals[best, 1]
    return McbResult(
        models=list(table.models),
        mean_ranks=mean_ranks,
        critical_distance=float(cd),
        intervals=intervals,
        best_index=best,
        significantly_worse=worse,
    )
