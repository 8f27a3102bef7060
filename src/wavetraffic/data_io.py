"""CSV ingestion and output plus the seeded synthetic traffic generator.

Every numeric CSV is written by :func:`save_table`: 12 significant digits
per cell, so save/load round trips are value-exact at that precision.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, ParameterError

__all__ = [
    "load_csv",
    "save_csv",
    "save_table",
    "synthetic",
    "synthetic_coupling",
    "save_forecasts",
    "load_forecasts",
    "fmt",
]

DAILY_PERIOD = 288  # 5-minute steps per day
_BLOCK_ROWS = 4096  # rows formatted per write, bounding the text held at once


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def load_csv(path) -> np.ndarray:
    """Read a sensors-as-columns CSV into a (N, 1, M) tensor.

    The header row holds sensor identifiers; every cell must parse as a
    finite number, and all rows must have the same width.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        width = len(header)
        for r, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {width}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                for c, cell in enumerate(row, start=1):
                    try:
                        float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}"
                        ) from None
                raise
            if not all(np.isfinite(values)):
                c = next(i for i, v in enumerate(values, start=1) if not np.isfinite(v))
                raise DataError(f"{path}: non-finite value at row {r}, column {c}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no observations")
    return np.asarray(rows, dtype=np.float64).T[:, None, :]  # (N, 1, M)


def save_table(path, table, header=None):
    """Write a 2-D numeric array as CSV rows ended by ``\\r\\n``.

    Every cell is written as ``%.12g``, the text :func:`fmt` gives, so
    integer-valued cells below 1e12 print as plain integers. The optional
    header row goes through ``csv.writer``, which quotes names as needed.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise DimensionError(f"save_table: need a 2-D table, got shape {table.shape}")
    row = ",".join(["%.12g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS].tolist()
            fh.write("".join([row % tuple(cells) for cells in block]))


def save_csv(path, x, header=None):
    """Write a (N, M) or (N, 1, M) tensor as a sensors-as-columns CSV."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, 0, :]
    header = header or [f"sensor_{i}" for i in range(x.shape[0])]
    save_table(path, x.T, header=header)


def _synthetic_draws(rng, n_nodes: int):
    """Per-node phase, amplitude and offset, then a sparse symmetric
    coupling graph linking each node to one random partner."""
    phase = rng.uniform(0, DAILY_PERIOD, size=n_nodes)
    amp = rng.uniform(1.5, 3.0, size=n_nodes)
    offset = rng.uniform(4.0, 7.0, size=n_nodes)
    coupling = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        j = int(rng.integers(n_nodes - 1))
        j = j if j < i else j + 1
        coupling[i, j] = coupling[j, i] = 1.0
    return phase, amp, offset, coupling


def synthetic(n_nodes: int, n_steps: int, seed: int = 0) -> np.ndarray:
    """Seeded synthetic traffic: daily sinusoids, sparse node coupling,
    Gaussian noise, softplus floor for positivity. Shape (N, 1, M).
    """
    if n_nodes < 2:
        raise ParameterError(f"synthetic: need at least 2 nodes, got {n_nodes}")
    if n_steps < 2 * DAILY_PERIOD:
        raise ParameterError(
            f"synthetic: need at least {2 * DAILY_PERIOD} steps (two days), got {n_steps}"
        )
    rng = np.random.default_rng(seed)
    phase, amp, offset, coupling = _synthetic_draws(rng, n_nodes)
    t = np.arange(n_steps)
    base = (
        offset[:, None]
        + amp[:, None] * np.sin(2 * np.pi * (t[None, :] + phase[:, None]) / DAILY_PERIOD)
    )
    mixed = base + 0.6 * (coupling @ base) / np.maximum(coupling.sum(1, keepdims=True), 1)
    noisy = mixed + rng.normal(scale=0.15, size=mixed.shape)
    positive = np.logaddexp(0.0, 4.0 * noisy) / 4.0  # softplus floor
    return positive[:, None, :]


def synthetic_coupling(n_nodes: int, seed: int = 0) -> np.ndarray:
    """The coupling graph :func:`synthetic` would draw for this seed."""
    return _synthetic_draws(np.random.default_rng(seed), n_nodes)[3]


_FORECAST_COLUMNS = ["t", "node", "step", "y", "pred", "lo", "hi", "covered"]


def save_forecasts(path, y, pred, intervals=None):
    """Write long-format forecasts: t, node, step, y, pred[, lo, hi, covered].

    ``y`` and ``pred`` are (T, N, steps); ``intervals`` is an optional
    (lo, hi) pair of the same shape, written with a 0/1 ``covered`` column
    that is 1 where lo <= y <= hi. Steps are one-based.
    """
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if y.shape != pred.shape or y.ndim != 3:
        raise DataError(f"save_forecasts: misaligned shapes {y.shape} vs {pred.shape}")
    header = _FORECAST_COLUMNS[:5]
    columns = [y, pred]
    if intervals is not None:
        lo, hi = (np.asarray(a, dtype=np.float64) for a in intervals)
        if lo.shape != y.shape or hi.shape != y.shape:
            raise DataError("save_forecasts: interval shapes misaligned")
        header = _FORECAST_COLUMNS
        columns += [lo, hi, (lo <= y) & (y <= hi)]
    keys = np.indices(y.shape).reshape(3, -1).T + [0, 0, 1]
    save_table(path, np.column_stack([keys] + [c.ravel() for c in columns]), header=header)


def load_forecasts(path):
    """Read :func:`save_forecasts` output back into dense arrays.

    Returns (y, pred, intervals_or_None) with shapes (T, N, steps). The
    header must be the first 5, 7 or 8 of ``t,node,step,y,pred,lo,hi,covered``
    (7 is the band layout before ``covered`` was added). Every
    (t, node, step) cell of that grid must appear in exactly one row. A
    ``covered`` column is read and ignored.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as fh:
        line = fh.readline().strip()
        names = line.split(",")
        if len(names) not in (5, 7, 8) or names != _FORECAST_COLUMNS[: len(names)]:
            raise DataError(f"{path}: header {line!r} is not "
                            f"{','.join(_FORECAST_COLUMNS)} or its first 5 or 7 columns")
        has_intervals = len(names) > 5
        start = fh.tell()
        if not fh.readline():
            return (np.zeros((0, 0, 0)),) * 2 + (None,)
        fh.seek(start)
        dtype = [(n, np.int64 if i < 3 else np.float64) for i, n in enumerate(names)]
        try:
            table = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    keys = [table[n] for n in names[:3]]
    axes, index = zip(*(np.unique(k, return_inverse=True) for k in keys))
    shape = tuple(len(a) for a in axes)
    flat = np.ravel_multi_index(index, shape)
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        row = int(repeats.min())
        raise DataError(f"{path}: row {row + 1} after the header repeats (t, node, step) "
                        f"{tuple(int(k[row]) for k in keys)}")
    if len(ranked) < np.prod(shape):
        gaps = np.flatnonzero(ranked != np.arange(len(ranked)))
        cell = np.unravel_index(gaps[0] if gaps.size else len(ranked), shape)
        raise DataError(f"{path}: no row for (t, node, step) "
                        f"{tuple(int(a[i]) for a, i in zip(axes, cell))}")

    def column(name):
        return table[name][order].reshape(shape)

    intervals = (column("lo"), column("hi")) if has_intervals else None
    return column("y"), column("pred"), intervals
