"""CSV ingestion and output plus the seeded synthetic traffic generator.

Forecast files are written by :func:`save_forecasts` from their grid, every
other numeric CSV by :func:`save_table`: 12 significant digits per cell, so
save/load round trips are value-exact at that precision. Both writers format
up to ``_BLOCK_ROWS`` rows with one ``%`` call, and :func:`load_csv` parses
the body with one ``np.loadtxt`` call, falling back to a row scan only to
name a fault.
"""

from __future__ import annotations

import contextlib
import csv
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, ParameterError

__all__ = [
    "load_csv",
    "save_csv",
    "save_table",
    "synthetic",
    "save_forecasts",
    "load_forecasts",
    "open_text",
    "fmt",
]

DAILY_PERIOD = 288  # 5-minute steps per day
_BLOCK_ROWS = 4096  # rows formatted per write, bounding the text held at once


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


@contextlib.contextmanager
def open_text(path):
    """Read ``path`` as UTF-8 text for ``csv``; a missing file or bytes that
    are not UTF-8 raise ``DataError``."""
    if not Path(path).exists():
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def load_csv(path) -> np.ndarray:
    """Read a sensors-as-columns CSV into a (N, 1, M) tensor.

    The header row holds sensor identifiers; every cell must parse as a
    finite number, and all rows must have the same width. The header goes
    through ``csv.reader``, so quoted names work; the body is parsed in one
    ``np.loadtxt`` call. Only when that parse fails or a check trips (width,
    finiteness, a blank line, which ``np.loadtxt`` would skip, or a lone
    ``\\r``) is the file read again row by row, and that scan names the
    faulty row and column in its :class:`DataError`.
    """
    with open_text(path) as fh:
        header = next(csv.reader(fh), None)
        body = fh.read()
    table = None if header is None else _parse_body(body, len(header))
    if table is None:
        table = _scan_rows(path)
    return table.T[:, None, :]  # (N, 1, M)


def _parse_body(body: str, width: int):
    """The CSV body as a (rows, width) array, or None when only the row
    scan can tell whether the file is valid."""
    if (not body or body.count("\r") != body.count("\r\n")
            or body.startswith(("\n", "\r\n")) or "\n\n" in body or "\n\r\n" in body):
        return None
    try:
        table = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _scan_rows(path) -> np.ndarray:
    """Parse the CSV one row at a time; raises a DataError at the first
    empty file, missing body, ragged row, non-numeric or non-finite cell."""
    rows = []
    with open_text(path) as fh:
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
    return np.asarray(rows, dtype=np.float64)


def save_table(path, table, header=None):
    """Write a 2-D numeric table as CSV rows ended by ``\\r\\n``.

    Cells are written as ``%.12g``, the text :func:`fmt` gives, so
    integer-valued cells below 1e12 print as plain integers. The optional
    header row goes through ``csv.writer``, which quotes names as needed,
    and must name every column. Rows are formatted ``_BLOCK_ROWS`` at a
    time, one ``%`` call per block; forecast files use :func:`save_forecasts`.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise DimensionError(f"save_table: need a 2-D table, got shape {table.shape}")
    if header is not None and len(header) != table.shape[1]:
        raise DimensionError(
            f"save_table: header names {len(header)} columns, table has {table.shape[1]}")
    row = ",".join(["%.12g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def save_csv(path, x):
    """Write a (N, M) or (N, 1, M) tensor as a CSV with columns ``sensor_0`` ..."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, 0, :]
    save_table(path, x.T, header=[f"sensor_{i}" for i in range(x.shape[0])])


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


_FORECAST_COLUMNS = ["t", "node", "step", "y", "pred", "lo", "hi", "covered"]


def _forecast_keys(rows: int, nodes: int, steps: int):
    """``t, node, step`` of a forecast grid's first ``rows`` rows, as they are
    written: ``t`` and ``node`` from 0, ``step`` from 1, step fastest."""
    i = np.arange(rows)
    return i // (nodes * steps), i // steps % nodes, i % steps + 1


def save_forecasts(path, y, pred, intervals=None):
    """Write long-format forecasts: t, node, step, y, pred[, lo, hi, covered].

    ``y`` and ``pred`` are (T, N, steps); ``intervals`` is an optional
    (lo, hi) pair of the same shape, written with a 0/1 ``covered`` column
    that is 1 where lo <= y <= hi. Steps are one-based. Each block of whole
    origins is one ``%`` call on a template holding ``t,node,step,`` as text;
    ``y`` is formatted once per bit pattern (``-0.0`` stays ``-0``), and the
    bytes equal :func:`save_table`'s ``%.12g`` of every cell.
    """
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if y.shape != pred.shape or y.ndim != 3:
        raise DataError(f"save_forecasts: misaligned shapes {y.shape} vs {pred.shape}")
    bits, inverse = np.unique(y.ravel().view(np.int64), return_inverse=True)
    y_text = np.array(["%.12g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    columns = [("%s", y_text[inverse]), ("%.12g", pred.ravel())]
    if intervals is not None:
        lo, hi = (np.asarray(a, dtype=np.float64) for a in intervals)
        if lo.shape != y.shape or hi.shape != y.shape:
            raise DataError("save_forecasts: interval shapes misaligned")
        columns += [("%.12g", lo.ravel()), ("%.12g", hi.ravel()),
                    ("%s", np.where((lo <= y) & (y <= hi), "1", "0").ravel())]
    rest = ",".join(spec for spec, _ in columns) + "\r\n"
    pieces = [f",{n},{s},{rest}" for n in range(y.shape[1]) for s in range(1, y.shape[2] + 1)]
    grid = len(pieces)
    per = max(1, _BLOCK_ROWS // max(1, grid))  # whole origins per block
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_FORECAST_COLUMNS[:3 + len(columns)]) + "\r\n")
        for t0 in range(0, len(y) if grid else 0, per):
            origins = [str(t) for t in range(t0, min(t0 + per, len(y)))]
            rows = slice(t0 * grid, (t0 + len(origins)) * grid)
            flat = [None] * (len(origins) * grid * len(columns))
            for j, (_, values) in enumerate(columns):  # interleave columns into row order
                flat[j::len(columns)] = values[rows].tolist()
            fh.write("".join(t + t.join(pieces) for t in origins) % tuple(flat))


def load_forecasts(path):
    """Read :func:`save_forecasts` output back into dense arrays.

    Returns (y, pred, intervals_or_None) with shapes (T, N, steps). The
    header must be ``t,node,step,y,pred,lo,hi,covered`` or its first 5
    columns; ``covered`` is ignored. A file without rows, the first row off
    the writer's grid (:func:`_forecast_keys`), a non-finite ``y`` or
    ``pred`` and a NaN ``lo`` or ``hi`` raise ``DataError``.
    """
    with open_text(path) as fh:
        line = fh.readline().strip()
        names = line.split(",")
        if names not in (_FORECAST_COLUMNS[:5], _FORECAST_COLUMNS):
            raise DataError(f"{path}: header {line!r} is not "
                            f"{','.join(_FORECAST_COLUMNS)} or its first 5 columns")
        start = fh.tell()
        # np.loadtxt skips empty lines and warns when nothing else is left
        if all(not row.rstrip("\r\n") for row in iter(fh.readline, "")):
            raise DataError(f"{path}: no forecast rows")
        fh.seek(start)
        dtype = [(n, np.int64 if i < 3 else np.float64) for i, n in enumerate(names)]
        try:
            table = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    keys = np.stack([table[n] for n in names[:3]])
    rows = len(table)
    nodes, steps = np.clip(keys[1:].max(axis=1) + (1, 0), 1, rows).tolist()
    grid = np.stack(_forecast_keys(rows + 1, nodes, steps))
    off = np.flatnonzero((keys != grid[:, :rows]).any(axis=0))
    if off.size or rows % (nodes * steps):
        r = int(off[0]) if off.size else rows
        found = tuple(keys[:, r].tolist()) if r < rows else "the end of the file"
        raise DataError(f"{path}: row {r + 1} after the header should be (t, node, step) "
                        f"{tuple(grid[:, r].tolist())}, found {found}")
    faults = np.stack([~np.isfinite(table[n]) for n in names[3:5]]
                      + [np.isnan(table[n]) for n in names[5:7]])  # a band may be infinite
    if faults.any():
        r, c = np.argwhere(faults.T)[0]
        raise DataError(f"{path}: row {r + 1} after the header has "
                        f"{names[3 + c]} = {float(table[names[3 + c]][r])}")
    y, pred, *band = (table[n].reshape(-1, nodes, steps).copy() for n in names[3:7])
    return y, pred, tuple(band) or None
