import csv
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavetraffic import data_io as dio
from wavetraffic.errors import DataError, DimensionError, ParameterError


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path):
        x = np.abs(np.random.default_rng(0).normal(50.0, 10.0, size=(4, 1, 30)))
        path = tmp_path / "traffic.csv"
        dio.save_csv(path, x)
        loaded = dio.load_csv(path)
        np.testing.assert_allclose(loaded, x, rtol=1e-11)
        assert loaded.shape == (4, 1, 30)

    @pytest.mark.parametrize("seed", range(8))
    def test_twelve_digit_round_trip(self, seed, tmp_path):
        x = np.random.default_rng(seed).normal(size=(3, 1, 8)) * 1e3
        path = tmp_path / "r.csv"
        dio.save_csv(path, x)
        loaded = dio.load_csv(path)
        np.testing.assert_allclose(loaded, x, rtol=1e-11, atol=1e-14)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            dio.load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            dio.load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="no observations"):
            dio.load_csv(path)

    def test_ragged_row_reports_position(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            dio.load_csv(path)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 3, column 2"):
            dio.load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1,2\nnan,4\n")
        with pytest.raises(DataError, match="row 3, column 1"):
            dio.load_csv(path)


class TestSynthetic:
    def test_shape_and_positivity(self):
        x = dio.synthetic(5, 600, seed=1)
        assert x.shape == (5, 1, 600)
        assert np.all(x > 0.0)

    def test_seed_reproducibility(self):
        a = dio.synthetic(4, 600, seed=7)
        b = dio.synthetic(4, 600, seed=7)
        c = dio.synthetic(4, 600, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_daily_periodicity_dominates(self):
        x = dio.synthetic(3, 4 * dio.DAILY_PERIOD, seed=2)[:, 0, :]
        for node in x:
            spectrum = np.abs(np.fft.rfft(node - node.mean()))
            assert spectrum.argmax() == 4  # one cycle per day over four days

    def test_coupling_is_replayed_exactly(self):
        # the coupling graph ``synthetic`` draws for this seed
        coupling = dio._synthetic_draws(np.random.default_rng(3), 6)[3]
        np.testing.assert_allclose(coupling, coupling.T)
        assert np.all(coupling.sum(axis=1) >= 1.0)
        np.testing.assert_array_equal(np.diag(coupling), np.zeros(6))
        # coupled nodes must correlate more strongly than uncoupled ones
        x = dio.synthetic(6, 1000, seed=3)[:, 0, :]
        corr = np.corrcoef(x)
        linked = corr[coupling > 0]
        unlinked = corr[(coupling == 0) & ~np.eye(6, dtype=bool)]
        assert linked.mean() > unlinked.mean()

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            dio.synthetic(1, 600)
        with pytest.raises(ParameterError):
            dio.synthetic(4, 100)


class TestForecastIo:
    def _arrays(self, seed=4):
        rng = np.random.default_rng(seed)
        y = rng.normal(50, 5, size=(6, 3, 12))
        pred = y + rng.normal(0, 1, size=y.shape)
        return y, pred

    def test_round_trip_without_intervals(self, tmp_path):
        y, pred = self._arrays()
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred)
        y2, pred2, intervals = dio.load_forecasts(path)
        assert intervals is None
        np.testing.assert_allclose(y2, y, rtol=1e-11)
        np.testing.assert_allclose(pred2, pred, rtol=1e-11)

    def test_round_trip_with_intervals(self, tmp_path):
        y, pred = self._arrays(5)
        lo, hi = pred - 2.0, pred + 2.0
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred, intervals=(lo, hi))
        _, _, intervals = dio.load_forecasts(path)
        assert intervals is not None
        np.testing.assert_allclose(intervals[0], lo, rtol=1e-11)
        np.testing.assert_allclose(intervals[1], hi, rtol=1e-11)

    def test_long_format_columns(self, tmp_path):
        y, pred = self._arrays(6)
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,node,step,y,pred"
        assert len(lines) == 1 + 6 * 3 * 12
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "1"]  # steps are one-based

    def test_shape_validation(self, tmp_path):
        y, pred = self._arrays(7)
        with pytest.raises(DataError):
            dio.save_forecasts(tmp_path / "x.csv", y, pred[:-1])
        with pytest.raises(DataError):
            dio.save_forecasts(tmp_path / "x.csv", y, pred,
                               intervals=(pred[:-1], pred[:-1]))

    def test_load_missing(self, tmp_path):
        with pytest.raises(DataError):
            dio.load_forecasts(tmp_path / "absent.csv")

    def _written_lines(self, tmp_path, seed):
        y, pred = self._arrays(seed)
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred)
        return path, path.read_text().splitlines()

    def test_swapped_rows_rejected(self, tmp_path):
        # rows are read in the order the writer emits them; no reader sorts
        path, lines = self._written_lines(tmp_path, 8)
        lines[30], lines[31] = lines[31], lines[30]  # t=0, node=2, steps 6 and 7
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"row 30 after the header should be "
                                            r"\(t, node, step\) \(0, 2, 6\), found \(0, 2, 7\)"):
            dio.load_forecasts(path)

    def test_missing_cell_rejected(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 9)
        dropped = lines[1 + 40]  # t=1, node=0, step=5
        assert dropped.startswith("1,0,5,")
        path.write_text("\n".join(lines[:41] + lines[42:]) + "\n")
        with pytest.raises(DataError, match=r"row 41 after the header should be "
                                            r"\(t, node, step\) \(1, 0, 5\), found \(1, 0, 6\)"):
            dio.load_forecasts(path)

    def test_missing_last_row_rejected(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 9)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match=r"row 216 after the header should be \(t, node, "
                                            r"step\) \(5, 2, 12\), found the end of the file"):
            dio.load_forecasts(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 10)
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(DataError, match=r"row 217 after the header should be "
                                            r"\(t, node, step\) \(6, 0, 1\), found \(0, 0, 3\)"):
            dio.load_forecasts(path)

    def test_repeated_row_rejected(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 10)
        path.write_text("\n".join(lines[:4] + lines[3:]) + "\n")
        with pytest.raises(DataError, match=r"row 4 after the header should be "
                                            r"\(t, node, step\) \(0, 0, 4\), found \(0, 0, 3\)"):
            dio.load_forecasts(path)

    @pytest.mark.parametrize("row", ["-1,0,1,1.5,1.5", "0,0,0,1.5,1.5", "0,7,1,1.5,1.5",
                                     "0,0,99999999999,1.5,1.5"])
    def test_off_grid_keys_rejected(self, tmp_path, row):
        # negative, zero-step and out-of-range keys are named, however large
        path, lines = self._written_lines(tmp_path, 10)
        lines[1] = row
        path.write_text("\n".join(lines) + "\n")
        found = re.escape(f"found ({row.rsplit(',', 2)[0].replace(',', ', ')})")
        with pytest.raises(DataError, match=rf"row 1 after the header should be "
                                            rf"\(t, node, step\) \(0, 0, 1\), {found}$"):
            dio.load_forecasts(path)

    @pytest.mark.parametrize("line, message", [
        ("0,0,5,1.5,1.5,extra", "columns"),
        ("0.5,0,5,1.5,1.5", "to int64"),
        ("0,0,5,x,1.5", "to float64"),
    ])
    def test_unparsable_row_rejected(self, tmp_path, line, message):
        path, lines = self._written_lines(tmp_path, 11)
        lines[5] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            dio.load_forecasts(path)

    @pytest.mark.parametrize("header", ["t,node,step,pred,y", "a,b,c,d,e,lo,x",
                                        "t,node,step,y,pred,lo,hi", ""])
    def test_unknown_header_rejected(self, tmp_path, header):
        # columns are read by position, so a reordered header would swap y and pred
        path = tmp_path / "fc.csv"
        path.write_text(f"{header}\n0,0,1,1.5,2.5{',0.5,3.5' if 'lo' in header else ''}\n")
        with pytest.raises(DataError, match=f"header '{header}' is not"):
            dio.load_forecasts(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("header", ["t,node,step,y,pred", "t,node,step,y,pred,lo,hi,covered"])
    def test_header_only_file_is_empty(self, tmp_path, header):
        path = tmp_path / "fc.csv"
        path.write_text(header + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no forecast rows$"):
            dio.load_forecasts(path)

    @pytest.mark.filterwarnings("error")
    def test_blank_body_rejected(self, tmp_path, capfd):
        # np.loadtxt skips blank lines, so these bodies hold no rows
        path = tmp_path / "fc.csv"
        for body in ["\n\n", "\r\n\r\n\r\n", "\n"]:
            path.write_bytes(("t,node,step,y,pred\n" + body).encode())
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no forecast rows$"):
                dio.load_forecasts(path)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("column, value", [
        ("y", "nan"), ("pred", "nan"), ("pred", "inf"), ("y", "-inf"),
        ("lo", "nan"), ("hi", "nan"),
    ])
    def test_non_finite_cell_rejected(self, tmp_path, column, value):
        y, pred = self._arrays(13)
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred, intervals=(pred - 1.0, pred + 1.0))
        lines = path.read_text().splitlines()
        for row in (40, 7):  # the first faulty row is named, whatever the order of faults
            cells = lines[row].split(",")
            cells[dio._FORECAST_COLUMNS.index(column)] = value
            lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"row 7 after the header has {column} = {value}$"):
            dio.load_forecasts(path)

    def test_first_faulty_column_of_a_row_is_named(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("t,node,step,y,pred,lo,hi,covered\n0,0,1,1.5,2.5,1,2,1\n"
                        "0,0,2,1.5,inf,nan,2,0\n")
        with pytest.raises(DataError, match=r"row 2 after the header has pred = inf$"):
            dio.load_forecasts(path)

    def test_infinite_bands_load(self, tmp_path):
        y, pred = self._arrays(14)
        lo, hi = np.full_like(y, -np.inf), np.full_like(y, np.inf)
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred, intervals=(lo, hi))
        _, _, (lo2, hi2) = dio.load_forecasts(path)
        assert np.array_equal(lo2, lo) and np.array_equal(hi2, hi)

    def test_loaded_arrays_are_contiguous_copies(self, tmp_path):
        y, pred = self._arrays(15)
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, pred, intervals=(pred - 1.0, pred + 1.0))
        for a in (*dio.load_forecasts(path)[:2], *dio.load_forecasts(path)[2]):
            assert a.shape == y.shape and a.flags.c_contiguous and a.flags.owndata

    @pytest.mark.parametrize("load", [dio.load_forecasts, dio.load_csv])
    @pytest.mark.parametrize("where", ["header", "body"])
    def test_non_utf8_file_rejected(self, tmp_path, load, where):
        path = tmp_path / "fc.csv"
        y = np.random.default_rng(16).normal(50, 5, size=(40, 3, 12))
        dio.save_forecasts(path, y, y + 1.0)
        data = path.read_bytes()
        assert len(data) > 4 * 8192  # a body fault lies past the header's read buffer
        data = (data[:3] + b"\xff" + data[3:]) if where == "header" else data + b"\xff\r\n"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            load(path)


class TestSaveTable:
    @pytest.mark.parametrize("header", [None, ["a,b", 'c"d', "plain"]])
    def test_bytes_match_csv_writer_reference(self, tmp_path, header):
        rng = np.random.default_rng(12)
        table = rng.normal(0, 100, size=(dio._BLOCK_ROWS + 37, 3))
        special = [-0.0, np.inf, -np.inf, np.nan, 1e-300, 1.5e17, 0.0, -3.0, 999999999999.0]
        table[:len(special), 0] = special
        table[:, 2] = np.arange(len(table)) - 5  # integer-valued cells
        dio.save_table(tmp_path / "table.csv", table, header=header)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            if header is not None:
                writer.writerow(header)
            for a, b, n in table:
                writer.writerow([dio.fmt(a), dio.fmt(b), str(int(n))])
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_needs_two_dimensions(self, tmp_path):
        with pytest.raises(DimensionError):
            dio.save_table(tmp_path / "x.csv", np.zeros(3))

    @pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]])
    def test_header_must_name_every_column(self, tmp_path, header):
        with pytest.raises(DimensionError, match=f"header names {len(header)} columns"):
            dio.save_table(tmp_path / "x.csv", np.zeros((2, 2)), header=header)
        assert not (tmp_path / "x.csv").exists()


def _per_row_reference(columns, header):
    """The CSV text of a per-row writer: every cell as ``%.12g`` of its float."""
    out = io.StringIO(newline="")
    if header is not None:
        csv.writer(out).writerow(header)
    for row in zip(*columns):
        out.write(",".join("%.12g" % float(v) for v in row) + "\r\n")
    return out.getvalue().encode()


_SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                   1.7976931348623157e308, 999999999999.0, 1e12, -1e12, 123456789012.5]


def _floats(draw, rng, shape):
    """Floats of every binade, subnormals included, with integer-valued cells
    up to and past 1e12, special values and drawn values mixed in."""
    out = np.ldexp(rng.uniform(1, 2, shape) * rng.choice([-1, 1], shape),
                   rng.integers(-1080, 1024, shape))
    whole = rng.random(shape) < 0.2
    out[whole] = np.round(rng.choice([1.0, -1.0], whole.sum())
                          * 10 ** rng.uniform(0, 13, whole.sum()))
    picks = rng.random(shape) < 0.2
    pool = _SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=8))
    out[picks] = rng.choice(np.array(pool), picks.sum())
    return out


@st.composite
def _tables(draw):
    """2-D float tables over 0, 1 and block-edge row counts, in C or Fortran
    order (``save_csv`` hands over a transpose)."""
    n = draw(st.sampled_from([0, 1, 2, 4095, 4096, 4097]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = _floats(draw, rng, (n, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        table = np.asfortranarray(table)
    header = draw(st.none() | st.lists(st.text(alphabet="ab,\" x", max_size=4),
                                       min_size=table.shape[1], max_size=table.shape[1]))
    return table, header


def _forecast_reference(y, pred, intervals):
    """The bytes of a per-row forecast writer: ``str(int)`` keys, ``%.12g``
    floats and ``0``/``1`` for ``covered``."""
    lines = [",".join(["t", "node", "step", "y", "pred"]
                      + ["lo", "hi", "covered"] * (intervals is not None))]
    for t, n, s in np.ndindex(y.shape):
        cells = [str(t), str(n), str(s + 1)]
        cells += ["%.12g" % float(a[t, n, s]) for a in (y, pred, *(intervals or ()))]
        if intervals is not None:
            lo, hi = intervals
            cells.append("1" if lo[t, n, s] <= y[t, n, s] <= hi[t, n, s] else "0")
        lines.append(",".join(cells))
    return "".join(line + "\r\n" for line in lines).encode()


@st.composite
def _forecasts(draw):
    """(y, pred, (lo, hi)) over T in {0, 1, 2} and origin counts whose rows
    cross the 4096-row block, on grids narrower and wider than a block.
    ``y`` repeats a few values, ``0.0`` and ``-0.0`` among them; the bands
    hold +-inf."""
    nodes, steps = draw(st.sampled_from([(1, 1), (3, 12), (7, 5), (350, 12)]))
    per = max(1, dio._BLOCK_ROWS // (nodes * steps))  # whole origins per block
    t = draw(st.sampled_from([0, 1, 2, per, per + 1, 2 * per + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (t, nodes, steps)
    pool = _floats(draw, rng, 12)
    y = rng.choice(np.concatenate([pool, [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]]), shape)
    y.flat[:2] = [0.0, -0.0][:y.size]
    pred = _floats(draw, rng, shape)
    center = np.where(np.isfinite(y), y, 0.0)  # bands are never NaN
    lo, hi = center - rng.uniform(-1, 2, shape), center + rng.uniform(-1, 2, shape)
    lo[rng.random(shape) < 0.1] = -np.inf
    hi[rng.random(shape) < 0.1] = np.inf
    return y, pred, (lo, hi)


class TestSaveTableBlocks:
    @settings(max_examples=60, deadline=None)
    @given(_tables())
    @example((np.column_stack([np.arange(4097) - 2.0, np.linspace(-1, 1, 4097)]),
              ['a,"b"', "c"]))
    def test_columns_match_per_row_reference(self, tmp_path_factory, drawn):
        table, header = drawn
        path = tmp_path_factory.mktemp("t") / "t.csv"
        dio.save_table(path, table, header=header)
        assert path.read_bytes() == _per_row_reference(table.T, header)

    @settings(max_examples=40, deadline=None)
    @given(_forecasts())
    def test_forecasts_match_per_row_reference(self, tmp_path_factory, drawn):
        y, pred, intervals = drawn
        path = tmp_path_factory.mktemp("f") / "f.csv"
        for bands in (None, intervals):
            dio.save_forecasts(path, y, pred, intervals=bands)
            assert path.read_bytes() == _forecast_reference(y, pred, bands)
        if not y.size:
            return
        # finite y and pred load back as the values their 12-digit text names
        y, pred = (np.where(np.isfinite(a), a, 0.5) for a in (y, pred))
        dio.save_forecasts(path, y, pred, intervals=intervals)
        loaded = dio.load_forecasts(path)
        for got, want in zip((*loaded[:2], *loaded[2]), (y, pred, *intervals)):
            parsed = np.array([float("%.12g" % v) for v in want.ravel()]).reshape(want.shape)
            assert got.tobytes() == parsed.tobytes()

    def test_forecast_keys_written_as_integers(self, tmp_path):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1e6, size=(3, 2, 4))
        path = tmp_path / "fc.csv"
        dio.save_forecasts(path, y, -y, intervals=(y - 1, y + 1))
        keys = np.indices(y.shape).reshape(3, -1) + np.array([[0], [0], [1]])
        columns = list(keys) + [y.ravel(), -y.ravel(), y.ravel() - 1, y.ravel() + 1,
                                np.ones(y.size)]
        assert path.read_bytes() == _per_row_reference(
            columns, ["t", "node", "step", "y", "pred", "lo", "hi", "covered"])


def _row_scan(path):
    """Reference reader: one ``csv.reader`` row and one ``float()`` per cell."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            values = []
            for c, cell in enumerate(row, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}") from None
            if not all(np.isfinite(values)):
                c = next(i for i, v in enumerate(values, start=1) if not np.isfinite(v))
                raise DataError(f"{path}: non-finite value at row {r}, column {c}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no observations")
    return np.asarray(rows, dtype=np.float64).T[:, None, :]


def _scan_outcome(fn, path):
    try:
        x = fn(path)
    except DataError as exc:
        return "error", str(exc)
    return "array", x.shape, x.dtype, x.tobytes()


_CELL_TEXTS = [repr, "{:.12g}".format, lambda v: str(int(v)), lambda v: f" {v!r} "]


class TestLoadCsvMatchesRowScan:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 30), width=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           newline=st.sampled_from(["\n", "\r\n", "\r"]), trailing=st.booleans(),
           header=st.sampled_from([None, ['a,b', 'say "hi"']]))
    def test_accepted_files_load_the_same_array(self, tmp_path_factory, rows, width, seed,
                                                newline, trailing, header):
        rng = np.random.default_rng(seed)
        values = np.ldexp(rng.normal(size=(rows, width)), rng.integers(-1080, 1000, (rows, width)))
        values[rng.random(values.shape) < 0.1] = -0.0
        out = io.StringIO(newline="")
        names = (header or []) + [f"s{i}" for i in range(width)]
        csv.writer(out, lineterminator=newline).writerow(names[:width])
        lines = [",".join(_CELL_TEXTS[rng.integers(len(_CELL_TEXTS))](v) for v in row)
                 for row in values.tolist()]
        out.write(newline.join(lines) + (newline if trailing else ""))
        path = tmp_path_factory.mktemp("l") / "x.csv"
        path.write_bytes(out.getvalue().encode())
        got = _scan_outcome(dio.load_csv, path)
        assert got == _scan_outcome(_row_scan, path)
        assert got[0] == "array"

    def test_clean_file_needs_no_row_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        x = dio.synthetic(3, 600, seed=0)
        dio.save_csv(path, x)
        monkeypatch.setattr(dio, "_scan_rows", None)
        np.testing.assert_allclose(dio.load_csv(path), x, rtol=1e-11)

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n3,4\n",
        "a,b\r\n1,2\r\n3,4",
        '"x,1","y""2"\r\n1,2\r\n',
        'a,b\n"1.5",2\n',  # quoted numeric cell
        "a,b\n1_000,2\n",  # float() reads digit separators, np.loadtxt does not
        "a\n 7 \n-0\n",
    ])
    def test_edge_files_load_the_same_array(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        got = _scan_outcome(dio.load_csv, path)
        assert got == _scan_outcome(_row_scan, path)
        assert got[0] == "array"

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n\n3,4\n", "row 3 has 0 cells"),
        ("a,b\r\n1,2\r\n\r\n3,4\r\n", "row 3 has 0 cells"),
        ("a,b\n\n1,2\n", "row 2 has 0 cells"),
        ("a,b\n1,2\n\n", "row 3 has 0 cells"),
        ("a,b\n1,2\r3,4\n\n", "row 4 has 0 cells"),  # lone \r ends a row too
        ("a,b\n1,2\n\r", "row 3 has 0 cells"),
        ("a,b\n1,2\n3\n", "row 3 has 1 cells"),
        ("a,b\n1,2\n3,4,5\n", "row 3 has 3 cells"),
        ("a,b\n1,2,3\n4,5,6\n", "row 2 has 3 cells"),
        ("a,b\n1,2\n3,oops\n", "non-numeric cell at row 3, column 2: 'oops'"),
        ("a,b\n1,2\n3,\n", "non-numeric cell at row 3, column 2: ''"),
        ('a,b\n"1,5",2\n', "non-numeric cell at row 2, column 1: '1,5'"),
        ('a,b\n"1\n2",3\n', "non-numeric cell at row 2, column 1: '1\\n2'"),
        ("a,b\n1,2\nnan,4\n", "non-finite value at row 3, column 1"),
        ("a,b\n1,inf\n", "non-finite value at row 2, column 2"),
        ("a,b\n1,-inf\n", "non-finite value at row 2, column 2"),
        ("a,b\n1,1e999\n", "non-finite value at row 2, column 2"),
        ("a,b\n", "no observations"),
        ("a\n", "no observations"),
        ("a,b", "no observations"),
        ("", "empty file"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejected_files_raise_the_same_error(self, tmp_path, text, message):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        got = _scan_outcome(dio.load_csv, path)
        assert got == _scan_outcome(_row_scan, path)
        assert got[0] == "error" and message in got[1]


class TestFmt:
    def test_twelve_significant_digits(self):
        assert dio.fmt(1.0 / 3.0) == "0.333333333333"
        assert dio.fmt(1.0) == "1"
        assert dio.fmt(-2.5e-7) == "-2.5e-07"
