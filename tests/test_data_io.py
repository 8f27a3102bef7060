import csv

import numpy as np
import pytest

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

    def test_custom_header_preserved(self, tmp_path):
        path = tmp_path / "x.csv"
        dio.save_csv(path, np.ones((2, 3)), header=["a17", "b21"])
        first = path.read_text().splitlines()[0]
        assert first == "a17,b21"

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
        coupling = dio.synthetic_coupling(6, seed=3)
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

    def test_row_order_does_not_matter(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 8)
        y, pred, _ = dio.load_forecasts(path)
        body = lines[1:]
        np.random.default_rng(0).shuffle(body)
        path.write_text("\n".join([lines[0], *body]) + "\n")
        y2, pred2, _ = dio.load_forecasts(path)
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_array_equal(pred2, pred)

    def test_missing_cell_rejected(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 9)
        dropped = lines[1 + 40]  # t=1, node=0, step=5
        assert dropped.startswith("1,0,5,")
        path.write_text("\n".join(lines[:41] + lines[42:]) + "\n")
        with pytest.raises(DataError, match=r"no row for \(t, node, step\) \(1, 0, 5\)"):
            dio.load_forecasts(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path, lines = self._written_lines(tmp_path, 10)
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(DataError, match=r"row 217 after the header repeats \(t, node, step\) \(0, 0, 3\)"):
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

    @pytest.mark.parametrize("header", ["t,node,step,pred,y", "a,b,c,d,e,lo,x", ""])
    def test_unknown_header_rejected(self, tmp_path, header):
        # columns are read by position, so a reordered header would swap y and pred
        path = tmp_path / "fc.csv"
        path.write_text(f"{header}\n0,0,1,1.5,2.5{',0.5,3.5' if 'lo' in header else ''}\n")
        with pytest.raises(DataError, match=f"header '{header}' is not"):
            dio.load_forecasts(path)

    def test_seven_column_band_layout_accepted(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("t,node,step,y,pred,lo,hi\n0,0,1,1.5,2.5,0.5,3.5\n")
        y, pred, (lo, hi) = dio.load_forecasts(path)
        assert (y.item(), pred.item(), lo.item(), hi.item()) == (1.5, 2.5, 0.5, 3.5)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("t,node,step,y,pred\n")
        y, pred, intervals = dio.load_forecasts(path)
        assert y.shape == pred.shape == (0, 0, 0) and intervals is None


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


class TestFmt:
    def test_twelve_significant_digits(self):
        assert dio.fmt(1.0 / 3.0) == "0.333333333333"
        assert dio.fmt(1.0) == "1"
        assert dio.fmt(-2.5e-7) == "-2.5e-07"
