"""Tests for CSV interchange."""

import io

import numpy as np
import pytest

from repro.exceptions import TelemetryError
from repro.io.csvio import read_matrix, read_series, write_matrix
from repro.telemetry.timeseries import TimeSeries


def write_series(series, target):
    """A long-format CSV of ``series``, as a metrics export writes it."""
    times = series.start + series.bin_seconds * np.arange(len(series))
    rows = ["timestamp,value"] + ["%d,%r" % (t, float(v))
                                  for t, v in zip(times, series.values)]
    text = "\n".join(rows) + "\n"
    if isinstance(target, io.StringIO):
        target.write(text)
    else:
        target.write_text(text)


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        series = TimeSeries(600, 60, [1.5, 2.5, 3.5])
        path = tmp_path / "s.csv"
        write_series(series, path)
        loaded = read_series(path)
        assert loaded.start == 600
        assert loaded.bin_seconds == 60
        np.testing.assert_array_equal(loaded.values, series.values)

    def test_roundtrip_via_buffers(self):
        series = TimeSeries(0, 30, np.linspace(0, 1, 10))
        buffer = io.StringIO()
        write_series(series, buffer)
        buffer.seek(0)
        loaded = read_series(buffer)
        np.testing.assert_allclose(loaded.values, series.values)
        assert loaded.bin_seconds == 30

    def test_gap_rejected(self):
        buffer = io.StringIO("timestamp,value\n0,1.0\n60,2.0\n180,3.0\n")
        with pytest.raises(TelemetryError):
            read_series(buffer)

    def test_unsorted_rejected(self):
        buffer = io.StringIO("timestamp,value\n60,1.0\n0,2.0\n")
        with pytest.raises(TelemetryError):
            read_series(buffer)

    def test_non_numeric_rejected(self):
        buffer = io.StringIO("timestamp,value\n0,1.0\n60,abc\n")
        with pytest.raises(TelemetryError):
            read_series(buffer)

    def test_bad_column_count(self):
        buffer = io.StringIO("timestamp,value\n0,1.0,9\n")
        with pytest.raises(TelemetryError):
            read_series(buffer)

    def test_too_short(self):
        buffer = io.StringIO("timestamp,value\n0,1.0\n")
        with pytest.raises(TelemetryError):
            read_series(buffer)

    def test_empty_file(self):
        with pytest.raises(TelemetryError):
            read_series(io.StringIO(""))


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        matrix = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "m.csv"
        write_matrix(matrix, ["u1", "u2", "u3"], start=0, bin_seconds=60,
                     target=path)
        loaded, units, start, bins = read_matrix(path)
        np.testing.assert_array_equal(loaded, matrix)
        assert units == ["u1", "u2", "u3"]
        assert (start, bins) == (0, 60)

    def test_duplicate_units_rejected(self):
        buffer = io.StringIO("timestamp,a,a\n0,1,2\n60,3,4\n")
        with pytest.raises(TelemetryError):
            read_matrix(buffer)

    def test_ragged_rows_rejected(self):
        buffer = io.StringIO("timestamp,a,b\n0,1,2\n60,3\n")
        with pytest.raises(TelemetryError):
            read_matrix(buffer)

    def test_shape_mismatch_on_write(self):
        with pytest.raises(TelemetryError):
            write_matrix(np.zeros((2, 3)), ["only-one"], 0, 60,
                         io.StringIO())

    def test_values_precise(self):
        matrix = np.array([[0.1 + 0.2]])          # classic float fun
        buffer = io.StringIO()
        write_matrix(matrix, ["u"], 0, 60, buffer)
        # A single row is below the 2-sample minimum; append one.
        buffer.seek(0, io.SEEK_END)
        buffer.write("60,%r\n" % (0.1 + 0.2))
        buffer.seek(0)
        loaded, _, _, _ = read_matrix(buffer)
        assert loaded[0, 0] == 0.1 + 0.2
