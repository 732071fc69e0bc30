"""Tests for time-binned series."""

import numpy as np
import pytest
from repro.exceptions import ParameterError, TelemetryError
from repro.telemetry.timeseries import TimeSeries


class TestTimeSeries:
    def test_geometry(self):
        ts = TimeSeries(start=120, bin_seconds=60, values=[1.0, 2.0, 3.0])
        assert len(ts) == 3
        assert ts.end == 300

    def test_slice_time(self):
        ts = TimeSeries(0, 60, np.arange(10.0))
        sub = ts.slice_time(120, 300)
        assert sub.start == 120
        np.testing.assert_array_equal(sub.values, [2.0, 3.0, 4.0])

    def test_slice_clamps(self):
        ts = TimeSeries(0, 60, np.arange(5.0))
        sub = ts.slice_time(-600, 6000)
        assert len(sub) == 5

    def test_slice_unaligned_raises(self):
        ts = TimeSeries(0, 60, np.arange(5.0))
        with pytest.raises(TelemetryError):
            ts.slice_time(30, 120)

    @pytest.mark.parametrize("transform", [
        lambda ts: ts.slice_time(60, 240),
    ], ids=["slice_time"])
    def test_transforms_return_owning_copies(self, transform):
        """Mutation isolation: no transform result may share memory with
        its source — a mutated result once corrupted cached store views
        through exactly such aliasing."""
        ts = TimeSeries(0, 60, np.arange(6.0))
        derived = transform(ts)
        assert not np.shares_memory(derived.values, ts.values)
        derived.values[0] = 99.0
        np.testing.assert_array_equal(ts.values, np.arange(6.0))

    def test_addition_aligned(self):
        a = TimeSeries(0, 60, [1.0, 2.0])
        b = TimeSeries(0, 60, [10.0, 20.0])
        np.testing.assert_array_equal((a + b).values, [11.0, 22.0])

    def test_addition_misaligned_raises(self):
        a = TimeSeries(0, 60, [1.0, 2.0])
        b = TimeSeries(60, 60, [1.0, 2.0])
        with pytest.raises(TelemetryError):
            a + b

    def test_invalid_bin_raises(self):
        with pytest.raises(ParameterError):
            TimeSeries(0, 0, [1.0])

    def test_nan_values_rejected(self):
        with pytest.raises(ParameterError):
            TimeSeries(0, 60, [np.nan])
