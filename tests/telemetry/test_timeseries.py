"""Tests for time-binned series and event binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError, TelemetryError
from repro.telemetry.timeseries import TimeSeries, bin_events


class TestTimeSeries:
    def test_geometry(self):
        ts = TimeSeries(start=120, bin_seconds=60, values=[1.0, 2.0, 3.0])
        assert len(ts) == 3
        assert ts.end == 300
        np.testing.assert_array_equal(ts.timestamps(), [120, 180, 240])

    def test_index_of(self):
        ts = TimeSeries(0, 60, [1.0, 2.0])
        assert ts.index_of(0) == 0
        assert ts.index_of(59) == 0
        assert ts.index_of(60) == 1
        with pytest.raises(TelemetryError):
            ts.index_of(120)
        with pytest.raises(TelemetryError):
            ts.index_of(-1)

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

    def test_resample(self):
        ts = TimeSeries(0, 60, np.arange(7.0))
        coarse = ts.resample(3)
        assert coarse.bin_seconds == 180
        np.testing.assert_array_equal(coarse.values, [1.0, 4.0])

    def test_resample_factor_one_returns_owning_copy(self):
        """Regression: ``resample(1)`` used to return ``self``, aliasing
        the caller's buffer while every other transform copies."""
        ts = TimeSeries(0, 60, np.arange(5.0))
        same = ts.resample(1)
        assert same is not ts
        assert same.start == ts.start and same.bin_seconds == ts.bin_seconds
        np.testing.assert_array_equal(same.values, ts.values)
        assert not np.shares_memory(same.values, ts.values)

    def test_shifted(self):
        ts = TimeSeries(0, 60, [1.0])
        assert ts.shifted(600).start == 600

    @pytest.mark.parametrize("transform", [
        lambda ts: ts.slice_time(60, 240),
        lambda ts: ts.resample(1),
        lambda ts: ts.resample(2),
        lambda ts: ts.shifted(600),
    ], ids=["slice_time", "resample_1", "resample_2", "shifted"])
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

    def test_average(self):
        series = [TimeSeries(0, 60, [2.0, 4.0]),
                  TimeSeries(0, 60, [4.0, 8.0])]
        np.testing.assert_array_equal(TimeSeries.average(series).values,
                                      [3.0, 6.0])

    def test_average_empty_raises(self):
        with pytest.raises(TelemetryError):
            TimeSeries.average([])

    def test_invalid_bin_raises(self):
        with pytest.raises(ParameterError):
            TimeSeries(0, 0, [1.0])

    def test_nan_values_rejected(self):
        with pytest.raises(ParameterError):
            TimeSeries(0, 60, [np.nan])


class TestBinEvents:
    def test_counts(self):
        ts = bin_events([0, 30, 59, 60, 200], start=0, end=240)
        np.testing.assert_array_equal(ts.values, [3.0, 1.0, 0.0, 1.0])

    def test_out_of_range_dropped(self):
        ts = bin_events([-5, 0, 300], start=0, end=240)
        assert ts.values.sum() == 1.0

    def test_weights_sum(self):
        ts = bin_events([0, 10, 70], start=0, end=120,
                        weights=[1.5, 2.5, 10.0])
        np.testing.assert_array_equal(ts.values, [4.0, 10.0])

    def test_weight_length_mismatch(self):
        with pytest.raises(ParameterError):
            bin_events([0, 10], start=0, end=60, weights=[1.0])

    def test_unaligned_interval_raises(self):
        with pytest.raises(ParameterError):
            bin_events([0], start=0, end=90)

    def test_empty_interval_raises(self):
        with pytest.raises(ParameterError):
            bin_events([0], start=60, end=60)

    @given(st.lists(st.integers(0, 3599), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_total_count_preserved_property(self, times):
        """Every in-range event lands in exactly one bin."""
        ts = bin_events(times, start=0, end=3600)
        assert ts.values.sum() == len(times)
        assert len(ts) == 60
