"""Tests for the week-over-week seasonal baseline."""

import numpy as np
import pytest

from repro.baselines.wow import WeekOverWeekDetector, WowParams
from repro.exceptions import InsufficientDataError, ParameterError
from repro.synthetic.patterns import SeasonalPattern
from repro.telemetry.timeseries import MINUTE


def daily_params(**kwargs):
    defaults = dict(period=1440, n_periods=3, threshold_sigmas=4.0)
    defaults.update(kwargs)
    return WowParams(**defaults)


@pytest.fixture
def seasonal_series(rng):
    """5 simulated days of a strongly seasonal KPI at 1-min bins."""
    pattern = SeasonalPattern(base=200.0, daily_amplitude=0.6,
                              noise_sigma=3.0, weekend_factor=1.0)
    timestamps = np.arange(5 * 1440, dtype=np.int64) * MINUTE
    return pattern.sample(timestamps, rng)


class TestWowParams:
    def test_defaults_weekly(self):
        assert WowParams().period == 10080

    @pytest.mark.parametrize("kwargs", [
        dict(period=1), dict(n_periods=0), dict(threshold_sigmas=0.0),
        dict(threshold_sigmas=-4.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            daily_params(**kwargs)


class TestDeviations:
    def test_seasonal_pattern_cancelled(self, seasonal_series):
        detector = WeekOverWeekDetector(daily_params())
        z = detector.deviations(seasonal_series)
        active = z[3 * 1440:]
        # The diurnal swing is tens of sigmas of the flat noise; week-
        # over-week it disappears almost entirely.
        assert np.percentile(np.abs(active), 95) < 4.0

    def test_shift_shows_up(self, seasonal_series):
        x = seasonal_series.copy()
        x[4 * 1440 + 720:] -= 80.0
        detector = WeekOverWeekDetector(daily_params())
        z = detector.deviations(x)
        assert np.abs(z[4 * 1440 + 730:]).max() > 4.0

    def test_needs_history(self, rng):
        detector = WeekOverWeekDetector(daily_params())
        with pytest.raises(InsufficientDataError):
            detector.deviations(rng.normal(size=3 * 1440))

    def test_zero_where_no_history(self, seasonal_series):
        detector = WeekOverWeekDetector(daily_params())
        z = detector.deviations(seasonal_series)
        assert np.all(z[:3 * 1440] == 0.0)


class TestDetect:
    def test_detects_seasonal_incident(self, seasonal_series):
        x = seasonal_series.copy()
        incident = 4 * 1440 + 800
        x[incident:] -= 100.0
        detector = WeekOverWeekDetector(daily_params())
        changes = detector.detect(x, first_only=True)
        assert changes
        assert incident <= changes[0].index <= incident + 30
        assert changes[0].direction == -1

    def test_no_false_alarm_on_clean_seasonality(self, seasonal_series):
        detector = WeekOverWeekDetector(daily_params())
        assert detector.detect(seasonal_series, first_only=True) == []

    def test_one_off_spike_rejected(self, seasonal_series):
        x = seasonal_series.copy()
        x[4 * 1440 + 500:4 * 1440 + 503] += 150.0
        detector = WeekOverWeekDetector(daily_params())
        assert detector.detect(x, first_only=True) == []

    def test_persistence_boundary(self, seasonal_series):
        x = seasonal_series.copy()
        at = 4 * 1440 + 500
        x[at:at + 10] += 150.0          # 10 > persistence 7
        detector = WeekOverWeekDetector(daily_params())
        changes = detector.detect(x, first_only=True)
        assert changes
        assert changes[0].index == at + 6

    def test_daily_event_not_flagged(self, rng):
        """A sharp recurring intraday event fools raw detectors but not
        week-over-week — the same property FUNNEL gets from DiD."""
        pattern = SeasonalPattern(base=200.0, daily_amplitude=0.5,
                                  noise_sigma=3.0, weekend_factor=1.0,
                                  daily_events=((9 * 3600, 11 * 3600,
                                                 0.4),))
        timestamps = np.arange(5 * 1440, dtype=np.int64) * MINUTE
        x = pattern.sample(timestamps, rng)
        detector = WeekOverWeekDetector(daily_params())
        assert detector.detect(x, first_only=True) == []
