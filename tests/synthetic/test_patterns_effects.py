"""Tests for trace generators, effects and contamination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.synthetic.effects import (LevelShift, Ramp, TransientDip,
                                     apply_effects)
from repro.synthetic.patterns import (SeasonalPattern, StationaryPattern,
                                      VariablePattern,
                                      pattern_for_character)
from repro.telemetry.timeseries import DAY, MINUTE
from repro.types import KpiCharacter

from .contamination import contaminate_history_panel


class TestSeasonalPattern:
    def _day_timestamps(self):
        return np.arange(0, DAY, MINUTE)

    def test_daily_profile_peaks_in_afternoon(self):
        pattern = SeasonalPattern(noise_sigma=0.0)
        profile = pattern.profile(self._day_timestamps())
        peak_minute = int(np.argmax(profile))
        assert 11 * 60 <= peak_minute <= 18 * 60
        trough_minute = int(np.argmin(profile))
        assert trough_minute < 9 * 60 or trough_minute > 22 * 60

    def test_weekend_factor(self):
        pattern = SeasonalPattern(weekend_factor=0.5, noise_sigma=0.0)
        weekday = pattern.profile([2 * DAY + 12 * 3600])[0]   # Wednesday
        weekend = pattern.profile([5 * DAY + 12 * 3600])[0]   # Saturday
        assert weekend == pytest.approx(0.5 * weekday)

    def test_daily_event_applies_inside_interval(self):
        pattern = SeasonalPattern(noise_sigma=0.0,
                                  daily_events=((36000, 39600, 0.5),))
        inside = pattern.profile([36000 + 60])[0]
        just_before = pattern.profile([36000 - 60])[0]
        assert inside > 1.4 * just_before * (1.0 / 1.5)
        # The event recurs every day at the same clock time.
        next_day = pattern.profile([DAY + 36000 + 60])[0]
        assert next_day == pytest.approx(inside, rel=0.05)

    def test_repeatability_with_same_rng_seed(self):
        pattern = SeasonalPattern()
        t = self._day_timestamps()
        a = pattern.sample(t, np.random.default_rng(3))
        b = pattern.sample(t, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_invalid_event(self):
        with pytest.raises(ParameterError):
            SeasonalPattern(daily_events=((100, 50, 0.5),))
        with pytest.raises(ParameterError):
            SeasonalPattern(daily_events=((0, 60, -1.5),))

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            SeasonalPattern(base=-1.0)
        with pytest.raises(ParameterError):
            SeasonalPattern(daily_amplitude=1.5)


class TestStationaryPattern:
    def test_mean_near_level(self, rng):
        pattern = StationaryPattern(level=60.0, noise_sigma=0.5)
        x = pattern.sample(np.arange(5000) * MINUTE, rng)
        assert np.mean(x) == pytest.approx(60.0, abs=0.5)

    def test_autocorrelation_sign(self, rng):
        pattern = StationaryPattern(ar_coefficient=0.8, noise_sigma=1.0)
        x = pattern.sample(np.arange(5000) * MINUTE, rng)
        d = x - x.mean()
        rho = (d[:-1] @ d[1:]) / (d @ d)
        assert rho > 0.6

    def test_typical_scale_is_stationary_sd(self, rng):
        pattern = StationaryPattern(ar_coefficient=0.6, noise_sigma=1.0)
        x = pattern.sample(np.arange(20000) * MINUTE, rng)
        assert np.std(x) == pytest.approx(pattern.typical_scale(), rel=0.1)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            StationaryPattern(ar_coefficient=1.0)


class TestVariablePattern:
    def test_positive_and_heavy_tailed(self, rng):
        pattern = VariablePattern(level=50.0, lognormal_sigma=0.3)
        x = pattern.sample(np.arange(5000) * MINUTE, rng)
        assert np.all(x > 0.0)
        # Log-normal: mean above median.
        assert np.mean(x) > np.median(x)

    def test_spikes_present(self, rng):
        pattern = VariablePattern(level=50.0, lognormal_sigma=0.1,
                                  spike_rate=0.05, spike_magnitude=3.0)
        x = pattern.sample(np.arange(2000) * MINUTE, rng)
        assert (x > 120.0).sum() > 10

    def test_invalid(self):
        with pytest.raises(ParameterError):
            VariablePattern(level=0.0)
        with pytest.raises(ParameterError):
            VariablePattern(spike_rate=1.0)


class TestPatternFactory:
    @pytest.mark.parametrize("character", list(KpiCharacter))
    def test_factory_characters(self, character):
        pattern = pattern_for_character(character)
        assert pattern.character is character

    def test_scale_multiplies_level(self):
        small = pattern_for_character(KpiCharacter.STATIONARY, scale=1.0)
        big = pattern_for_character(KpiCharacter.STATIONARY, scale=10.0)
        assert big.level == pytest.approx(10.0 * small.level)


class TestEffects:
    def test_level_shift(self):
        out = LevelShift(start=3, magnitude=2.0).apply(np.zeros(6))
        np.testing.assert_array_equal(out, [0, 0, 0, 2, 2, 2])

    def test_level_shift_does_not_mutate(self):
        x = np.zeros(5)
        LevelShift(start=0, magnitude=1.0).apply(x)
        assert np.all(x == 0.0)

    def test_ramp_shape(self):
        out = Ramp(start=2, magnitude=4.0, duration=4).apply(np.zeros(10))
        np.testing.assert_allclose(out, [0, 0, 1, 2, 3, 4, 4, 4, 4, 4])

    def test_ramp_past_end(self):
        out = Ramp(start=8, magnitude=4.0, duration=4).apply(np.zeros(10))
        np.testing.assert_allclose(out[:8], 0.0)
        assert out[9] == pytest.approx(2.0)

    def test_transient_dip_recovers(self):
        out = TransientDip(start=2, magnitude=3.0,
                           duration=3).apply(np.full(8, 10.0))
        np.testing.assert_array_equal(out, [10, 10, 7, 7, 7, 10, 10, 10])

    def test_apply_effects_composes(self):
        out = apply_effects(np.zeros(10), [
            LevelShift(start=5, magnitude=1.0),
            TransientDip(start=2, magnitude=3.0, duration=1),
        ])
        assert out[2] == -3.0
        assert out[7] == 1.0

    @pytest.mark.parametrize("effect_cls,kwargs", [
        (LevelShift, dict(start=-1, magnitude=1.0)),
        (Ramp, dict(start=0, magnitude=1.0, duration=0)),
        (TransientDip, dict(start=0, magnitude=-1.0, duration=5)),
    ])
    def test_invalid_effects(self, effect_cls, kwargs):
        with pytest.raises(ParameterError):
            effect_cls(**kwargs)

    @given(st.integers(0, 50), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_level_shift_property(self, start, magnitude):
        """Pre-start samples untouched; post-start shifted exactly."""
        x = np.arange(50.0)
        out = LevelShift(start=start, magnitude=magnitude).apply(x)
        np.testing.assert_array_equal(out[:start], x[:start])
        np.testing.assert_allclose(out[start:], x[start:] + magnitude)


class TestContamination:
    def test_no_config_is_identity(self, rng):
        panel = rng.normal(size=(5, 100))
        out = contaminate_history_panel(panel, 0.0, rng)
        np.testing.assert_array_equal(out, panel)

    def test_history_outages(self, rng):
        panel = np.full((30, 100), 50.0)
        out = contaminate_history_panel(panel, 1.0, rng)
        assert (out < 25.0).any(axis=1).all()

    def test_history_shape_checked(self, rng):
        with pytest.raises(ParameterError):
            contaminate_history_panel(np.zeros(10), 0.0, rng)

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            contaminate_history_panel(np.zeros((2, 3)), -0.1, None)
        with pytest.raises(ParameterError):
            contaminate_history_panel(np.zeros((2, 3)), 1.5, None)
