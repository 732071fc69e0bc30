"""Tests for the CUSUM (MERCURY) baseline."""

import numpy as np
import pytest

from repro.baselines.cusum import CusumDetector, CusumParams
from repro.exceptions import InsufficientDataError, ParameterError


class TestCusumParams:
    def test_paper_window(self):
        assert CusumParams().window == 60      # W_CUSUM = 60 (section 4.1)

    def test_calibration_is_half_window(self):
        assert CusumParams(window=60).calibration == 30

    @pytest.mark.parametrize("kwargs", [
        dict(window=4), dict(window=7), dict(threshold=0.0),
        dict(threshold=-8.0), dict(window=0), dict(window=7, threshold=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            CusumParams(**kwargs)


class TestStatistic:
    def test_zero_on_constant(self):
        detector = CusumDetector(CusumParams(window=20))
        # Constant calibration yields sigma -> epsilon but z = 0 exactly.
        assert detector.statistic_for_window(np.full(20, 5.0)) == 0.0

    def test_grows_with_shift_size(self, rng):
        detector = CusumDetector(CusumParams(window=40))
        base = 10.0 + 0.5 * rng.normal(size=40)
        small = base.copy()
        small[25:] += 1.0
        large = base.copy()
        large[25:] += 4.0
        assert (detector.statistic_for_window(large)
                > detector.statistic_for_window(small))

    def test_two_sided(self, rng):
        detector = CusumDetector(CusumParams(window=40))
        base = 10.0 + 0.5 * rng.normal(size=40)
        down = base.copy()
        down[25:] -= 4.0
        assert detector.statistic_for_window(down) > 2.0

    def test_short_window_raises(self, rng):
        detector = CusumDetector()
        with pytest.raises(InsufficientDataError):
            detector.statistic_for_window(rng.normal(size=30))

    def test_accumulation_beats_instant_deviation(self, rng):
        """A persistent 1-sigma shift accumulates past a 3-sigma spike —
        the defining property of CUSUM."""
        detector = CusumDetector(CusumParams(window=60))
        persistent = rng.normal(size=60)
        persistent[30:] += 1.5
        spiky = rng.normal(size=60)
        spiky[45] += 3.0
        assert (detector.statistic_for_window(persistent)
                > detector.statistic_for_window(spiky))


class TestDetect:
    def test_detects_step(self, rng):
        x = 10.0 + 0.4 * rng.normal(size=200)
        x[120:] += 3.0
        changes = CusumDetector().detect(x)
        assert changes
        assert changes[0].index >= 120

    def test_long_delay_for_small_shift(self, rng):
        """Crossing h takes ~h/shift samples: CUSUM's delay problem."""
        params = CusumParams(threshold=20.0)
        x = 10.0 + 0.5 * rng.normal(size=300)
        x[150:] += 1.0             # 2-sigma shift
        changes = CusumDetector(params).detect(x)
        if changes:
            assert changes[0].index - 150 > 5

    def test_quiet_series_no_detection(self, rng):
        x = 10.0 + 0.4 * rng.normal(size=200)
        detector = CusumDetector(CusumParams(threshold=15.0))
        assert detector.detect(x) == []

    def test_scores_normalised_by_threshold(self, rng):
        x = 10.0 + 0.4 * rng.normal(size=100)
        x[60:] += 5.0
        detector = CusumDetector()
        scores = detector.scores(x)
        assert scores.shape == x.shape
        assert scores[70:].max() > 1.0

    def test_bootstrap_rejects_shuffled_noise(self, rng):
        detector = CusumDetector(seed=3)
        noise = rng.normal(size=60)
        x = np.sort(noise)           # maximally trend-like arrangement
        assert detector._bootstrap_significant(x)
        # Plain noise: the shuffle distribution covers the observed range.
        assert not detector._bootstrap_significant(noise)

    def test_deterministic_given_seed(self, rng):
        x = 10.0 + 0.4 * rng.normal(size=150)
        x[100:] += 3.0
        a = CusumDetector(seed=9).detect(x)
        b = CusumDetector(seed=9).detect(x)
        assert a == b

    def test_series_shorter_than_window_raises(self, rng):
        with pytest.raises(InsufficientDataError):
            CusumDetector().detect(rng.normal(size=40))
