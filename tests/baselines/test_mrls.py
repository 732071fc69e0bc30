"""Tests for the MRLS (PRISM) baseline."""

import numpy as np
import pytest

from repro.baselines import mrls
from repro.baselines.mrls import MrlsDetector, MrlsParams
from repro.exceptions import InsufficientDataError, ParameterError


class TestMrlsParams:
    def test_paper_window(self):
        assert MrlsParams().window == 32      # W_MRLS = 32 (section 4.1)

    @pytest.mark.parametrize("kwargs", [
        dict(window=4), dict(window=15), dict(window=0),
        dict(rpca_sparsity_scale=0.0), dict(threshold=-4.0),
        dict(threshold=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            MrlsParams(**kwargs)


class TestStatistic:
    def test_low_on_noise(self, rng):
        detector = MrlsDetector()
        values = [detector.statistic_for_window(
            10.0 + 0.3 * np.random.default_rng(s).normal(size=32))
            for s in range(10)]
        assert np.median(values) < 2.0

    def test_high_on_outsized_spike(self, rng):
        """The sparse channel fires on spikes — MRLS's reported weakness
        on variable KPIs (Table 1)."""
        detector = MrlsDetector()
        x = 10.0 + 0.3 * rng.normal(size=32)
        x[28] += 4.0           # ~13-sigma one-off spike near the tail
        assert detector.statistic_for_window(x) > 3.0

    def test_aged_step_scores_higher_than_young_step(self, rng):
        """The l1 absorption lag: a shift scores low while young."""
        detector = MrlsDetector()
        base = 10.0 + 0.3 * rng.normal(size=64)
        young = base.copy()
        young[61:] += 1.2      # 3 post-change samples in the window
        aged = base.copy()
        aged[48:] += 1.2       # 16 post-change samples
        young_stat = detector.statistic_for_window(young[-32:])
        aged_stat = detector.statistic_for_window(aged[-32:])
        assert aged_stat > young_stat

    def test_smooth_trend_tolerated(self, rng):
        """A locally-linear seasonal climb stays inside the local
        subspace (MRLS's strength on smooth seasonal data)."""
        detector = MrlsDetector()
        t = np.arange(32, dtype=float)
        x = 10.0 + 0.05 * t + 0.3 * rng.normal(size=32)
        assert detector.statistic_for_window(x) < 3.0

    def test_short_window_raises(self, rng):
        with pytest.raises(InsufficientDataError):
            MrlsDetector().statistic_for_window(rng.normal(size=20))

    def test_spike_weight_scales_spike_channel(self, rng, monkeypatch):
        x = 10.0 + 0.3 * rng.normal(size=32)
        x[29] += 5.0
        low = MrlsDetector().statistic_for_window(x)
        monkeypatch.setattr(mrls, "SPIKE_WEIGHT", 1.0)
        assert MrlsDetector().statistic_for_window(x) > low

    def test_sparsity_scale_slows_absorption(self, rng):
        """Lower RPCA sparsity weight keeps a young shift in the sparse
        component longer (ablation knob)."""
        base = 10.0 + 0.3 * rng.normal(size=64)
        base[54:] += 1.5
        window = base[-32:]
        default = MrlsDetector(MrlsParams())
        slow = MrlsDetector(MrlsParams(rpca_sparsity_scale=0.5))
        # Same input; the slow variant sees less of the shift in its
        # low-rank channel.  (Both still compute a finite statistic.)
        assert np.isfinite(default.statistic_for_window(window))
        assert np.isfinite(slow.statistic_for_window(window))


class TestDetect:
    def test_detects_step(self, rng):
        x = 10.0 + 0.3 * rng.normal(size=160)
        x[100:] += 2.0
        changes = MrlsDetector().detect(x)
        assert changes
        assert changes[0].index >= 100
        assert changes[0].direction == 1

    def test_quiet_series_no_detection(self, rng):
        x = 10.0 + 0.3 * rng.normal(size=160)
        assert MrlsDetector(MrlsParams(threshold=6.0)).detect(x) == []

    def test_scores_shape(self, rng):
        x = 10.0 + 0.3 * rng.normal(size=80)
        scores = MrlsDetector().scores(x)
        assert scores.shape == x.shape
        assert np.all(scores[:31] == 0.0)

    def test_short_series_raises(self, rng):
        with pytest.raises(InsufficientDataError):
            MrlsDetector().detect(rng.normal(size=20))

    def test_iterated_svd_cost_dominates(self, rng):
        """MRLS spends orders of magnitude more per window than a plain
        SVD — the Table 2 mechanism."""
        import time
        x = 10.0 + 0.3 * rng.normal(size=32)
        detector = MrlsDetector()
        t0 = time.perf_counter()
        detector.statistic_for_window(x)
        mrls_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        np.linalg.svd(np.outer(x[:8], x[:8]))
        svd_time = time.perf_counter() - t0
        assert mrls_time > 5 * svd_time
