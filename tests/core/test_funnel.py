"""Tests for the FUNNEL pipeline (Fig. 3 decision flow)."""

import numpy as np
import pytest

from repro.core.funnel import Funnel, FunnelConfig
from repro.core.rsst import ImprovedSSTParams
from repro.exceptions import ParameterError
from repro.types import DetectedChange, Verdict


def correlated_groups(rng, n_treated=4, n_control=12, bins=200, base=50.0):
    shared = base + rng.normal(0, 1.0, size=bins)
    noise = rng.normal(0, 0.5, size=(n_treated + n_control, bins))
    series = shared + noise
    return series[:n_treated].copy(), series[n_treated:].copy()


def fitted_panel(funnel, *args, **kwargs):
    """The DiD panel ``funnel.attribute(*args, **kwargs)`` fits."""
    panels, fit = [], funnel.estimator.fit

    def recorded(panel):
        panels.append(panel)
        return fit(panel)

    funnel.estimator.fit = recorded
    funnel.attribute(*args, **kwargs)
    (panel,) = panels
    return panel


class TestFunnelConfig:
    def test_defaults(self, rng):
        cfg = FunnelConfig()
        assert cfg.sst.omega == 9
        series = rng.normal(size=200)
        panel = fitted_panel(
            Funnel(cfg), series, DetectedChange(150, 100, 1.0), 100,
            history=rng.normal(size=(3, 200)))
        assert panel.treated_pre.shape[2] == 17      # 2*omega - 1
        assert panel.treated_post.shape[2] == 17

    def test_explicit_did_window(self, rng):
        """A DiD period is the gate window of the configured omega."""
        funnel = Funnel(FunnelConfig(sst=ImprovedSSTParams(omega=13)))
        treated, control = correlated_groups(rng)
        panel = fitted_panel(funnel, treated, DetectedChange(150, 100, 1.0),
                             100, control=control)
        assert panel.control_pre.shape[2] == 25
        assert panel.control_post.shape[2] == 25

    def test_invalid(self):
        with pytest.raises(ParameterError):
            FunnelConfig(did_threshold=0.0)
        with pytest.raises(ParameterError):
            FunnelConfig(did_threshold=-0.5)


class TestDetect:
    def test_detects_post_change_shift(self, rng):
        treated, _ = correlated_groups(rng)
        series = treated.mean(axis=0)
        series[120:] += 6.0
        changes = Funnel().detect(series, change_index=120)
        assert changes
        assert changes[0].start_index >= 119

    def test_ignores_pre_change_shift(self, rng):
        treated, _ = correlated_groups(rng)
        series = treated.mean(axis=0)
        series[50:] += 6.0          # pre-existing change
        changes = Funnel().detect(series, change_index=120)
        assert changes == []

    def test_invalid_change_index(self, rng):
        with pytest.raises(ParameterError):
            Funnel().detect(rng.normal(size=100), change_index=100)


class TestAssessWithPeers:
    def test_treated_only_impact_attributed(self, rng):
        treated, control = correlated_groups(rng)
        treated[:, 100:] += 8.0
        result = Funnel().assess(treated, 100, control=control)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE
        assert result.control == "peers"
        assert result.did_estimate > 1.0

    def test_common_event_excluded(self, rng):
        treated, control = correlated_groups(rng)
        treated[:, 100:] += 8.0
        control[:, 100:] += 8.0          # the event hits everyone
        result = Funnel().assess(treated, 100, control=control)
        assert result.verdict is Verdict.OTHER_REASONS
        assert abs(result.did_estimate) < 1.0

    def test_no_change_verdict(self, rng):
        treated, control = correlated_groups(rng)
        result = Funnel().assess(treated, 100, control=control)
        assert result.verdict is Verdict.NO_CHANGE
        assert result.change is None

    def test_negative_impact_attributed(self, rng):
        treated, control = correlated_groups(rng)
        treated[:, 100:] -= 8.0
        result = Funnel().assess(treated, 100, control=control)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE
        assert result.did_estimate < -1.0

    def test_direction_mismatch_not_attributed(self, rng):
        """A detected up-shift whose DiD says 'down' is control noise."""
        treated, control = correlated_groups(rng, n_treated=1, n_control=2)
        # Up-shift in treated AND a much larger up-shift in control: the
        # detection is positive but the relative movement is negative.
        treated[:, 100:] += 6.0
        control[:, 100:] += 14.0
        result = Funnel().assess(treated, 100, control=control)
        assert result.verdict is Verdict.OTHER_REASONS


class TestAssessWithHistory:
    def _seasonal(self, rng, bins=240):
        # A day-long cycle: the 2 h assessment window sees a steady
        # seasonal drift, the classic confounder.
        t = np.arange(bins, dtype=float)
        return 100.0 + 30.0 * np.sin(2 * np.pi * t / 1440.0)

    def test_seasonality_excluded(self, rng):
        base = self._seasonal(rng)
        today = base + rng.normal(0, 1.0, size=base.size)
        today[120:150] += 8.0            # a blip also present in history
        history = np.vstack([
            base + rng.normal(0, 1.0, size=base.size) for _ in range(30)
        ])
        history[:, 120:150] += 8.0
        result = Funnel().assess(today, 120, history=history)
        assert result.verdict in (Verdict.NO_CHANGE, Verdict.SEASONALITY)

    def test_real_impact_vs_history(self, rng):
        base = self._seasonal(rng)
        today = base + rng.normal(0, 1.0, size=base.size)
        today[120:] -= 40.0
        history = np.vstack([
            base + rng.normal(0, 1.0, size=base.size) for _ in range(30)
        ])
        result = Funnel().assess(today, 120, history=history)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE
        assert result.control == "history"

    def test_no_control_at_all_reports_with_note(self, rng):
        series = 50.0 + rng.normal(0, 0.5, size=200)
        series[100:] += 6.0
        result = Funnel().assess(series, 100)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE
        assert result.control is None
        assert result.notes


class TestConfigurationVariants:
    def test_omega5_quick_profile(self, rng):
        cfg = FunnelConfig(sst=ImprovedSSTParams(omega=5))
        treated, control = correlated_groups(rng)
        treated[:, 100:] += 8.0
        quick = Funnel(cfg).assess(treated, 100, control=control)
        slow = Funnel().assess(treated, 100, control=control)
        assert quick.verdict is Verdict.CAUSED_BY_CHANGE
        # omega = 5 declares earlier than omega = 9 (less lookahead).
        assert quick.change.index <= slow.change.index

    def test_strict_did_threshold_filters_small_effects(self, rng):
        treated, control = correlated_groups(rng)
        treated[:, 100:] += 3.0
        lenient = Funnel(FunnelConfig(did_threshold=0.5)).assess(
            treated, 100, control=control)
        strict = Funnel(FunnelConfig(did_threshold=50.0)).assess(
            treated, 100, control=control)
        assert lenient.verdict is Verdict.CAUSED_BY_CHANGE
        assert strict.verdict is Verdict.OTHER_REASONS

    def test_single_series_input(self, rng):
        series = 50.0 + rng.normal(0, 0.5, size=200)
        series[100:] += 5.0
        control = 50.0 + rng.normal(0, 0.5, size=(6, 200))
        result = Funnel().assess(series, 100, control=control)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE


class TestDetectBatch:
    def test_matches_per_series_detect(self, rng):
        stack = []
        indices = []
        for i in range(6):
            treated, _ = correlated_groups(rng)
            series = treated.mean(axis=0)
            if i % 2 == 0:
                series[120:] += rng.uniform(3.0, 7.0)
            stack.append(series)
            indices.append(120)
        stack = np.vstack(stack)
        funnel = Funnel()
        batched = funnel.detect_batch(stack, indices)
        for row in range(stack.shape[0]):
            assert batched[row] == funnel.detect(stack[row],
                                                 change_index=indices[row])
        assert any(batched[0::2])

    def test_mixed_change_indices(self, rng):
        treated, _ = correlated_groups(rng)
        a = treated.mean(axis=0).copy()
        b = treated.mean(axis=0).copy()
        a[120:] += 5.0
        b[90:] += 5.0
        funnel = Funnel()
        batched = funnel.detect_batch(np.vstack([a, b]), [120, 90])
        assert batched[0] == funnel.detect(a, change_index=120)
        assert batched[1] == funnel.detect(b, change_index=90)

    def test_baseline_stats_override(self, rng):
        treated, _ = correlated_groups(rng)
        series = treated.mean(axis=0)
        series[120:] += 5.0
        funnel = Funnel()
        from repro.core.robust import median_and_mad
        stats = median_and_mad(series[:120])
        with_stats = funnel.detect_batch(series[None, :], [120],
                                         baseline_stats=[stats])
        without = funnel.detect_batch(series[None, :], [120])
        assert with_stats == without

    def test_invalid_change_index(self, rng):
        with pytest.raises(ParameterError):
            Funnel().detect_batch(rng.normal(size=(2, 100)), [50, 100])
