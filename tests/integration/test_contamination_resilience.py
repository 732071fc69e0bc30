"""Baseline-contamination resilience — the section 3.2.5 design claims.

FUNNEL counters contaminated baselines with (1) a long (30-day)
historical control, so that a few polluted days are outvoted, and
(2) averaging over many control-group KPIs, so that hotspot servers or
odd peers do not dominate.  These tests inject the contamination and
check both mechanisms.
"""

import numpy as np

from repro.core.did import DiDEstimator, DiDPanel
from repro.core.funnel import Funnel
from repro.types import Verdict

from ..synthetic.contamination import contaminate_history_panel


def seasonal_day(rng, bins=240, base=200.0):
    t = np.arange(bins, dtype=float)
    profile = base * (1.0 + 0.4 * np.sin(2 * np.pi * (t + 300) / 1440.0))
    return profile + rng.normal(0, 3.0, size=bins)


class TestLongHistoricalBaseline:
    def _assess(self, rng, days, outage_fraction, effect=-60.0):
        today = seasonal_day(rng)
        today[120:] += effect
        history = np.vstack([seasonal_day(rng) for _ in range(days)])
        history = contaminate_history_panel(history, outage_fraction, rng)
        return Funnel().assess(today, 120, history=history)

    def test_clean_history_attributes_impact(self, rng):
        result = self._assess(rng, days=30, outage_fraction=0.0)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE

    def test_thirty_days_survive_contamination(self, rng):
        """With 30 days, 20% outage-polluted days are outvoted."""
        hits = 0
        for seed in range(6):
            local = np.random.default_rng(1000 + seed)
            result = self._assess(local, days=30, outage_fraction=0.2)
            hits += result.verdict is Verdict.CAUSED_BY_CHANGE
        assert hits >= 5

    def test_short_history_is_fragile(self, rng):
        """The same contamination rate hurts a 3-day baseline far more:
        the DiD estimate varies wildly with which days got polluted."""
        estimates_short, estimates_long = [], []
        for seed in range(8):
            local = np.random.default_rng(2000 + seed)
            short = self._assess(local, days=3, outage_fraction=0.3,
                                 effect=0.0)
            local = np.random.default_rng(2000 + seed)
            long = self._assess(local, days=30, outage_fraction=0.3,
                                effect=0.0)
            if short.did_estimate is not None:
                estimates_short.append(abs(short.did_estimate))
            if long.did_estimate is not None:
                estimates_long.append(abs(long.did_estimate))
        # No-change days: whatever was detected, the long baseline's
        # estimates are tighter around zero.
        if estimates_short and estimates_long:
            assert np.median(estimates_long) <= np.median(estimates_short)


class TestControlGroupAveraging:
    def test_hotspot_peers_do_not_flip_the_verdict(self, rng):
        """Section 3.2.4, observation 4: <3% of servers are hotspots;
        the control-group average dilutes them."""
        shared = 50.0 + rng.normal(0, 1.0, size=(26, 240))
        treated, control = shared[:2].copy(), shared[2:].copy()
        treated[:, 120:] += 8.0
        # One hotspot in the control group goes haywire post-change.
        control[0, 120:] += 40.0
        result = Funnel().assess(treated, 120, control=control)
        assert result.verdict is Verdict.CAUSED_BY_CHANGE

    def test_tiny_control_group_is_fragile(self, rng):
        """With only 2 peers, one hotspot dominates the control mean and
        the DiD estimate degrades — quantifying why the paper leans on
        large control groups."""
        shared = 50.0 + rng.normal(0, 1.0, size=(26, 240))
        treated = shared[:2].copy()
        treated[:, 120:] += 8.0
        estimator = DiDEstimator()

        def alpha_with(n_control):
            control = shared[2:2 + n_control].copy()
            control[0, 120:] += 40.0           # the hotspot
            panel = DiDPanel(treated[:, 100:120], treated[:, 140:160],
                             control[:, 100:120], control[:, 140:160])
            return estimator.fit(panel)[0].alpha

        small = alpha_with(2)
        large = alpha_with(24)
        # True effect: +8; the hotspot pushes the control mean up by
        # 40/n, biasing alpha down by the same amount.
        assert abs(large - 8.0) < abs(small - 8.0)
        assert abs(large - 8.0) < 3.0
