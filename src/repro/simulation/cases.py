"""The two operational case studies — paper section 5, Figs. 6 and 7.

**Redis load balancing (section 5.1, Fig. 6).**  A configuration change
in the Redis query service rebalanced traffic from the saturated
class A servers to the underused class B servers: FUNNEL determined that
16 of the 118 KPIs in the impact set changed — NIC throughput shifted
*down* on class A and *up* on class B — validating the expected outcome
despite NIC throughput's strong natural variability.

**Advertising anti-cheat incident (section 5.2, Fig. 7).**  A software
upgrade broke the anti-cheating JSON check on iPhone browsers, so every
iPhone click was classified as a cheat: the (strongly seasonal)
effective-click count dropped sharply at the upgrade and recovered
1.5 hours later when the operations team fixed it.  FUNNEL detected the
change within ~10 minutes; manual assessment had taken 1.5 hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.funnel import Funnel, FunnelConfig
from ..synthetic.effects import LevelShift, TransientDip
from ..synthetic.patterns import SeasonalPattern, VariablePattern
from ..telemetry.timeseries import DAY, MINUTE
from ..types import Assessment

__all__ = ["RedisCaseResult", "redis_case", "AdvertisingCaseResult",
           "advertising_case"]


@dataclass(frozen=True)
class RedisCaseResult:
    """Everything the Fig. 6 bench needs."""

    class_a_example: np.ndarray
    class_b_example: np.ndarray
    change_index: int
    flagged: Tuple[str, ...]
    directions: Dict[str, int]
    total_kpis: int

    @property
    def flagged_count(self) -> int:
        return len(self.flagged)


def redis_case(seed: int = 42,
               funnel_config: Optional[FunnelConfig] = None) -> RedisCaseResult:
    """Reproduce the Redis load-balancing case (Fig. 6).

    Builds an impact set of 8 class A NICs, 8 class B NICs and 102
    unaffected KPIs (118, matching the paper).  The configuration
    change moves 35% of class A's NIC throughput over to class B after
    240 minutes of a 480-minute window; the change is applied to the
    whole service at once, so FUNNEL uses the 30-day historical control.
    """
    rng = np.random.default_rng(seed)
    funnel = Funnel(funnel_config)
    n_bins = 480
    change_index = 240
    n_class_a = n_class_b = 8
    n_unaffected_kpis = 102
    start = 100 * DAY + 10 * 3600            # mid-morning, a weekday

    flagged: List[str] = []
    directions: Dict[str, int] = {}
    example_a: Optional[np.ndarray] = None
    example_b: Optional[np.ndarray] = None

    def history_for(pattern):
        rows = []
        for day in range(1, 31):
            ts = (start - day * DAY
                  + np.arange(n_bins, dtype=np.int64) * MINUTE)
            rows.append(pattern.sample(ts, rng))
        return np.vstack(rows)

    timestamps = start + np.arange(n_bins, dtype=np.int64) * MINUTE

    def assess_server(name: str, busy: bool, shift: float) -> None:
        nonlocal example_a, example_b
        level = 90.0 if busy else 30.0        # class A NICs run near capacity
        pattern = VariablePattern(level=level, lognormal_sigma=0.12,
                                  spike_rate=0.01, spike_magnitude=0.8)
        series = pattern.sample(timestamps, rng)
        if shift:
            series = LevelShift(start=change_index,
                                magnitude=shift).apply(series)
        history = history_for(pattern)
        result = funnel.assess(series, change_index, history=history)
        if result.positive:
            flagged.append(name)
            directions[name] = result.change.direction
        if busy and example_a is None and shift:
            example_a = series
        if not busy and example_b is None and shift:
            example_b = series

    shift_amount = 0.35 * 90.0
    for i in range(n_class_a):
        assess_server("redis-a-%02d:nic_throughput" % i, busy=True,
                      shift=-shift_amount)
    for i in range(n_class_b):
        assess_server("redis-b-%02d:nic_throughput" % i, busy=False,
                      shift=+shift_amount)

    # The remaining KPIs of the impact set (CPU, memory, latency of the
    # query instances...) are unaffected by the rebalancing.
    for i in range(n_unaffected_kpis):
        pattern = VariablePattern(
            level=float(rng.uniform(20.0, 80.0)),
            lognormal_sigma=0.15, spike_rate=0.01, spike_magnitude=1.0,
        )
        series = pattern.sample(timestamps, rng)
        history = history_for(pattern)
        result = funnel.assess(series, change_index, history=history)
        if result.positive:
            flagged.append("redis-other-%03d" % i)
            directions["redis-other-%03d" % i] = result.change.direction

    return RedisCaseResult(
        class_a_example=example_a,
        class_b_example=example_b,
        change_index=change_index,
        flagged=tuple(flagged),
        directions=directions,
        total_kpis=n_class_a + n_class_b + n_unaffected_kpis,
    )


@dataclass(frozen=True)
class AdvertisingCaseResult:
    """Everything the Fig. 7 bench needs."""

    clicks: np.ndarray
    change_index: int
    recovery_index: int
    assessment: Assessment
    detection_delay_minutes: Optional[int]
    manual_delay_minutes: int = 90

    @property
    def detected_within_10_minutes(self) -> bool:
        return (self.detection_delay_minutes is not None
                and self.detection_delay_minutes <= 10)


def advertising_case(seed: int = 7,
                     funnel_config: Optional[FunnelConfig] = None
                     ) -> AdvertisingCaseResult:
    """Reproduce the advertising anti-cheat incident (Fig. 7).

    Generates 6 days of the strongly seasonal effective-clicks KPI,
    drops it by 60% at a mid-day software upgrade, recovers it 90
    minutes later (the manual fix), and runs FUNNEL with the 30-day
    historical control.
    """
    days_of_context, outage_minutes = 6, 90
    rng = np.random.default_rng(seed)
    if funnel_config is None:
        # Advertising is a change-sensitive service: the paper's
        # quick-mitigation configuration (section 3.2.3) uses omega = 5,
        # which is what lets FUNNEL beat the 10-minute mark here.
        from ..core.rsst import ImprovedSSTParams
        funnel_config = FunnelConfig(sst=ImprovedSSTParams(omega=5))
    funnel = Funnel(funnel_config)
    pattern = SeasonalPattern(
        base=1000.0, daily_amplitude=0.65, noise_sigma=18.0,
        weekend_factor=0.9,
        daily_events=((11 * 3600, 13 * 3600, 0.25),),
    )

    upgrade_day_start = 200 * DAY
    upgrade_second = 14 * 3600 + 23 * MINUTE         # 14:23, near peak
    series_start = upgrade_day_start - (days_of_context - 1) * DAY
    total_bins = days_of_context * DAY // MINUTE
    timestamps = series_start + np.arange(total_bins, dtype=np.int64) * MINUTE
    clicks = pattern.sample(timestamps, rng)

    change_index = (upgrade_day_start + upgrade_second - series_start) \
        // MINUTE
    drop = 0.6 * pattern.profile(
        [upgrade_day_start + upgrade_second])[0]
    clicks = TransientDip(start=change_index, magnitude=drop,
                          duration=outage_minutes).apply(clicks)

    history = np.vstack([
        pattern.sample(
            np.asarray(timestamps[change_index - 120:change_index + 120])
            - day * DAY, rng)
        for day in range(1, 31)
    ])
    window = clicks[change_index - 120:change_index + 120]
    assessment = funnel.assess(window, 120, history=history)

    delay = None
    if assessment.change is not None:
        delay = assessment.change.index - 120

    return AdvertisingCaseResult(
        clicks=clicks,
        change_index=change_index,
        recovery_index=change_index + outage_minutes,
        assessment=assessment,
        detection_delay_minutes=delay,
    )
