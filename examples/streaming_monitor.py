#!/usr/bin/env python
"""Online monitoring: metric-store pushes driving incremental FUNNEL.

This is the deployment wiring of paper section 2.2: agents deliver
1-minute measurements to the central store, the store *pushes* them to
FUNNEL through a subscription, and the verdict is raised on the exact
bin that completes the evidence — no batch job, no polling.  It is the
live service (:mod:`repro.live`) cut down to its two working parts: an
:class:`~repro.live.IncrementalDetector` on the treated aggregate and
:meth:`~repro.core.funnel.Funnel.attribute` on the buffered panels.

Run:
    python examples/streaming_monitor.py
"""

import numpy as np

from repro.core import Funnel
from repro.live import IncrementalDetector
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import TimeSeries
from repro.types import Verdict


def main() -> None:
    rng = np.random.default_rng(21)
    n_treated, n_control, total_minutes, change_minute = 3, 9, 260, 130

    store = MetricStore()
    treated_keys = [KpiKey("server", "t-%d" % i, "latency_ms")
                    for i in range(n_treated)]
    control_keys = [KpiKey("server", "c-%d" % i, "latency_ms")
                    for i in range(n_control)]

    # FUNNEL subscribes: every append lands in a per-tick buffer; when a
    # tick is complete the detector consumes the treated aggregate.
    funnel = Funnel()
    detector = IncrementalDetector(change_minute, funnel.config)
    rows = {key: [] for key in treated_keys + control_keys}
    tick_buffer = {}
    verdict_holder = {}

    def on_push(key: KpiKey, fragment: TimeSeries) -> None:
        tick_buffer[key] = float(fragment.values[-1])
        if len(tick_buffer) < n_treated + n_control:
            return                      # wait for the tick to complete
        for k, value in tick_buffer.items():
            rows[k].append(value)
        tick_buffer.clear()
        treated = [rows[k] for k in treated_keys]
        declared = detector.extend([np.mean([row[-1] for row in treated])])
        if declared is not None:        # fires once
            outcome = funnel.attribute(
                treated, declared, change_minute,
                control=[rows[k] for k in control_keys])
            verdict_holder["result"] = (len(detector) - 1, outcome)

    store.subscribe(treated_keys + control_keys, on_push)

    # The "agents": shared load + per-server noise; the software change
    # at minute 130 regresses latency on the treated servers only.
    shared = 80.0 + rng.normal(0, 2.0, size=total_minutes)
    for minute in range(total_minutes):
        t = minute * 60
        for i, key in enumerate(treated_keys):
            value = shared[minute] + rng.normal(0, 1.0)
            if minute >= change_minute:
                value += 12.0            # the regression
            store.append(key, TimeSeries(t, 60, [value]))
        for key in control_keys:
            store.append(key, TimeSeries(t, 60,
                                         [shared[minute]
                                          + rng.normal(0, 1.0)]))

    assert "result" in verdict_holder, "the regression must be caught"
    minute, outcome = verdict_holder["result"]
    print("change deployed at minute:   %d" % change_minute)
    print("alert raised at minute:      %d (delay %d min)"
          % (minute, minute - change_minute))
    print("verdict:                     %s" % outcome.verdict.value)
    print("DiD impact:                  %+.1f robust sigmas"
          % outcome.did_estimate)
    print("change kind/direction:       %s / %+d"
          % (outcome.change.kind, outcome.change.direction))
    assert outcome.verdict is Verdict.CAUSED_BY_CHANGE


if __name__ == "__main__":
    main()
