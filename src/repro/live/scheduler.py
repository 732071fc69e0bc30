"""The event-time scheduler: poll, drain, pool, close — on every tick.

One :meth:`EventTimeScheduler.tick` runs the live pipeline's control
loop for one virtual instant ``now``:

1. **poll** — the watcher admits changes whose deployment time passed;
2. **drain** — queued fragments flow into the assessor under the global
   per-tick budget (``max_fragments_per_tick``), oldest change first so
   the session nearest its deadline gets served before fresher ones;
   trackers only buffer what they receive;
3. **pool** — every tracker's pending score segment, across all
   sessions, goes through one stacked
   :class:`~repro.live.pool.DetectorPool` pass; declarations are
   attributed and emitted here, in pool order;
4. **close** — every session whose deadline passed is settled: its
   detectors flush, open items emit ``no_change``, the subscription is
   cancelled.

Stages 2-4 walk the sessions oldest change first; the ordering is
computed once per tick, after the poll admitted the tick's arrivals.

Between steps the scheduler maintains the pipeline's event-time health
gauges: per-change *watermarks* (the oldest event time any subscribed
KPI is processed through), total and peak queue depth, active changes
and store subscriptions.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..obs.metrics import MetricsRegistry
from ..telemetry.store import MetricStore
from .assessor import ChangeSession, LiveAssessor
from .config import LiveConfig
from .watcher import ChangeWatcher

__all__ = ["EventTimeScheduler", "TICK_STAGE_SECONDS_METRIC"]

#: Wall seconds per tick stage (labels: stage=poll|drain|pool|close; the
#: replay driver adds stage=stream for its append side).  ``repro obs
#: report`` renders these as the ingest-plane timing breakdown.
TICK_STAGE_SECONDS_METRIC = "repro_live_tick_stage_seconds_total"

QUEUE_DEPTH_GAUGE = "repro_live_queue_depth"
PEAK_QUEUE_DEPTH_GAUGE = "repro_live_peak_queue_depth"
WATERMARK_LAG_GAUGE = "repro_live_watermark_lag_seconds"
ACTIVE_CHANGES_GAUGE = "repro_live_active_changes"
ACTIVE_SUBSCRIPTIONS_GAUGE = "repro_live_active_subscriptions"


class EventTimeScheduler:
    """Drives watcher, queues and assessor in virtual time."""

    def __init__(self, watcher: ChangeWatcher, assessor: LiveAssessor,
                 store: MetricStore, config: LiveConfig,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.watcher = watcher
        self.assessor = assessor
        self.store = store
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.peak_queue_depth = 0
        self.closed_count = 0
        self.tick_count = 0
        #: optional :class:`~repro.live.checkpoint.Checkpointer`; when
        #: attached, a snapshot is taken at the end of qualifying ticks.
        self.checkpointer = None
        #: optional :class:`~repro.obs.health.HealthMonitor`; when
        #: attached, one heartbeat record is emitted per tick.
        self.health = None

    def tick(self, now: int) -> List[ChangeSession]:
        """Run one control-loop pass; returns the sessions closed."""
        clock = time.perf_counter
        started = clock() if self.health is not None else 0.0
        t_0 = clock()
        self.watcher.poll(now)
        t_poll = clock()
        self._note_depth()  # ingest since the last tick
        sessions = sorted(self.watcher.sessions.values(),
                          key=lambda s: (s.change.at_time, s.change_id))
        self._drain(sessions, now)
        t_drain = clock()
        self.assessor.pool_score(sessions, now)
        t_pool = clock()
        closed = self._close_due(sessions, now)
        t_close = clock()
        stage_seconds = self.metrics.counter(
            TICK_STAGE_SECONDS_METRIC,
            help="Wall seconds spent per tick stage.")
        stage_seconds.inc(t_poll - t_0, stage="poll")
        stage_seconds.inc(t_drain - t_poll, stage="drain")
        stage_seconds.inc(t_pool - t_drain, stage="pool")
        stage_seconds.inc(t_close - t_pool, stage="close")
        self._update_gauges(now)
        self.tick_count += 1
        if self.checkpointer is not None:
            self.checkpointer.on_tick(now, self.tick_count)
        if self.health is not None:
            self.health.on_tick(now, self.tick_count,
                                time.perf_counter() - started)
        return closed

    # -- draining --------------------------------------------------------------

    def _drain(self, sessions: List[ChangeSession], now: int) -> None:
        budget = self.config.max_fragments_per_tick
        remaining = budget if budget > 0 else 0
        for session in sessions:
            if budget > 0 and remaining <= 0:
                break
            batch = list(session.queues.drain(budget=remaining))
            self.assessor.on_fragment_batch(session, batch, now)
            if budget > 0:
                remaining -= len(batch)

    # -- deadlines -------------------------------------------------------------

    def _close_due(self, sessions: List[ChangeSession],
                   now: int) -> List[ChangeSession]:
        closed = []
        grace = self.config.close_grace_seconds
        for session in sessions:
            if session.deadline + grace > now:
                continue
            self.assessor.reconcile_session(session, now)
            self.assessor.close_session(session, now)
            self.watcher.finish(session)
            closed.append(session)
        self.closed_count += len(closed)
        return closed

    # -- health ----------------------------------------------------------------

    def queue_depth(self) -> int:
        return sum(s.queues.depth for s in self.watcher.sessions.values())

    def watermark_lag(self, now: int) -> int:
        """Worst event-time lag across active sessions, in seconds."""
        lag = 0
        for session in self.watcher.sessions.values():
            watermark = session.watermark
            if watermark is not None:
                lag = max(lag, now - watermark)
        return lag

    def _note_depth(self) -> None:
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    self.queue_depth())

    def _update_gauges(self, now: int) -> None:
        self._note_depth()
        self.metrics.gauge(
            QUEUE_DEPTH_GAUGE, help="Fragments queued across sessions."
        ).set(self.queue_depth())
        self.metrics.gauge(
            PEAK_QUEUE_DEPTH_GAUGE, help="Peak total queue depth."
        ).set(self.peak_queue_depth)
        self.metrics.gauge(
            WATERMARK_LAG_GAUGE,
            help="Worst per-change event-time lag.").set(
            self.watermark_lag(now))
        self.metrics.gauge(
            ACTIVE_CHANGES_GAUGE, help="Changes currently under assessment."
        ).set(len(self.watcher.sessions))
        self.metrics.gauge(
            ACTIVE_SUBSCRIPTIONS_GAUGE,
            help="Live subscriptions on the metric store.").set(
            self.store.subscription_count())
