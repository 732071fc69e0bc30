"""The event-time scheduler: poll, drain, pool, close — on every tick.

One :meth:`EventTimeScheduler.tick` runs the live pipeline's control
loop for one virtual instant ``now``: **poll** admits due changes;
**drain** hands queued blocks to the assessor under the per-tick budget
(``max_fragments_per_tick``), trackers only buffering them; **pool**
scores every tracker's pending segment, across sessions, in one
:class:`~repro.live.pool.DetectorPool` pass and attributes and emits
declarations in pool order; **close** settles every session past its
deadline.  Drain, pool and close walk the sessions oldest change first,
so the session nearest its deadline is served first.  Then the health
gauges — worst watermark lag, queue depth, active changes and store
subscriptions — are set and a due checkpoint and the heartbeat written.
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

#: Wall seconds per tick stage: stage=poll|drain|pool|close|gauges (the
#: heartbeat included), stage=checkpoint with a checkpointer, and
#: stage=stream from the replay driver's append side.  ``repro obs
#: report`` renders these as the ingest-plane timing breakdown.
TICK_STAGE_SECONDS_METRIC = "repro_live_tick_stage_seconds_total"

#: ``(name, help)`` of the health gauges, in the order a tick sets them.
_GAUGES = (
    ("repro_live_queue_depth", "Fragments queued across sessions."),
    ("repro_live_peak_queue_depth", "Peak total queue depth."),
    ("repro_live_watermark_lag_seconds", "Worst per-change event-time lag."),
    ("repro_live_active_changes", "Changes currently under assessment."),
    ("repro_live_active_subscriptions",
     "Live subscriptions on the metric store."),
)


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
        #: the stage counter and the gauges, resolved at the first tick.
        self._handles: Optional[tuple] = None

    def tick(self, now: int) -> List[ChangeSession]:
        """Run one control-loop pass; returns the sessions closed."""
        clock = time.perf_counter
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
        if self._handles is None:
            self._handles = (self.metrics.counter(
                TICK_STAGE_SECONDS_METRIC,
                help="Wall seconds spent per tick stage."),
                [self.metrics.gauge(name, help=text)
                 for name, text in _GAUGES])
        stage_seconds, gauges = self._handles
        depth, lag = self._note_depth(), self.watermark_lag(now)
        for gauge, value in zip(gauges, (
                depth, self.peak_queue_depth, lag,
                len(self.watcher.sessions),
                self.store.subscription_count())):
            gauge.set(value)
        self.tick_count += 1
        t_gauges = t_checkpoint = clock()
        if self.checkpointer is not None:
            self.checkpointer.on_tick(now, self.tick_count)
            t_checkpoint = clock()
        if self.health is not None:
            self.health.on_tick(now, self.tick_count, t_checkpoint - t_0,
                                depth, lag)
        t_health = clock()
        stage_seconds.inc(t_poll - t_0, stage="poll")
        stage_seconds.inc(t_drain - t_poll, stage="drain")
        stage_seconds.inc(t_pool - t_drain, stage="pool")
        stage_seconds.inc(t_close - t_pool, stage="close")
        stage_seconds.inc(t_gauges - t_close + t_health - t_checkpoint,
                          stage="gauges")
        if self.checkpointer is not None:
            stage_seconds.inc(t_checkpoint - t_gauges, stage="checkpoint")
        return closed

    # -- draining --------------------------------------------------------------

    def _drain(self, sessions: List[ChangeSession], now: int) -> None:
        budget = self.config.max_fragments_per_tick
        remaining = budget if budget > 0 else 0
        for session in sessions:
            if budget > 0 and remaining <= 0:
                break
            queues = session.queues
            depth = queues.depth
            for batch in queues.drain_batches(budget=remaining):
                self.assessor.on_fragment_batch(session, batch, now)
            if budget > 0:
                remaining -= depth - queues.depth

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

    def _note_depth(self) -> int:
        depth = self.queue_depth()
        self.peak_queue_depth = max(self.peak_queue_depth, depth)
        return depth
