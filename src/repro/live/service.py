"""The live assessment service facade.

:class:`LiveAssessmentService` wires the subsystem together around one
metric store, change log and fleet: verdict bus → assessor → watcher →
event-time scheduler, all sharing one metrics registry (the observability
context's, when given, so live counters and gauges land in the same run
artifact as everything else).  Drive it with :meth:`on_tick` from
whatever advances time — the replay driver's simulation clock, or a real
ingestion loop.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..changes.log import ChangeLog
from ..obs.context import ObsContext
from ..obs.metrics import MetricsRegistry
from ..telemetry.store import MetricStore
from ..topology.entities import Fleet
from .assessor import ChangeSession, LiveAssessor
from .bus import VerdictBus
from .config import LiveConfig
from .scheduler import EventTimeScheduler
from .watcher import ChangeWatcher, StoreHistoryProvider

__all__ = ["LiveAssessmentService"]

CHANGE_SPAN = "live_change"


class LiveAssessmentService:
    """One live pipeline over a store, a change log and a fleet."""

    def __init__(self, store: MetricStore, log: ChangeLog, fleet: Fleet,
                 config: Optional[LiveConfig] = None,
                 obs: Optional[ObsContext] = None,
                 history_provider=None, checkpointer=None,
                 health=None) -> None:
        self.config = config or LiveConfig()
        self.obs = obs
        self.store = store
        self.metrics = obs.metrics if obs is not None else MetricsRegistry()
        self.bus = VerdictBus(self.metrics)
        if history_provider is None:
            history_provider = StoreHistoryProvider(store, self.config)
        self.assessor = LiveAssessor(self.config, self.bus, self.metrics,
                                     history_provider=history_provider,
                                     store=store)
        self.watcher = ChangeWatcher(log, fleet, store, self.assessor,
                                     self.config, self.metrics)
        self.scheduler = EventTimeScheduler(self.watcher, self.assessor,
                                            store, self.config, self.metrics)
        self.closed: List[ChangeSession] = []
        #: sessions a restored checkpoint had already closed — counted in
        #: :meth:`report` so a resumed run's summary matches end to end.
        self.restored_closed = 0
        #: optional :class:`~repro.obs.health.HealthMonitor`; attached
        #: before the checkpointer so a restored run heartbeats too.
        self.health = health
        if health is not None:
            health.attach(self)
        if checkpointer is not None:
            checkpointer.attach(self)

    # -- driving ---------------------------------------------------------------

    def on_tick(self, now: int) -> List[ChangeSession]:
        """Advance the pipeline to virtual time ``now``."""
        closed = self.scheduler.tick(now)
        for session in closed:
            self._record_change_span(session)
        self.closed.extend(closed)
        return closed

    def shutdown(self, now: int) -> List[ChangeSession]:
        """Force-close every session still open (end of stream)."""
        closed = []
        for session in list(self.watcher.sessions.values()):
            for batch in session.queues.drain_batches():
                self.assessor.on_fragment_batch(session, batch, now)
            self.assessor.reconcile_session(session, now)
            self.assessor.close_session(session, now)
            self.watcher.finish(session)
            self._record_change_span(session)
            closed.append(session)
        self.closed.extend(closed)
        if self.health is not None:
            self.health.finalize()
        return closed

    def _record_change_span(self, session: ChangeSession) -> None:
        if self.obs is None:
            return
        self.obs.tracer.record(
            CHANGE_SPAN,
            time.perf_counter() - session.started_perf,
            change_id=session.change_id,
            service=session.change.service,
            trackers=len(session.trackers),
            verdicts=session.verdicts,
            shed_fragments=session.queues.shed,
        )

    # -- reporting -------------------------------------------------------------

    def report(self) -> dict:
        """Operator summary: activity, verdicts, shedding, gauges."""
        counters = self.metrics.snapshot()["counters"]
        doc = {
            "active_changes": len(self.watcher.sessions),
            "closed_changes": len(self.closed) + self.restored_closed,
            "verdicts": len(self.bus),
            "shed_change_ids": list(self.watcher.shed_change_ids),
            "queue_depth": self.scheduler.queue_depth(),
            "peak_queue_depth": self.scheduler.peak_queue_depth,
            "counters": {name: sum(entry["value"]
                                   for entry in entries["values"])
                         for name, entries in counters.items()},
        }
        if self.health is not None:
            doc["health"] = self.health.summary()
        return doc
