"""The change watcher: from change-log entries to live sessions.

:class:`ChangeWatcher` tails a :class:`~repro.changes.log.ChangeLog` in
event time.  When a change's deployment timestamp passes, it resolves
the impact set and builds one :class:`~repro.live.assessor.ChangeSession`
— a tracker (a row of its detector) per monitored (entity, KPI),
exactly the offline planner's job set, and peer-control rows — seeds
every KPI's watermark, backfills the pre-change baseline from the store
and subscribes the session's bounded queues to every future push.

Admission control caps concurrently assessed changes: at
``max_active_changes`` a new change is admitted only if its priority
(:func:`default_priority`, the blast radius) beats the lowest-priority
active change, which is evicted; otherwise the new change is shed
whole.  Either way a counter records it and the id lands on
``shed_change_ids``.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..changes.change import SoftwareChange
from ..changes.log import ChangeLog
from ..engine.planner import ENTITY_METRICS
from ..exceptions import TelemetryError
from ..obs.metrics import MetricsRegistry
from ..telemetry.kpi import KpiKey
from ..telemetry.store import MetricStore
from ..telemetry.timeseries import DAY, TimeSeries
from ..topology.entities import Fleet
from ..topology.impact import ImpactSet, identify_impact_set
from .assessor import ChangeSession, LiveAssessor
from .config import LiveConfig
from .queues import IngestQueues

__all__ = ["ChangeWatcher", "StoreHistoryProvider", "default_priority"]

ADMITTED_METRIC = "repro_live_changes_admitted_total"
SHED_CHANGES_METRIC = "repro_live_shed_changes_total"

def default_priority(change: SoftwareChange, impact: ImpactSet) -> float:
    """Blast radius: changes touching more servers matter more."""
    return float(len(impact.tservers))


class StoreHistoryProvider:
    """Historical-control rows read back from the metric store.

    The offline source's historical control: the same clock window on
    each of the previous ``history_days`` days, or ``None`` without full
    coverage (young deployments), which routes the attribution to the
    no-control verdict.  The replay driver uses a source-backed provider
    instead: the store's recent past holds earlier changes' impacts.
    """

    def __init__(self, store: MetricStore, config: LiveConfig) -> None:
        self.store = store
        self.config = config

    def __call__(self, change: SoftwareChange, entity_type: str, entity: str,
                 metric: str) -> Optional[np.ndarray]:
        if self.config.history_days < 1:
            return None
        binsec = self.store.bin_seconds
        window_start = change.at_time - self.config.baseline_bins * binsec
        length = (self.config.baseline_bins * binsec
                  + self.config.assessment_window_seconds)
        bins = length // binsec
        series = self.store.maybe_series(KpiKey(entity_type, entity, metric))
        if series is None:
            return None
        rows = []
        for day in range(1, self.config.history_days + 1):
            lo = window_start - day * DAY
            try:
                fragment = series.slice_time(lo, lo + length)
            except TelemetryError:
                return None
            if len(fragment) != bins:
                return None
            rows.append(fragment.values)
        return np.vstack(rows)


class ChangeWatcher:
    """Tails the change log; owns the set of in-flight sessions."""

    def __init__(self, log: ChangeLog, fleet: Fleet, store: MetricStore,
                 assessor: LiveAssessor, config: LiveConfig,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.log = log
        self.fleet = fleet
        self.store = store
        self.assessor = assessor
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.sessions: "dict[str, ChangeSession]" = {}
        self.shed_change_ids: List[str] = []
        self._seen: Set[str] = set()
        #: the log in ``at_time`` order; every change before the cursor
        #: has been seen.
        self._order: List[SoftwareChange] = []
        self._cursor = 0

    # -- polling ---------------------------------------------------------------

    def poll(self, now: int) -> List[ChangeSession]:
        """Admit every unseen change whose deployment time has passed, from
        a cursor; a grown log is re-sorted and walked from the start."""
        if len(self._order) != len(self.log):
            self._order, self._cursor = list(self.log), 0
        admitted = []
        for change in self._order[self._cursor:]:
            if change.at_time > now:
                break
            self._cursor += 1
            if change.change_id in self._seen:
                continue
            self._seen.add(change.change_id)
            session = self._admit(change, now)
            if session is not None:
                admitted.append(session)
        return admitted

    # -- admission -------------------------------------------------------------

    def _admit(self, change: SoftwareChange,
               now: int) -> Optional[ChangeSession]:
        impact = identify_impact_set(self.fleet, change.service,
                                     change.hostnames)
        priority = default_priority(change, impact)
        if (self.config.max_active_changes
                and len(self.sessions) >= self.config.max_active_changes):
            lowest = min(self.sessions.values(),
                         key=lambda s: (s.priority, -s.change.at_time,
                                        s.change_id))
            if priority <= lowest.priority:
                self._count_shed(change, "rejected")
                return None
            self._evict(lowest)

        queues = IngestQueues(self.config.queue_capacity, self.metrics)
        deadline = change.at_time + self.config.assessment_window_seconds
        session = ChangeSession(change, impact, priority, deadline, queues,
                                self.config)

        binsec = self.store.bin_seconds
        window_start = change.at_time - self.config.baseline_bins * binsec
        backfills, controls, trackers = [], [], []

        # Control rows first, so a backfilled treated series that
        # declares immediately finds its peer panel already populated.
        if impact.dark_launched:
            for entity_type, peers in (
                    ("server", impact.control_hostnames),
                    ("instance", tuple(i.name for i in impact.cinstances))):
                peers = peers[:self.config.max_control_units]
                for metric in ENTITY_METRICS.get(entity_type, ()):
                    group = [KpiKey(entity_type, peer, metric)
                             for peer in peers]
                    if not group:
                        continue
                    session.control_groups[(entity_type, metric)] = group
                    for key in group:
                        fragment = self._backfill(key, window_start, now)
                        start = (fragment.start if fragment is not None
                                 else now)
                        controls.append((key, start))
                        if fragment is not None and len(fragment):
                            backfills.append((key, fragment))

        for entity_type, entity in impact.monitored_entities():
            for metric in ENTITY_METRICS.get(entity_type, ()):
                key = KpiKey(entity_type, entity, metric)
                fragment = self._backfill(key, window_start, now)
                if fragment is not None and len(fragment):
                    start = fragment.start
                    change_index = max(
                        0, -((start - change.at_time) // binsec))
                    backfills.append((key, fragment))
                else:
                    start = now
                    change_index = 0
                trackers.append((key, change_index, start))

        session.add_controls(controls)
        session.add_trackers(trackers)
        for key, start in controls + [(key, start)
                                      for key, _, start in trackers]:
            session.seed(key, start)
        self.assessor.on_fragment_batch(session, backfills, now)

        session.subscription = self.store.subscribe(
            session.subscribed_keys(), queues.offer,
            batch_callback=queues.offer_batch)
        self.sessions[change.change_id] = session
        self.metrics.counter(
            ADMITTED_METRIC, help="Changes admitted to live assessment."
        ).inc()
        return session

    def _backfill(self, key: KpiKey, window_start: int,
                  now: int) -> Optional[TimeSeries]:
        series = self.store.maybe_series(key)
        if series is None:
            return None
        binsec = self.store.bin_seconds
        # Clamp-and-align both bounds onto the stored series' grid.
        lo = max(series.start, window_start)
        lo = series.start + ((lo - series.start + binsec - 1)
                             // binsec) * binsec
        hi = series.start + max(0, (now - series.start) // binsec) * binsec
        if hi <= lo:
            return None
        return series.slice_time(lo, hi)

    # -- shedding / teardown ---------------------------------------------------

    def _count_shed(self, change: SoftwareChange, policy: str) -> None:
        self.shed_change_ids.append(change.change_id)
        self.metrics.counter(
            SHED_CHANGES_METRIC,
            help="Whole changes shed by admission control.",
        ).inc(policy=policy)

    def _evict(self, session: ChangeSession) -> None:
        self.finish(session)
        self._count_shed(session.change, "evicted")

    def finish(self, session: ChangeSession) -> None:
        """Tear a session down: unsubscribe, drop queued fragments."""
        if session.subscription is not None:
            session.subscription.cancel()
            session.subscription = None
        session.queues.discard()
        self.sessions.pop(session.change_id, None)
