"""The live assessor: fragments in, attributed verdicts out.

One :class:`ChangeSession` exists per admitted software change.  It owns
the change's ingest queues, one :class:`KpiTracker` (an
:class:`~repro.live.detector.IncrementalDetector`) per monitored KPI,
and growing buffers for the peer-control series.  The
:class:`LiveAssessor` consumes drained fragments — a tick's drain as
one :meth:`LiveAssessor.on_fragment_batch`, a lone fragment through
:meth:`LiveAssessor.on_fragment`, the same healing step either way:
treated fragments are buffered by their tracker, the tick's pool stage
(:meth:`LiveAssessor.pool_score`) scores every tracker's pending segment
in one stacked call and, for each declaration that fires, the DiD
attribution of :meth:`repro.core.funnel.Funnel.attribute` runs on the
buffered panels — peers for dark launches on machine-level KPIs, the
history provider otherwise — and the verdict goes onto the bus.

Panel equivalence with the offline engine: the DiD panels only read
samples up to the declaration index (``post_hi = index + 1``), so
attributing at declaration time from buffers is bit-identical to the
offline engine slicing the full window.  When the declaring treated
series is momentarily ahead of a control buffer (its peers' fragments
for the same bin are still queued), the attribution parks on the
session's pending list and retries as control fragments land.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..changes.change import SoftwareChange
from ..core.funnel import Funnel
from ..exceptions import TelemetryError
from ..obs.health import VERDICT_LAG_BUCKETS, VERDICT_LAG_METRIC
from ..obs.metrics import MetricsRegistry
from ..telemetry.kpi import KpiKey
from ..telemetry.timeseries import TimeSeries
from ..topology.impact import ImpactSet
from ..types import DetectedChange
from .bus import LiveVerdict, VerdictBus
from .config import LiveConfig
from .detector import IncrementalDetector
from .pool import DetectorPool
from .queues import IngestQueues

__all__ = ["KpiTracker", "ChangeSession", "LiveAssessor"]

GAP_BINS_METRIC = "repro_live_gap_bins_total"
CONTROL_DROPPED_METRIC = "repro_live_control_rows_dropped_total"
DUPLICATE_FRAGMENTS_METRIC = "repro_live_duplicate_fragments_total"
REPAIRED_BINS_METRIC = "repro_live_repaired_bins_total"
RECONCILED_KEYS_METRIC = "repro_live_reconciled_keys_total"
FETCH_ATTEMPTS_METRIC = "repro_live_fetch_attempts_total"
FETCH_FAILURES_METRIC = "repro_live_fetch_failures_total"
DEGRADED_VERDICTS_METRIC = "repro_live_degraded_verdicts_total"

#: Sentinel for a history fetch attempt that failed (error or timeout).
_FETCH_FAILED = object()

ControlGroupKey = Tuple[str, str]  # (entity_type, metric)


class _SeriesBuffer:
    """A growable float column with its start time (control series)."""

    __slots__ = ("start", "values", "length", "degraded")

    def __init__(self, start: int) -> None:
        self.start = start
        self.values = np.empty(128, dtype=np.float64)
        self.length = 0
        self.degraded = False

    def extend(self, values: np.ndarray) -> None:
        needed = self.length + values.size
        if needed > self.values.size:
            grown = np.empty(max(2 * self.values.size, needed),
                             dtype=np.float64)
            grown[:self.length] = self.values[:self.length]
            self.values = grown
        self.values[self.length:needed] = values
        self.length = needed

    def view(self, n: int) -> np.ndarray:
        return self.values[:n]


class KpiTracker:
    """One monitored (entity, KPI) of one change."""

    def __init__(self, key: KpiKey, change_index: int, start_time: int,
                 config: LiveConfig) -> None:
        self.key = key
        self.start_time = start_time
        self.detector = IncrementalDetector(
            change_index, config.funnel,
            score_chunk_bins=config.score_chunk_bins,
            deferred_scoring=True)
        self.change_index = change_index
        self.degraded = False
        self.done = False
        self.declaration: Optional[DetectedChange] = None


class ChangeSession:
    """Everything the pipeline holds for one in-flight change."""

    def __init__(self, change: SoftwareChange, impact: ImpactSet,
                 priority: float, deadline: int,
                 queues: IngestQueues) -> None:
        self.change = change
        self.impact = impact
        self.priority = priority
        self.deadline = deadline
        self.queues = queues
        self.trackers: Dict[KpiKey, KpiTracker] = {}
        #: peer keys per (entity_type, metric), in the offline fetch order.
        self.control_groups: Dict[ControlGroupKey, List[KpiKey]] = {}
        self.control_buffers: Dict[KpiKey, _SeriesBuffer] = {}
        #: attributions waiting for control buffers to catch up.
        self.pending: List[KpiTracker] = []
        self.expected_next: Dict[KpiKey, int] = {}
        self.delivered_through: Dict[KpiKey, int] = {}
        self.subscription = None
        self.started_perf = time.perf_counter()
        self.verdicts = 0

    @property
    def change_id(self) -> str:
        return self.change.change_id

    def subscribed_keys(self) -> List[KpiKey]:
        return list(self.trackers) + list(self.control_buffers)

    @property
    def watermark(self) -> Optional[int]:
        """The event time every subscribed KPI is processed through."""
        if not self.delivered_through:
            return None
        return min(self.delivered_through.values())

    def open_trackers(self) -> List[KpiTracker]:
        return [t for t in self.trackers.values() if not t.done]


class LiveAssessor:
    """Routes drained fragments into trackers and attributes declarations."""

    def __init__(self, config: LiveConfig, bus: VerdictBus,
                 metrics: Optional[MetricsRegistry] = None,
                 history_provider=None, store=None,
                 clock=time.perf_counter, sleep=time.sleep) -> None:
        self.config = config
        self.bus = bus
        self.metrics = metrics or MetricsRegistry()
        self.funnel = Funnel(config.funnel)
        #: ``(change, entity_type, entity, metric) -> Optional[ndarray]``
        #: of historical-control rows; ``None`` provider (or return)
        #: routes the no-peer attribution to the uncontrolled verdict.
        self.history_provider = history_provider
        #: the durable metric store, for gap repair (``repair_from_store``).
        self.store = store
        #: wall-clock source for fetch timeout budgets (injectable).
        self.clock = clock
        #: backoff sleeper between fetch retries (injectable).
        self.sleep = sleep
        #: stacked cross-detector scorer the scheduler runs once per tick.
        self.pool = DetectorPool(self.metrics)

    # -- fragment routing ------------------------------------------------------

    def on_fragment(self, session: ChangeSession, key: KpiKey,
                    fragment: TimeSeries, now: int) -> None:
        """Route one delivered fragment (see :meth:`_heal`)."""
        self._heal(session, key, fragment, now)

    def on_fragment_batch(self, session: ChangeSession,
                          batch: List[Tuple[KpiKey, TimeSeries]],
                          now: int) -> None:
        """Route one drained tick batch, fragment by fragment in order.

        Deliberately not a loop over :meth:`on_fragment` (nor the other
        way round): a caller that counts fragments by wrapping both
        entries, as the benchmark's trace does, would count them twice.
        """
        for key, fragment in batch:
            self._heal(session, key, fragment, now)

    def _heal(self, session: ChangeSession, key: KpiKey,
              fragment: TimeSeries, now: int) -> None:
        """Deliver one fragment, healing a lossy push channel.

        The push stream is treated as at-least-once and possibly holey:
        an exact redelivery is dropped, an overlapping fragment is
        trimmed to its unseen suffix, and a fragment that skips ahead is
        either repaired from the durable store (``repair_from_store``)
        or degrades the item to a ``gap`` verdict as before.

        Deliveries are truncated at the session deadline: under a close
        grace (``close_grace_seconds``) late releases can carry bins
        beyond the assessment window, which must never reach a detector.
        """
        if fragment.start >= session.deadline:
            return
        if fragment.end > session.deadline:
            fragment = fragment.slice_time(fragment.start, session.deadline)
        expected = session.expected_next.get(key)
        if expected is not None:
            if fragment.end <= expected:
                # Full duplicate: every bin was already processed.
                self.metrics.counter(
                    DUPLICATE_FRAGMENTS_METRIC,
                    help="Redelivered fragments dropped or trimmed.",
                ).inc(kind="duplicate")
                return
            if fragment.start < expected:
                # Overlap: keep only the unseen suffix.
                self.metrics.counter(
                    DUPLICATE_FRAGMENTS_METRIC,
                    help="Redelivered fragments dropped or trimmed.",
                ).inc(kind="overlap")
                fragment = fragment.slice_time(expected, fragment.end)
            elif fragment.start > expected:
                patch = self._repair(key, expected, fragment.start)
                if patch is None:
                    self._mark_gap(session, key, fragment, expected)
                    session.delivered_through[key] = max(
                        session.delivered_through.get(key, fragment.end),
                        fragment.end)
                    session.expected_next[key] = fragment.end
                    return
                self._deliver(session, key, patch, now)
        self._deliver(session, key, fragment, now)

    def _repair(self, key: KpiKey, lo: int, hi: int) -> Optional[TimeSeries]:
        """The missing ``[lo, hi)`` range read back from the store."""
        if not self.config.repair_from_store or self.store is None:
            return None
        series = self.store.maybe_series(key)
        if series is None:
            return None
        try:
            patch = series.slice_time(lo, hi)
        except TelemetryError:
            return None
        if patch.start != lo or len(patch) != (hi - lo) // patch.bin_seconds:
            return None  # the store does not (yet) cover the hole
        self.metrics.counter(
            REPAIRED_BINS_METRIC,
            help="Bins recovered from the store after dropped pushes.",
        ).inc(len(patch))
        return patch

    def _deliver(self, session: ChangeSession, key: KpiKey,
                 fragment: TimeSeries, now: int) -> None:
        session.delivered_through[key] = max(
            session.delivered_through.get(key, fragment.end), fragment.end)
        session.expected_next[key] = fragment.end

        tracker = session.trackers.get(key)
        if tracker is not None:
            if not (tracker.done or tracker.degraded):
                # Buffers only: the tick's pool stage scores and declares.
                tracker.detector.extend(fragment.values)
            return

        buffer = session.control_buffers.get(key)
        if buffer is not None and not buffer.degraded:
            buffer.extend(fragment.values)
            if session.pending:
                self._retry_pending(session, now)

    # -- pooled scoring --------------------------------------------------------

    def pool_score(self, sessions: List[ChangeSession], now: int) -> int:
        """Score every open tracker's pending segment in one stacked call.

        The scheduler calls this once per tick, after the drain and
        before deadline closes: trackers buffered their fragments
        without scoring, so one
        :meth:`~repro.live.pool.DetectorPool.score_pending` pass here
        computes exactly the scores a standalone
        :class:`~repro.live.detector.IncrementalDetector` would have —
        bitwise — and every declaration is attributed in pool order.
        Returns the number of declarations found.
        """
        work: List[Tuple[ChangeSession, KpiTracker]] = []
        for session in sessions:
            for tracker in session.trackers.values():
                if (tracker.done or tracker.degraded
                        or tracker.declaration is not None):
                    continue
                work.append((session, tracker))
        if not work:
            return 0
        declared = self.pool.score_pending(
            [tracker.detector for _, tracker in work])
        for index, declaration in declared:
            session, tracker = work[index]
            tracker.declaration = declaration
            self._attribute(session, tracker, now)
        return len(declared)

    def _mark_gap(self, session: ChangeSession, key: KpiKey,
                  fragment: TimeSeries, expected: int) -> None:
        gap_bins = max(1, (fragment.start - expected)
                       // max(fragment.bin_seconds, 1))
        self.metrics.counter(
            GAP_BINS_METRIC,
            help="Bins lost to shed fragments, per subscribed KPI.",
        ).inc(gap_bins)
        tracker = session.trackers.get(key)
        if tracker is not None:
            tracker.degraded = True
        buffer = session.control_buffers.get(key)
        if buffer is not None:
            buffer.degraded = True

    # -- degraded-telemetry recovery -------------------------------------------

    def reconcile_session(self, session: ChangeSession, now: int) -> int:
        """Pull any store data the push channel never delivered.

        Called at session close (deadline or shutdown) when
        ``repair_from_store`` is on: a dropped *final* push has no later
        arrival to trigger inline repair, so the tail is read back from
        the store directly, capped at the session deadline so the live
        detector never sees past the assessment window.  Returns the
        number of keys that needed a catch-up read.
        """
        if not self.config.repair_from_store or self.store is None:
            return 0
        caught_up = 0
        for key in session.subscribed_keys():
            expected = session.expected_next.get(key)
            if expected is None:
                continue
            series = self.store.maybe_series(key)
            if series is None:
                continue
            hi = min(series.end, session.deadline)
            if hi <= expected:
                continue
            try:
                fragment = series.slice_time(expected, hi)
            except TelemetryError:
                continue
            if not len(fragment):
                continue
            self.metrics.counter(
                RECONCILED_KEYS_METRIC,
                help="Keys caught up from the store at session close.",
            ).inc()
            caught_up += 1
            self.on_fragment(session, key, fragment, now)
        return caught_up

    # -- history fetch (retry / timeout budget) --------------------------------

    def _fetch_history(self, session: ChangeSession,
                       tracker: KpiTracker) -> Tuple[Optional[np.ndarray],
                                                     bool]:
        """Historical-control rows with retry-with-backoff.

        Returns ``(rows, healthy)``: ``healthy`` is False only when the
        provider kept failing (errors or timeout-budget overruns) past
        ``fetch_retries`` — the caller then degrades the verdict
        annotation instead of crashing the pipeline.
        """
        if self.history_provider is None:
            return None, True
        attempts = self.config.fetch_retries + 1
        backoff = self.config.fetch_backoff_seconds
        budget = self.config.fetch_timeout_seconds
        for attempt in range(attempts):
            self.metrics.counter(
                FETCH_ATTEMPTS_METRIC,
                help="History-provider fetch attempts.").inc()
            started = self.clock()
            try:
                rows = self.history_provider(
                    session.change, tracker.key.entity_type,
                    tracker.key.entity, tracker.key.metric)
            except TelemetryError:
                rows = _FETCH_FAILED
                outcome = "error"
            else:
                if budget > 0 and self.clock() - started > budget:
                    rows = _FETCH_FAILED
                    outcome = "timeout"
            if rows is not _FETCH_FAILED:
                return rows, True
            self.metrics.counter(
                FETCH_FAILURES_METRIC,
                help="Failed history fetch attempts, by outcome.",
            ).inc(outcome=outcome)
            if attempt + 1 < attempts and backoff > 0:
                self.sleep(backoff)
                backoff *= 2
        return None, False

    # -- attribution -----------------------------------------------------------

    def _control_matrix(self, session: ChangeSession, tracker: KpiTracker
                        ) -> Tuple[Optional[np.ndarray], bool]:
        """The peer panel rows, or ``(None, wait)`` when unavailable.

        ``wait`` is True when peers exist but have not yet delivered the
        declaration bin — the caller should park the attribution and
        retry; False means there is genuinely no peer control.
        """
        group = session.control_groups.get(
            (tracker.key.entity_type, tracker.key.metric))
        if not group:
            return None, False
        rows: List[_SeriesBuffer] = []
        for peer_key in group:
            buffer = session.control_buffers[peer_key]
            if buffer.degraded or buffer.start != tracker.start_time:
                self.metrics.counter(
                    CONTROL_DROPPED_METRIC,
                    help="Peer-control rows unusable at attribution "
                         "time (gaps or misaligned backfill).").inc()
                continue
            rows.append(buffer)
        if not rows:
            return None, False
        need = tracker.declaration.index + 1
        length = min(buffer.length for buffer in rows)
        if length < need:
            return None, True
        return np.vstack([buffer.view(length) for buffer in rows]), False

    def _attribute(self, session: ChangeSession, tracker: KpiTracker,
                   now: int, force: bool = False) -> bool:
        """Run DiD for a declared tracker; False = parked as pending."""
        control, wait = self._control_matrix(session, tracker)
        if wait and not force:
            if tracker not in session.pending:
                session.pending.append(tracker)
            return False
        history = None
        degraded_notes: Tuple[str, ...] = ()
        if control is None and self.history_provider is not None:
            history, healthy = self._fetch_history(session, tracker)
            if not healthy:
                degraded_notes = (
                    "degraded: history unavailable after %d attempts"
                    % (self.config.fetch_retries + 1),)
                self.metrics.counter(
                    DEGRADED_VERDICTS_METRIC,
                    help="Verdicts attributed without a healthy "
                         "history fetch.").inc()
        assessment = self.funnel.attribute(
            tracker.detector.series, tracker.declaration,
            tracker.change_index, control=control, history=history)
        self._emit(session, tracker, now, LiveVerdict(
            change_id=session.change_id,
            entity_type=tracker.key.entity_type,
            entity=tracker.key.entity,
            metric=tracker.key.metric,
            verdict=assessment.verdict.value,
            reason="declared",
            emitted_at=now,
            declaration_bin=tracker.declaration.index,
            did_estimate=assessment.did_estimate,
            control=assessment.control,
            direction=tracker.declaration.direction,
            notes=tuple(assessment.notes) + degraded_notes,
        ))
        return True

    def _retry_pending(self, session: ChangeSession, now: int) -> None:
        still_waiting = []
        for tracker in session.pending:
            if tracker.done:
                continue
            if not self._attribute(session, tracker, now):
                still_waiting.append(tracker)
        session.pending = still_waiting

    def _emit(self, session: ChangeSession, tracker: KpiTracker, now: int,
              verdict: LiveVerdict) -> None:
        tracker.done = True
        session.verdicts += 1
        self.metrics.histogram(
            VERDICT_LAG_METRIC,
            help="Deployment-to-verdict latency in virtual seconds.",
            buckets=VERDICT_LAG_BUCKETS,
        ).observe(max(0, now - session.change.at_time))
        self.bus.publish(verdict)

    # -- close -----------------------------------------------------------------

    def close_session(self, session: ChangeSession, now: int) -> None:
        """Deadline close: flush detectors, settle every open tracker.

        One pooled pass (``score_pending(flush=True)``) flushes every
        unfinished tracker; those that declare in it are attributed
        (with whatever control rows exist — ``force=True`` falls back to
        history / no-control when the peers never caught up), the rest
        close as ``no_change``, with reason ``deadline`` or ``gap``.
        """
        trackers = session.open_trackers()
        unfinished = [tracker for tracker in trackers
                      if not tracker.degraded and tracker.declaration is None]
        for index, declared in self.pool.score_pending(
                [tracker.detector for tracker in unfinished], flush=True):
            unfinished[index].declaration = declared
        for tracker in trackers:
            if tracker.declaration is not None and not tracker.degraded:
                self._attribute(session, tracker, now, force=True)
                continue
            self._emit(session, tracker, now, LiveVerdict(
                change_id=session.change_id,
                entity_type=tracker.key.entity_type,
                entity=tracker.key.entity,
                metric=tracker.key.metric,
                verdict="no_change",
                reason="gap" if tracker.degraded else "deadline",
                emitted_at=now,
            ))
        session.pending = []
