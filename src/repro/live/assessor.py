"""The live assessor: fragments in, attributed verdicts out.

One :class:`ChangeSession` per admitted change owns its ingest queues,
one :class:`KpiTracker` per monitored KPI — a row of the session's
:class:`~repro.live.detector.IncrementalDetector` — and a growing
peer-control matrix.  :meth:`LiveAssessor.on_fragment_batch` takes a drained
:class:`~repro.telemetry.store.Block` (checked once) or fragment pairs,
:meth:`LiveAssessor.on_fragment` a lone fragment; trackers only buffer,
the tick's pool stage (:meth:`LiveAssessor.pool_score`) scores every
pending segment in one stacked call, and one
:meth:`repro.core.funnel.Funnel.attribute_batch` call attributes its
declarations on the buffered panels — peers for dark launches on
machine-level KPIs, history otherwise — published in pool order.

The DiD panels only read samples up to the declaration index, so
attributing from buffers at declaration time is bit-identical to the
offline engine slicing the full window.  When peers' fragments for the
declaring bin are still queued, the attribution parks on the session's
pending list and retries as control fragments land.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..changes.change import SoftwareChange
from ..core.funnel import Funnel
from ..exceptions import TelemetryError
from ..obs.health import VERDICT_LAG_BUCKETS, VERDICT_LAG_METRIC
from ..obs.metrics import MetricsRegistry
from ..telemetry.kpi import KpiKey
from ..telemetry.store import Block
from ..telemetry.timeseries import TimeSeries
from ..topology.impact import ImpactSet
from ..types import DetectedChange
from .bus import LiveVerdict, VerdictBus
from .config import LiveConfig
from .detector import IncrementalDetector, RowMatrix
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

#: History fetch attempts before the assessor degrades the verdict.
FETCH_ATTEMPTS = 3

ControlGroupKey = Tuple[str, str]  # (entity_type, metric)

#: An event time not set yet.
UNSET = np.iinfo(np.int64).min


class _EventTimes:
    """One event time per session slot (:data:`UNSET` until first set)
    and the order slots were first set in, which a checkpoint lists."""

    __slots__ = ("times", "order")

    def __init__(self) -> None:
        self.times = np.zeros(0, dtype=np.int64)
        self.order: List[int] = []

    def get(self, slot: int) -> Optional[int]:
        time_ = int(self.times[slot])
        return None if time_ == UNSET else time_

    def set(self, slot: int, time_: int) -> None:
        if self.times[slot] == UNSET:
            self.order.append(slot)
        self.times[slot] = time_

    def as_dict(self, keys: List[KpiKey]) -> Dict[KpiKey, int]:
        return {keys[slot]: int(self.times[slot]) for slot in self.order}


class KpiTracker:
    """One monitored (entity, KPI) of one change: row ``row`` of its
    session's detector."""

    def __init__(self, key: KpiKey, row: int, change_index: int,
                 start_time: int) -> None:
        self.key = key
        self.row = row
        self.start_time = start_time
        self.change_index = change_index
        self.degraded = False
        self.done = False
        self.declaration: Optional[DetectedChange] = None


class ChangeSession:
    """Everything the pipeline holds for one in-flight change.

    Its trackers are the rows of one
    :class:`~repro.live.detector.IncrementalDetector`, its peer-control
    series the rows of one :class:`~repro.live.detector.RowMatrix`, and
    each subscribed KPI has a slot in the two watermark arrays, so a
    drained block that continues every watermark lands as one write per
    matrix (:meth:`deliver_block`).
    """

    def __init__(self, change: SoftwareChange, impact: ImpactSet,
                 priority: float, deadline: int, queues: IngestQueues,
                 config: LiveConfig) -> None:
        self.change = change
        self.impact = impact
        self.priority = priority
        self.deadline = deadline
        self.queues = queues
        self.trackers: Dict[KpiKey, KpiTracker] = {}
        #: the tracker of each detector row.
        self.by_row: List[KpiTracker] = []
        self.detector = IncrementalDetector(
            (), config.funnel, score_chunk_bins=config.score_chunk_bins)
        #: peer keys per (entity_type, metric), in the offline fetch order.
        self.control_groups: Dict[ControlGroupKey, List[KpiKey]] = {}
        #: peer-control series: each key's row and each row's start time.
        self.controls = RowMatrix()
        self.control_rows: Dict[KpiKey, int] = {}
        self.control_start: List[int] = []
        #: attributions waiting for control rows to catch up.
        self.pending: List[KpiTracker] = []
        self._keys: List[KpiKey] = []
        self._slots: Dict[KpiKey, int] = {}
        self._expected = _EventTimes()
        self._through = _EventTimes()
        #: the last block key tuple and its :meth:`_routes`.
        self._route_keys: Optional[tuple] = None
        self._route: tuple = ()
        self.subscription = None
        self.started_perf = time.perf_counter()
        self.verdicts = 0

    @property
    def change_id(self) -> str:
        return self.change.change_id

    def _add_slots(self, keys: List[KpiKey]) -> None:
        for key in keys:
            if key not in self._slots:
                self._slots[key] = len(self._keys)
                self._keys.append(key)
        for times in (self._expected, self._through):
            times.times = np.concatenate((times.times, np.full(
                len(self._keys) - times.times.size, UNSET)))

    def add_trackers(self, entries) -> List[KpiTracker]:
        """A tracker — a new detector row — per ``(key, change_index,
        start_time)`` entry."""
        rows = self.detector.add_rows([entry[1] for entry in entries])
        trackers = [KpiTracker(key, row, change_index, start_time)
                    for (key, change_index, start_time), row
                    in zip(entries, rows)]
        for tracker in trackers:
            self.trackers[tracker.key] = tracker
        self.by_row.extend(trackers)
        self._add_slots([tracker.key for tracker in trackers])
        return trackers

    def add_controls(self, entries) -> range:
        """A peer-control row per ``(key, start)`` entry."""
        rows = self.controls.add_rows(len(entries))
        for (key, start), row in zip(entries, rows):
            self.control_rows[key] = row
            self.control_start.append(start)
        self._add_slots([key for key, _ in entries])
        return rows

    def subscribed_keys(self) -> List[KpiKey]:
        return list(self.trackers) + list(self.control_rows)

    def open_trackers(self) -> List[KpiTracker]:
        return [t for t in self.trackers.values() if not t.done]

    # -- watermarks -----------------------------------------------------------

    @property
    def expected_next(self) -> Dict[KpiKey, int]:
        """Per KPI, the event time its next fragment starts at."""
        return self._expected.as_dict(self._keys)

    @property
    def delivered_through(self) -> Dict[KpiKey, int]:
        """Per KPI, the event time it is processed through."""
        return self._through.as_dict(self._keys)

    def next_expected(self, key: KpiKey) -> Optional[int]:
        return self._expected.get(self._slots[key])

    def seed(self, key: KpiKey, start: int) -> None:
        """Admission: ``key`` counts as processed through ``start``."""
        self._through.set(self._slots[key], start)

    def restore_watermarks(self, expected, through) -> None:
        """Set ``(key, time)`` pairs, each list in its first-set order."""
        for times, pairs in ((self._expected, expected),
                             (self._through, through)):
            for key, time_ in pairs:
                times.set(self._slots[key], time_)

    def advance(self, key: KpiKey, end: int) -> None:
        """``key`` delivered through ``end``; the processed-through time
        never moves back."""
        slot = self._slots[key]
        through = self._through.get(slot)
        if through is None or through <= end:
            self._through.set(slot, end)
        self._expected.set(slot, end)

    @property
    def watermark(self) -> Optional[int]:
        """The event time every subscribed KPI is processed through
        (admission seeds each KPI, so a silent one holds it back)."""
        seen = self._through
        if not seen.order:
            return None
        if len(seen.order) == seen.times.size:
            return int(seen.times.min())
        return int(seen.times[seen.order].min())

    # -- the block path -------------------------------------------------------

    def deliver_block(self, block: Block) -> bool:
        """Land ``block`` if it continues every key's watermark: one
        vector watermark update and one write per matrix.  False, with
        nothing written, otherwise."""
        if block.keys is not self._route_keys:
            self._route = self._routes(block.keys)
            self._route_keys = block.keys
        slots, tracked, rows, controlled, control_rows = self._route
        expected, through = self._expected.times, self._through.times
        if slots is None:           # the block names every subscribed KPI
            if expected.tolist().count(block.start) != expected.size:
                return False
            end = block.end
            expected.fill(end)
            np.maximum(through, end, out=through)
        else:
            if expected[slots].tolist().count(block.start) != slots.size:
                return False
            end = block.end
            expected[slots] = end
            through[slots] = np.maximum(through[slots], end)
        if rows.size:
            self.detector.extend(
                block.rows if tracked is None else block.rows[tracked], rows)
        if control_rows.size:
            self.controls.append(control_rows, block.rows[controlled])
        return True

    def _routes(self, keys: tuple) -> tuple:
        """``(slots — None for every one — tracker positions — None for
        all of them — tracker rows, control positions, control rows)`` of
        a block's keys (distinct, as the store validates)."""
        tracked, rows, controlled, control_rows = [], [], [], []
        for position, key in enumerate(keys):
            tracker = self.trackers.get(key)
            if tracker is not None:
                tracked.append(position)
                rows.append(tracker.row)
            elif key in self.control_rows:
                controlled.append(position)
                control_rows.append(self.control_rows[key])
        slots = np.array([self._slots[key] for key in keys], dtype=np.intp)
        return (None if slots.size == len(self._keys) else slots,
                None if len(tracked) == len(keys) else
                np.array(tracked, dtype=np.intp),
                np.array(rows, dtype=np.intp),
                np.array(controlled, dtype=np.intp),
                np.array(control_rows, dtype=np.intp))


class LiveAssessor:
    """Routes drained fragments into trackers and attributes declarations."""

    def __init__(self, config: LiveConfig, bus: VerdictBus,
                 metrics: Optional[MetricsRegistry] = None,
                 history_provider=None, store=None) -> None:
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
        #: stacked cross-detector scorer the scheduler runs once per tick.
        self.pool = DetectorPool(self.metrics)

    # -- fragment routing ------------------------------------------------------

    def on_fragment(self, session: ChangeSession, key: KpiKey,
                    fragment: TimeSeries, now: int) -> None:
        """Route one delivered fragment (see :meth:`_heal`)."""
        self._heal(session, key, fragment, now)

    def on_fragment_batch(self, session: ChangeSession,
                          batch: Iterable[Tuple[KpiKey, TimeSeries]],
                          now: int) -> None:
        """Route one drained :class:`Block`, or ``(key, fragment)`` pairs.

        A block is checked once: with no attribution parked, every row
        continuing its key's watermark and the block ending by the
        deadline, it lands as it stands
        (:meth:`ChangeSession.deliver_block`: one detector
        :meth:`~repro.live.detector.IncrementalDetector.extend` per
        block).  Otherwise — and for pairs — every row heals
        (:meth:`_heal`) in the batch's order.
        Deliberately not a loop over :meth:`on_fragment` (nor the other
        way round): a caller that counts fragments by wrapping both
        entries, as the benchmark's trace does, would count them twice.
        """
        if (type(batch) is Block and not session.pending
                and batch.start < batch.end <= session.deadline
                and session.deliver_block(batch)):
            return
        for key, fragment in batch:
            self._heal(session, key, fragment, now)

    def _heal(self, session: ChangeSession, key: KpiKey,
              fragment: TimeSeries, now: int) -> None:
        """Deliver one fragment, healing a lossy push channel.

        The push stream is at-least-once and possibly holey: an exact
        redelivery is dropped, an overlap trimmed to its unseen suffix,
        and a skip ahead repaired from the store (``repair_from_store``)
        or degraded to a ``gap`` verdict.  Deliveries are truncated at
        the session deadline: late releases under a close grace must
        never reach a detector.
        """
        start, end = fragment.start, fragment.end
        if start >= session.deadline:
            return
        if end > session.deadline:
            end = session.deadline
            fragment = fragment.slice_time(start, end)
        expected = session.next_expected(key)
        if expected is None or start == expected < end:
            pass    # in order: the common case, tested first
        elif start < expected or end <= expected:
            # Redelivered: drop a duplicate, trim an overlap's seen bins.
            duplicate = end <= expected
            self.metrics.counter(
                DUPLICATE_FRAGMENTS_METRIC,
                help="Redelivered fragments dropped or trimmed.",
            ).inc(kind="duplicate" if duplicate else "overlap")
            if duplicate:
                return
            fragment = fragment.slice_time(expected, end)
        else:
            patch = self._repair(key, expected, start)
            if patch is None:       # degraded: only the watermarks move
                self._mark_gap(session, key, fragment, expected)
            else:
                self._deliver(session, key, patch.values, patch.end, now)
        self._deliver(session, key, fragment.values, end, now)

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
                 values: np.ndarray, end: int, now: int) -> None:
        session.advance(key, end)
        tracker = session.trackers.get(key)
        if tracker is not None:
            # Buffers only (a done or degraded row keeps its length): the
            # tick's pool stage scores and declares.
            session.detector.extend(values, tracker.row)
            return

        row = session.control_rows.get(key)
        if row is not None and not session.controls.frozen[row]:
            session.controls.append(np.array([row]), values.reshape(1, -1))
            if session.pending:     # retry what waited for the peers
                session.pending = self._settle(
                    [(session, tracker) for tracker in session.pending
                     if not tracker.done], now)

    # -- pooled scoring --------------------------------------------------------

    def pool_score(self, sessions: List[ChangeSession], now: int) -> int:
        """Score every open tracker's pending segment in one stacked call.

        Once per tick, after the drain and before deadline closes: one
        :meth:`~repro.live.pool.DetectorPool.score_pending` pass over the
        sessions' detectors (a done, degraded or declared row sits it
        out) computes bitwise the scores a pass over each alone would, and
        attributes its declarations in one batch, publishing them in pool
        order.  Returns how many declared.
        """
        if not sessions:
            return 0
        declared = self.pool.score_pending(
            [session.detector for session in sessions])
        for index, row, declaration in declared:
            sessions[index].by_row[row].declaration = declaration
        if declared:
            self._settle([(sessions[index], sessions[index].by_row[row])
                          for index, row, _ in declared], now)
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
            session.detector.freeze(tracker.row)
        row = session.control_rows.get(key)
        if row is not None:
            session.controls.freeze(row)

    # -- degraded-telemetry recovery -------------------------------------------

    def reconcile_session(self, session: ChangeSession, now: int) -> int:
        """Pull any store data the push channel never delivered.

        At session close with ``repair_from_store`` on: a dropped *final*
        push has no later arrival to trigger inline repair, so the tail
        is read back from the store, capped at the deadline.  Returns
        the number of keys that needed a catch-up read.
        """
        if not self.config.repair_from_store or self.store is None:
            return 0
        caught_up = 0
        for key in session.subscribed_keys():
            expected = session.next_expected(key)
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

    # -- history fetch (retried) ----------------------------------------------

    def _fetch_history(self, session: ChangeSession,
                       tracker: KpiTracker) -> Tuple[Optional[np.ndarray],
                                                     bool]:
        """Historical-control rows, retried back to back on failure.

        Returns ``(rows, healthy)``: ``healthy`` is False only when the
        provider raised on all :data:`FETCH_ATTEMPTS` attempts — the
        caller then degrades the verdict annotation instead of crashing
        the pipeline.
        """
        for _ in range(FETCH_ATTEMPTS):
            self.metrics.counter(
                FETCH_ATTEMPTS_METRIC,
                help="History-provider fetch attempts.").inc()
            try:
                return self.history_provider(
                    session.change, tracker.key.entity_type,
                    tracker.key.entity, tracker.key.metric), True
            except TelemetryError:
                self.metrics.counter(
                    FETCH_FAILURES_METRIC,
                    help="Failed history fetch attempts, by outcome.",
                ).inc(outcome="error")
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
        controls, rows = session.controls, []
        for peer_key in group:
            row = session.control_rows[peer_key]
            if (controls.frozen[row]
                    or session.control_start[row] != tracker.start_time):
                self.metrics.counter(
                    CONTROL_DROPPED_METRIC,
                    help="Peer-control rows unusable at attribution "
                         "time (gaps or misaligned backfill).").inc()
                continue
            rows.append(row)
        if not rows:
            return None, False
        need = tracker.declaration.index + 1
        length = int(controls.length[rows].min())
        if length < need:
            return None, True
        return controls.planes[0][rows, :length], False

    def _settle(self, trackers: List[Tuple[ChangeSession, KpiTracker]],
                now: int, close: bool = False) -> List[KpiTracker]:
        """Publish a verdict for each of ``trackers`` in order; returns
        the ones parked.  A declared tracker is attributed — all in one
        :meth:`~repro.core.funnel.Funnel.attribute_batch` call — or parks
        while its peers lack its declaration bin; at a deadline ``close``
        it uses what exists, and an undeclared or degraded one closes as
        ``no_change``."""
        entries, items, parked = [], [], []
        for session, tracker in trackers:
            if close and (tracker.declaration is None or tracker.degraded):
                entries.append(LiveVerdict(
                    change_id=session.change_id,
                    entity_type=tracker.key.entity_type,
                    entity=tracker.key.entity, metric=tracker.key.metric,
                    verdict="no_change",
                    reason="gap" if tracker.degraded else "deadline",
                    emitted_at=now))
                continue
            control, wait = self._control_matrix(session, tracker)
            if wait and not close:
                if tracker not in session.pending:
                    session.pending.append(tracker)
                parked.append(tracker)
                entries.append(None)
                continue
            history, degraded_notes = None, ()
            if control is None and self.history_provider is not None:
                history, healthy = self._fetch_history(session, tracker)
                if not healthy:
                    degraded_notes = (
                        "degraded: history unavailable after %d attempts"
                        % FETCH_ATTEMPTS,)
                    self.metrics.counter(
                        DEGRADED_VERDICTS_METRIC,
                        help="Verdicts attributed without a healthy "
                             "history fetch.").inc()
            entries.append(degraded_notes)
            items.append((session.detector.series(tracker.row),
                          tracker.declaration, tracker.change_index,
                          control, history))
        assessments = iter(self.funnel.attribute_batch(items))
        for (session, tracker), entry in zip(trackers, entries):
            if type(entry) is tuple:        # attributed: its DiD verdict
                assessment, declared = next(assessments), tracker.declaration
                entry = LiveVerdict(
                    change_id=session.change_id,
                    entity_type=tracker.key.entity_type,
                    entity=tracker.key.entity, metric=tracker.key.metric,
                    verdict=assessment.verdict.value, reason="declared",
                    emitted_at=now, declaration_bin=declared.index,
                    did_estimate=assessment.did_estimate,
                    control=assessment.control, direction=declared.direction,
                    notes=tuple(assessment.notes) + entry)
            if entry is not None:
                self._emit(session, tracker, now, entry)
        return parked

    def _emit(self, session: ChangeSession, tracker: KpiTracker, now: int,
              verdict: LiveVerdict) -> None:
        tracker.done = True
        session.detector.freeze(tracker.row)
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

        One pooled pass (``score_pending(flush=True)`` over the session's
        detector) flushes every unfinished tracker; those that declare in
        it are attributed
        (with whatever control rows exist — a close falls back to
        history / no-control when the peers never caught up), the rest
        close as ``no_change``, with reason ``deadline`` or ``gap``.
        """
        trackers = session.open_trackers()
        for _, row, declared in self.pool.score_pending(
                [session.detector], flush=True):
            session.by_row[row].declaration = declared
        self._settle([(session, tracker) for tracker in trackers], now,
                     close=True)
        session.pending = []
