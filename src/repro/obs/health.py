"""Live-service health telemetry: heartbeat, SLOs, self-assessment.

The live assessor judges other people's software changes; this module
watches the assessor itself.  Three composable pieces, all off by
default and none of them on the verdict path (with health enabled the
verdict JSONL stays byte-identical to a health-off run):

* **Heartbeat stream** — a :class:`HealthMonitor` attached to a
  :class:`~repro.live.service.LiveAssessmentService` emits one
  structured JSONL record per scheduler tick (virtual time, per-change
  watermark lag, queue depth and sheds, pool fill ratio, verdict-lag
  histogram deltas, degraded/retry counters) through a
  :class:`HeartbeatWriter` — a bounded, non-blocking buffer that drops
  its oldest record (and counts the drop) rather than ever stalling the
  tick on a slow disk.
* **SLO tracking** — declarative :class:`Slo` objectives over heartbeat
  signals, evaluated by an :class:`SloTracker` with classic
  multi-window burn-rate alerting: an alert fires only when *both* a
  fast window (catches sharp regressions quickly) and a slow window
  (filters one-tick blips) exceed their bad-fraction thresholds, and a
  ``resolved`` record is emitted when the burn subsides.
* **Self-assessment** — FUNNEL scoring its host: a
  :class:`SelfAssessor` feeds the assessor's own per-tick KPIs through
  one :class:`~repro.live.detector.IncrementalDetector` per signal, so
  a mid-run fault or config regression shows up as a detected change on
  the service's *own* telemetry.  The default KPI set is restricted to
  signals that are constant in a healthy replay (ingest rate, watermark
  lag, queue depth, sheds); wall-clock tick duration is recorded on the
  heartbeat but excluded from detection, because timer noise would
  trigger false declarations on a fault-free run.

``repro obs health-report <heartbeat.jsonl>`` renders SLO attainment,
burn alerts, lag percentiles over time and self-assessment verdicts
from a recorded stream (:func:`load_heartbeat`,
:func:`build_health_report`, :func:`render_health_report`).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .metrics import MetricsRegistry

__all__ = [
    "HEARTBEAT_KIND", "ALERT_KIND", "DETECTION_KIND", "SUMMARY_KIND",
    "HEARTBEAT_DROPPED_METRIC", "VERDICT_LAG_METRIC", "VERDICT_LAG_BUCKETS",
    "DEFAULT_SLOS", "DEFAULT_SELF_KPIS",
    "HeartbeatWriter", "Slo", "SloTracker", "SelfAssessor",
    "HealthConfig", "HealthMonitor",
    "load_heartbeat", "build_health_report", "render_health_report",
]

#: Heartbeat-stream record kinds (one JSON object per line).
HEARTBEAT_KIND = "heartbeat"
ALERT_KIND = "slo_alert"
DETECTION_KIND = "self_detection"
SUMMARY_KIND = "health_summary"

HEARTBEAT_DROPPED_METRIC = "repro_health_heartbeat_dropped_total"

#: Deployment-to-verdict latency histogram, observed by the live
#: assessor on every emission (virtual seconds).  Buckets span five
#: minutes to a day; the live default assessment window is one hour.
VERDICT_LAG_METRIC = "repro_live_verdict_lag_seconds"
VERDICT_LAG_BUCKETS: Tuple[float, ...] = (
    300.0, 600.0, 1200.0, 2400.0, 3600.0, 7200.0,
    14400.0, 28800.0, 86400.0)


# -- the bounded heartbeat writer ---------------------------------------------

class HeartbeatWriter:
    """Bounded, non-blocking JSONL writer for health records.

    :meth:`offer` never touches the filesystem: records accumulate in a
    bounded in-memory ring and reach disk only on :meth:`flush` (the
    monitor flushes every few ticks) or :meth:`close`.  When the ring is
    full the *oldest* buffered record is dropped and counted — a stalled
    disk degrades the telemetry, never the assessment loop.
    """

    def __init__(self, path: str, capacity: int = 512,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = path
        self.capacity = max(1, capacity)
        self.metrics = metrics
        self.written = 0
        self.dropped = 0
        self._buffer: Deque[dict] = deque()
        self._fh = None

    def offer(self, doc: dict) -> bool:
        """Buffer one record; returns False when an old one was shed."""
        shed = len(self._buffer) >= self.capacity
        if shed:
            self._buffer.popleft()
            self.dropped += 1
            if self.metrics is not None:
                self.metrics.counter(
                    HEARTBEAT_DROPPED_METRIC,
                    help="Heartbeat records shed by the bounded writer.",
                ).inc()
        self._buffer.append(doc)
        return not shed

    def _open(self):
        if self._fh is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
        return self._fh

    def flush(self) -> int:
        """Write every buffered record out; returns how many."""
        if not self._buffer:
            return 0
        fh = self._open()
        n = 0
        while self._buffer:
            fh.write(json.dumps(self._buffer.popleft(), sort_keys=True)
                     + "\n")
            n += 1
        fh.flush()
        self.written += n
        return n

    def close(self) -> None:
        """Flush and close; the file exists even for an empty stream."""
        self._open()
        self.flush()
        self._fh.close()
        self._fh = None


# -- declarative SLOs ---------------------------------------------------------

@dataclass(frozen=True)
class Slo:
    """One objective over a heartbeat signal: ``signal op threshold``.

    A tick is *good* when the signal satisfies the comparison (or is
    not measurable that tick — absence of data is not a violation).
    """

    name: str
    signal: str
    op: str = "<="
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError("Slo op must be '<=' or '>=', got %r"
                             % (self.op,))

    def good(self, value) -> bool:
        if value is None:
            return True
        value = float(value)
        if self.op == "<=":
            return value <= self.threshold
        return value >= self.threshold

    def describe(self) -> str:
        return "%s %s %g" % (self.signal, self.op, self.threshold)


#: Objectives every live replay can be held to out of the box.
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo("verdict-lag-p99", "verdict_lag_p99_bins", "<=", 180.0),
    Slo("watermark-lag", "watermark_lag_bins", "<=", 30.0),
    Slo("shed-ratio", "shed_ratio", "<=", 0.05),
    Slo("queue-depth", "queue_depth", "<=", 4096.0),
)


class SloTracker:
    """Sliding-window SLO attainment with multi-window burn alerts.

    Each tick contributes one good/bad bit per objective to a fast and
    a slow sliding window.  An alert *fires* when the fast window is
    full and both windows' bad fractions exceed their burn thresholds
    — the standard multi-window burn-rate rule: the fast window gives
    low detection latency, the slow window keeps a single bad tick from
    paging.  A ``resolved`` event is emitted when the condition clears.
    """

    def __init__(self, slos: Tuple[Slo, ...] = DEFAULT_SLOS,
                 fast_window: int = 12, slow_window: int = 60,
                 fast_burn: float = 0.5, slow_burn: float = 0.2) -> None:
        self.slos = tuple(slos)
        self.fast_window = max(1, fast_window)
        self.slow_window = max(self.fast_window, slow_window)
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn
        self._fast: Dict[str, Deque[int]] = {
            slo.name: deque(maxlen=self.fast_window) for slo in self.slos}
        self._slow: Dict[str, Deque[int]] = {
            slo.name: deque(maxlen=self.slow_window) for slo in self.slos}
        self._good: Dict[str, int] = {slo.name: 0 for slo in self.slos}
        self._bad: Dict[str, int] = {slo.name: 0 for slo in self.slos}
        self._firing: Dict[str, bool] = {slo.name: False
                                         for slo in self.slos}
        self._fired: Dict[str, int] = {slo.name: 0 for slo in self.slos}

    def update(self, tick: int, values: dict) -> List[dict]:
        """Score one tick's signals; returns alert state transitions."""
        events: List[dict] = []
        for slo in self.slos:
            value = values.get(slo.signal)
            bad = 0 if slo.good(value) else 1
            fast = self._fast[slo.name]
            slow = self._slow[slo.name]
            fast.append(bad)
            slow.append(bad)
            if bad:
                self._bad[slo.name] += 1
            else:
                self._good[slo.name] += 1
            fast_frac = sum(fast) / len(fast)
            slow_frac = sum(slow) / len(slow)
            firing = (len(fast) == self.fast_window
                      and fast_frac >= self.fast_burn
                      and slow_frac >= self.slow_burn)
            if firing != self._firing[slo.name]:
                self._firing[slo.name] = firing
                if firing:
                    self._fired[slo.name] += 1
                events.append({
                    "kind": ALERT_KIND,
                    "tick": tick,
                    "slo": slo.name,
                    "objective": slo.describe(),
                    "state": "firing" if firing else "resolved",
                    "value": value,
                    "fast_bad_fraction": round(fast_frac, 4),
                    "slow_bad_fraction": round(slow_frac, 4),
                })
        return events

    def attainment(self) -> dict:
        """Per-objective good/bad tick counts and attainment fraction."""
        out = {}
        for slo in self.slos:
            good = self._good[slo.name]
            bad = self._bad[slo.name]
            total = good + bad
            out[slo.name] = {
                "objective": slo.describe(),
                "good_ticks": good,
                "bad_ticks": bad,
                "attainment": (round(good / total, 4) if total else None),
                "alerts_fired": self._fired[slo.name],
                "firing": self._firing[slo.name],
            }
        return out


# -- FUNNEL on FUNNEL ---------------------------------------------------------

#: Operational KPIs a healthy virtual-time replay holds constant, which
#: is what makes a zero-false-positive self-assessment possible: the
#: robust baseline has zero spread, so *any* operational deviation (an
#: agent outage, a scheduler stall, a shedding storm) is declared, while
#: a fault-free run declares nothing.  Wall-clock signals
#: (``tick_seconds``) are deliberately absent — timer noise is not an
#: incident.
DEFAULT_SELF_KPIS: Tuple[str, ...] = (
    "ingest_fragments", "watermark_lag_bins", "queue_depth",
    "shed_fragments")


class SelfAssessor:
    """The assessor's own KPIs pushed through incremental FUNNEL.

    One :class:`~repro.live.detector.IncrementalDetector` per KPI, one
    sample per scheduler tick.  ``baseline_ticks`` plays the role of
    the change index: the first that many ticks form the robust
    normalisation baseline, and only deviations starting after it are
    reportable — exactly the offline declaration filter.  A smaller
    ``omega`` than the KPI default keeps the detection lag short (the
    scorer needs ``2*omega - 1`` ticks of forward context).
    """

    def __init__(self, kpis: Tuple[str, ...] = DEFAULT_SELF_KPIS,
                 baseline_ticks: int = 60, omega: int = 5,
                 score_chunk: int = 4) -> None:
        # Imported here, not at module level: repro.live imports this
        # module for the verdict-lag metric constants.
        from ..core.funnel import FunnelConfig
        from ..core.rsst import ImprovedSSTParams
        from ..live.detector import IncrementalDetector

        self.baseline_ticks = max(1, baseline_ticks)
        config = FunnelConfig(sst=ImprovedSSTParams(omega=omega))
        self._detectors = {
            kpi: IncrementalDetector(self.baseline_ticks, config,
                                     score_chunk_bins=max(1, score_chunk))
            for kpi in kpis}
        self.detections: List[dict] = []

    def _record(self, kpi: str, declared, tick: int) -> dict:
        return {
            "kind": DETECTION_KIND,
            "kpi": kpi,
            "tick": tick,
            "declared_tick": declared.index,
            "start_tick": declared.start_index,
            "direction": declared.direction,
            "score": round(float(declared.score), 4),
        }

    def observe(self, tick: int, values: dict) -> List[dict]:
        """Feed one tick's KPI values; returns any fresh detections."""
        found: List[dict] = []
        for kpi, detector in self._detectors.items():
            if detector.declared is not None:
                continue
            value = float(values.get(kpi) or 0.0)
            declared = detector.extend(np.asarray([value]))
            if declared is not None:
                found.append(self._record(kpi, declared, tick))
        self.detections.extend(found)
        return found

    def finalize(self, tick: int) -> List[dict]:
        """Flush every detector (end of stream); returns late finds."""
        found: List[dict] = []
        for kpi, detector in self._detectors.items():
            if detector.declared is None:
                declared = detector.flush()
                if declared is not None:
                    found.append(self._record(kpi, declared, tick))
        self.detections.extend(found)
        return found


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class HealthConfig:
    """Knobs of the health telemetry loop (heartbeat, SLOs, self-scan).

    Attributes:
        heartbeat_path: JSONL file the heartbeat stream is written to;
            ``None`` keeps every record in memory only (summary still
            works — useful for tests and benches).
        buffer_records: the :class:`HeartbeatWriter` ring bound.
        flush_every_ticks: ticks between opportunistic writer flushes.
        slos: the declarative objectives to track.
        fast_window / slow_window: burn-rate window lengths, in ticks.
        fast_burn / slow_burn: bad-fraction thresholds per window.
        self_assess: run the FUNNEL-on-FUNNEL loop.
        self_kpis: heartbeat fields fed to the self detectors.
        self_baseline_ticks: normalisation baseline per self detector.
        self_omega: SST window of the self detectors (small = fast).
        self_score_chunk: ticks batched per self scoring call.
    """

    heartbeat_path: Optional[str] = None
    buffer_records: int = 512
    flush_every_ticks: int = 32
    slos: Tuple[Slo, ...] = DEFAULT_SLOS
    fast_window: int = 12
    slow_window: int = 60
    fast_burn: float = 0.5
    slow_burn: float = 0.2
    self_assess: bool = True
    self_kpis: Tuple[str, ...] = DEFAULT_SELF_KPIS
    self_baseline_ticks: int = 60
    self_omega: int = 5
    self_score_chunk: int = 4


# -- the monitor --------------------------------------------------------------

class HealthMonitor:
    """Per-tick health telemetry for one live assessment service.

    Attach to a :class:`~repro.live.service.LiveAssessmentService`
    (its constructor does it when given ``health=``); the event-time
    scheduler then calls :meth:`on_tick` at the end of every tick with
    the tick's wall-clock duration.  Everything here *reads* pipeline
    state — counters, gauges, session watermarks — and writes only to
    its own heartbeat stream, which is what keeps verdict output
    byte-identical with health on or off.
    """

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config or HealthConfig()
        self.writer = (HeartbeatWriter(self.config.heartbeat_path,
                                       self.config.buffer_records)
                       if self.config.heartbeat_path else None)
        self.slo_tracker = SloTracker(
            self.config.slos, fast_window=self.config.fast_window,
            slow_window=self.config.slow_window,
            fast_burn=self.config.fast_burn,
            slow_burn=self.config.slow_burn)
        self.self_assessor = (SelfAssessor(
            self.config.self_kpis,
            baseline_ticks=self.config.self_baseline_ticks,
            omega=self.config.self_omega,
            score_chunk=self.config.self_score_chunk)
            if self.config.self_assess else None)
        self.service = None
        self.metrics: Optional[MetricsRegistry] = None
        self.ticks = 0
        self.alerts: List[dict] = []
        self.heartbeats: List[dict] = []
        self.finalized = False
        self._counter_names: Dict[str, str] = {}
        self._last: Dict[str, float] = {}
        self._last_lag_counts: List[int] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, service) -> None:
        """Bind to ``service`` and hook the scheduler's tick loop."""
        from ..live.assessor import (DEGRADED_VERDICTS_METRIC,
                                     DUPLICATE_FRAGMENTS_METRIC,
                                     FETCH_FAILURES_METRIC, GAP_BINS_METRIC,
                                     REPAIRED_BINS_METRIC)
        from ..live.queues import FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC

        self.service = service
        self.metrics = service.metrics
        if self.writer is not None:
            self.writer.metrics = self.metrics
        self._counter_names = {
            "offered_fragments": FRAGMENTS_METRIC,
            "shed_fragments": SHED_FRAGMENTS_METRIC,
            "gap_bins": GAP_BINS_METRIC,
            "repaired_bins": REPAIRED_BINS_METRIC,
            "duplicate_fragments": DUPLICATE_FRAGMENTS_METRIC,
            "fetch_failures": FETCH_FAILURES_METRIC,
            "degraded_verdicts": DEGRADED_VERDICTS_METRIC,
        }
        service.scheduler.health = self

    # -- deltas ---------------------------------------------------------------

    def _total(self, name: str) -> float:
        metric = self.metrics.get(name)
        return float(metric.total()) if metric is not None else 0.0

    def _delta(self, field_name: str, value: float) -> float:
        previous = self._last.get(field_name, 0.0)
        self._last[field_name] = value
        return value - previous

    def _verdict_lag(self, bin_seconds: int) -> dict:
        """Histogram deltas + a cumulative p99, in bins."""
        hist = self.metrics.get(VERDICT_LAG_METRIC)
        counts: List[int] = []
        if hist is not None:
            row = hist.counts.get(())
            if row:
                counts = list(row)
        previous = self._last_lag_counts
        delta = [n - (previous[i] if i < len(previous) else 0)
                 for i, n in enumerate(counts)]
        self._last_lag_counts = counts
        p99 = hist.percentile(99) if hist is not None else None
        return {
            "count": int(sum(delta)),
            "bucket_delta": delta,
            "p99_bins": (round(p99 / bin_seconds, 2)
                         if p99 is not None else None),
        }

    # -- the tick hook --------------------------------------------------------

    def on_tick(self, now: int, tick: int,
                tick_seconds: float = 0.0) -> dict:
        """Record one heartbeat; returns the record (tests peek at it)."""
        service = self.service
        scheduler = service.scheduler
        bin_seconds = max(1, service.store.bin_seconds)
        self.ticks += 1

        watermark_lags: Dict[str, int] = {}
        for change_id in sorted(scheduler.watcher.sessions):
            session = scheduler.watcher.sessions[change_id]
            watermark = session.watermark
            if watermark is not None:
                watermark_lags[change_id] = max(0, now - watermark) \
                    // bin_seconds

        pool = service.assessor.pool
        pool_batches = self._delta("pool_batches", float(pool.batches))
        pool_series = self._delta("pool_series", float(pool.series))

        offered = self._delta("offered_fragments", self._total(
            self._counter_names["offered_fragments"]))
        shed = self._delta("shed_fragments", self._total(
            self._counter_names["shed_fragments"]))
        by_reason = dict(service.bus.published_by_reason)
        verdicts_by_reason = {
            reason: int(self._delta("verdicts_" + reason,
                                    float(count)))
            for reason, count in sorted(by_reason.items())}
        lag = self._verdict_lag(bin_seconds)

        record = {
            "kind": HEARTBEAT_KIND,
            "tick": tick,
            "now": now,
            "tick_seconds": round(tick_seconds, 6),
            "active_changes": len(scheduler.watcher.sessions),
            "queue_depth": scheduler.queue_depth(),
            "peak_queue_depth": scheduler.peak_queue_depth,
            "session_peak_queue_depth": max(
                (s.queues.peak_depth
                 for s in scheduler.watcher.sessions.values()),
                default=0),
            "watermark_lag_bins": max(watermark_lags.values(), default=0),
            "watermark_lags": watermark_lags,
            "ingest_fragments": int(self._delta(
                "ingest_fragments", float(
                    service.store.appended_fragments))),
            "ingest_bins": int(self._delta(
                "ingest_bins", float(service.store.appended_bins))),
            "offered_fragments": int(offered),
            "shed_fragments": int(shed),
            "shed_ratio": round(shed / offered, 4) if offered else 0.0,
            "verdicts": sum(verdicts_by_reason.values()),
            "verdicts_by_reason": verdicts_by_reason,
            "degraded_verdicts": int(self._delta(
                "degraded_verdicts", self._total(
                    self._counter_names["degraded_verdicts"]))),
            "fetch_failures": int(self._delta(
                "fetch_failures", self._total(
                    self._counter_names["fetch_failures"]))),
            "gap_bins": int(self._delta("gap_bins", self._total(
                self._counter_names["gap_bins"]))),
            "repaired_bins": int(self._delta(
                "repaired_bins", self._total(
                    self._counter_names["repaired_bins"]))),
            "duplicate_fragments": int(self._delta(
                "duplicate_fragments", self._total(
                    self._counter_names["duplicate_fragments"]))),
            "pool_batches": int(pool_batches),
            "pool_series": int(pool_series),
            "pool_fill": (round(pool_series / pool_batches, 2)
                          if pool_batches else None),
            "verdict_lag": lag,
            "verdict_lag_p99_bins": lag["p99_bins"],
        }

        events = self.slo_tracker.update(tick, record)
        self.alerts.extend(events)
        detections = (self.self_assessor.observe(tick, record)
                      if self.self_assessor is not None else [])

        self.heartbeats.append(record)
        if self.writer is not None:
            self.writer.offer(record)
            for doc in events + detections:
                self.writer.offer(doc)
            if self.ticks % max(1, self.config.flush_every_ticks) == 0:
                self.writer.flush()
        return record

    # -- shutdown -------------------------------------------------------------

    def finalize(self, now: Optional[int] = None) -> dict:
        """End of stream: flush self detectors, summarise, close file."""
        if self.finalized:
            return self.summary()
        self.finalized = True
        if self.self_assessor is not None:
            late = self.self_assessor.finalize(self.ticks)
            if self.writer is not None:
                for doc in late:
                    self.writer.offer(doc)
        summary = self.summary()
        if self.writer is not None:
            self.writer.offer(dict(summary, kind=SUMMARY_KIND))
            self.writer.close()
        return summary

    def summary(self) -> dict:
        """Operator summary, embedded in the service ``report()``."""
        detections = (list(self.self_assessor.detections)
                      if self.self_assessor is not None else [])
        return {
            "ticks": self.ticks,
            "slos": self.slo_tracker.attainment(),
            "alerts_fired": sum(1 for a in self.alerts
                                if a["state"] == "firing"),
            "self_detections": [
                {k: v for k, v in d.items() if k != "kind"}
                for d in detections],
            "heartbeat_path": self.config.heartbeat_path,
            "heartbeat_written": (self.writer.written
                                  if self.writer else 0),
            "heartbeat_dropped": (self.writer.dropped
                                  if self.writer else 0),
        }


# -- reading a heartbeat stream back ------------------------------------------

def load_heartbeat(path: str) -> List[dict]:
    """Read a heartbeat JSONL file; corrupt lines are skipped, not fatal
    (a killed run leaves a truncated final line behind)."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict):
                records.append(doc)
    return records


def _sample_over_time(heartbeats: List[dict], points: int = 12
                      ) -> List[dict]:
    """Evenly sampled lag trajectory for the percentiles-over-time view."""
    if not heartbeats:
        return []
    count = min(points, len(heartbeats))
    indices = sorted({round(i * (len(heartbeats) - 1) / max(1, count - 1))
                      for i in range(count)})
    out = []
    for i in indices:
        beat = heartbeats[i]
        out.append({
            "tick": beat.get("tick"),
            "verdict_lag_p99_bins": beat.get("verdict_lag_p99_bins"),
            "watermark_lag_bins": beat.get("watermark_lag_bins"),
            "queue_depth": beat.get("queue_depth"),
        })
    return out


def build_health_report(records: List[dict]) -> dict:
    """The dashboard-ready JSON document behind ``obs health-report``.

    Prefers the stream's own ``health_summary`` record (written at
    finalize); a stream from a killed run lacks one, so SLO attainment
    is then recomputed from the heartbeats under the default objectives.
    """
    heartbeats = [r for r in records if r.get("kind") == HEARTBEAT_KIND]
    alerts = [r for r in records if r.get("kind") == ALERT_KIND]
    detections = [r for r in records if r.get("kind") == DETECTION_KIND]
    summary = None
    for record in records:
        if record.get("kind") == SUMMARY_KIND:
            summary = record

    if summary is not None:
        slos = summary.get("slos", {})
        self_detections = summary.get("self_detections", [])
    else:
        tracker = SloTracker()
        for beat in heartbeats:
            tracker.update(beat.get("tick", 0), beat)
        slos = tracker.attainment()
        self_detections = [{k: v for k, v in d.items() if k != "kind"}
                           for d in detections]

    totals = {
        "verdicts": sum(b.get("verdicts", 0) for b in heartbeats),
        "shed_fragments": sum(b.get("shed_fragments", 0)
                              for b in heartbeats),
        "ingest_fragments": sum(b.get("ingest_fragments", 0)
                                for b in heartbeats),
        "degraded_verdicts": sum(b.get("degraded_verdicts", 0)
                                 for b in heartbeats),
    }
    p99s = [b["verdict_lag_p99_bins"] for b in heartbeats
            if b.get("verdict_lag_p99_bins") is not None]
    return {
        "ticks": len(heartbeats),
        "final_summary_present": summary is not None,
        "slos": slos,
        "alerts": alerts,
        "alerts_fired": sum(1 for a in alerts
                            if a.get("state") == "firing"),
        "self_detections": self_detections,
        "lag_over_time": _sample_over_time(heartbeats),
        "verdict_lag_p99_bins_final": (p99s[-1] if p99s else None),
        "totals": totals,
        "heartbeat_dropped": (summary or {}).get("heartbeat_dropped", 0),
    }


def render_health_report(report: dict) -> str:
    """ASCII rendering of :func:`build_health_report`."""
    lines = []
    lines.append("Live-service health (%d heartbeats%s)"
                 % (report["ticks"],
                    "" if report["final_summary_present"]
                    else ", no final summary — truncated run?"))
    lines.append("")
    lines.append("SLO attainment")
    slos = report.get("slos", {})
    if slos:
        for name in sorted(slos):
            doc = slos[name]
            attainment = doc.get("attainment")
            lines.append(
                "  %-18s %-32s %8s  (%d bad ticks, %d alerts%s)"
                % (name, doc.get("objective", ""),
                   ("%.2f%%" % (100 * attainment)
                    if attainment is not None else "n/a"),
                   doc.get("bad_ticks", 0), doc.get("alerts_fired", 0),
                   ", FIRING" if doc.get("firing") else ""))
    else:
        lines.append("  (none tracked)")
    lines.append("")
    lines.append("Burn alerts: %d fired" % report["alerts_fired"])
    for alert in report.get("alerts", []):
        lines.append("  tick %-6s %-10s %-18s fast=%s slow=%s"
                     % (alert.get("tick"), alert.get("state"),
                        alert.get("slo"),
                        alert.get("fast_bad_fraction"),
                        alert.get("slow_bad_fraction")))
    lines.append("")
    lines.append("Verdict lag p99 over time (bins)")
    for point in report.get("lag_over_time", []):
        lines.append("  tick %-6s p99=%-8s watermark=%-4s depth=%s"
                     % (point.get("tick"),
                        point.get("verdict_lag_p99_bins"),
                        point.get("watermark_lag_bins"),
                        point.get("queue_depth")))
    lines.append("")
    detections = report.get("self_detections", [])
    lines.append("Self-assessment: %d detection%s"
                 % (len(detections),
                    "" if len(detections) == 1 else "s"))
    for doc in detections:
        lines.append(
            "  %-22s declared at tick %-5s (start %s, direction %+d)"
            % (doc.get("kpi"), doc.get("declared_tick"),
               doc.get("start_tick"), doc.get("direction", 0)))
    if report.get("heartbeat_dropped"):
        lines.append("")
        lines.append("WARNING: %d heartbeat records shed by the bounded "
                     "writer" % report["heartbeat_dropped"])
    return "\n".join(lines) + "\n"
