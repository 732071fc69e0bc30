"""Live-service health telemetry: heartbeat, SLOs, self-assessment.

The live assessor judges other people's software changes; this module
watches the assessor itself.  Three composable pieces, all off by
default and none of them on the verdict path (with health enabled the
verdict JSONL stays byte-identical to a health-off run):

* **Heartbeat stream** — a :class:`HealthMonitor` attached to a
  :class:`~repro.live.service.LiveAssessmentService` emits one
  12-field JSONL record per scheduler tick (virtual time, tick seconds,
  queue depth, worst watermark lag, ingest / shed / verdict deltas and
  the verdict-lag p99) — the signals the SLOs, the self-assessor and
  the health report read; everything else lives in the metrics
  registry — through a :class:`HeartbeatWriter`, a bounded,
  non-blocking buffer that drops its oldest record (and counts the
  drop) rather than ever stalling the tick on a slow disk.
* **SLO tracking** — declarative :class:`Slo` objectives over heartbeat
  signals, evaluated by an :class:`SloTracker` with classic
  multi-window burn-rate alerting: an alert fires only when *both* a
  fast window (catches sharp regressions quickly) and a slow window
  (filters one-tick blips) exceed their bad-fraction thresholds, and a
  ``resolved`` record is emitted when the burn subsides.
* **Self-assessment** — a :class:`SelfAssessor` holds the assessor's
  own per-tick KPIs to the paper's persistence rule against a fixed
  baseline, so a mid-run fault or config regression shows up as a
  detected change on the service's *own* telemetry.  Its KPIs are
  signals constant in a healthy replay (ingest rate, watermark lag,
  queue depth, sheds); wall-clock tick duration is on the heartbeat
  but not assessed: timer noise would declare on a fault-free run.

``repro obs health-report <heartbeat.jsonl>`` renders SLO attainment,
burn alerts, lag percentiles over time and self-assessment detections
from a recorded stream (:func:`load_heartbeat`,
:func:`build_health_report`, :func:`render_health_report`).
"""

from __future__ import annotations

import json
import os
import statistics
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.robust import MAD_TO_SIGMA, median_and_mad
from ..core.scoring import EPSILON, ChangeDeclarationPolicy
from .metrics import MetricsRegistry

__all__ = [
    "HEARTBEAT_KIND", "ALERT_KIND", "DETECTION_KIND", "SUMMARY_KIND",
    "HEARTBEAT_DROPPED_METRIC", "VERDICT_LAG_METRIC", "VERDICT_LAG_BUCKETS",
    "DEFAULT_SLOS", "DEFAULT_SELF_KPIS",
    "HeartbeatWriter", "Slo", "SloTracker", "SelfAssessor", "HealthMonitor",
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
    bounded in-memory ring of ``CAPACITY`` records and reach disk
    only on :meth:`flush` (the monitor flushes every few ticks) or
    :meth:`close`.  When the ring is full the *oldest* buffered record is
    dropped and counted — a stalled disk degrades the telemetry, never
    the assessment loop.  :meth:`close` is idempotent, and a closed
    writer ignores later offers: the stream on disk is final.
    """

    #: the ring bound, in records.
    CAPACITY = 512

    def __init__(self, path: str,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = path
        self.metrics = metrics
        self.written = 0
        self.dropped = 0
        self.closed = False
        self._buffer: Deque[dict] = deque()
        self._fh = None

    def offer(self, doc: dict) -> bool:
        """Buffer one record; returns False when an old one was shed, or
        when the writer is closed and ``doc`` was dropped."""
        if self.closed:
            return False
        shed = len(self._buffer) >= self.CAPACITY
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
        """Flush and close; the file exists even for an empty stream.
        A second close is a no-op (reopening would truncate the file)."""
        if self.closed:
            return
        self._open()
        self.flush()
        self._fh.close()
        self._fh = None
        self.closed = True


# -- declarative SLOs ---------------------------------------------------------

@dataclass(frozen=True)
class Slo:
    """One objective over a heartbeat signal: ``signal <= threshold``.

    A tick is *good* when the signal is at most the threshold (or is
    not measurable that tick — absence of data is not a violation).
    """

    name: str
    signal: str
    threshold: float

    def good(self, value) -> bool:
        return value is None or float(value) <= self.threshold

    def describe(self) -> str:
        return "%s <= %g" % (self.signal, self.threshold)


#: The objectives every live replay is held to.
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo("verdict-lag-p99", "verdict_lag_p99_bins", 180.0),
    Slo("watermark-lag", "watermark_lag_bins", 30.0),
    Slo("shed-ratio", "shed_ratio", 0.05),
    Slo("queue-depth", "queue_depth", 4096.0),
)


class SloTracker:
    """Sliding-window attainment of :data:`DEFAULT_SLOS` with
    multi-window burn alerts.

    Each tick contributes one good/bad bit per objective to a fast and
    a slow sliding window (``FAST_WINDOW``, ``SLOW_WINDOW`` ticks).  An
    alert *fires* when the fast window is full and both windows' bad
    fractions reach their burn thresholds (``FAST_BURN``,
    ``SLOW_BURN``) — the standard multi-window burn-rate rule: the fast
    window gives low detection latency, the slow window keeps a single
    bad tick from paging.  A ``resolved`` event is emitted when the
    condition clears.
    """

    FAST_WINDOW, SLOW_WINDOW = 12, 60
    FAST_BURN, SLOW_BURN = 0.5, 0.2

    def __init__(self) -> None:
        names = [slo.name for slo in DEFAULT_SLOS]
        self._fast: Dict[str, Deque[int]] = {
            name: deque(maxlen=self.FAST_WINDOW) for name in names}
        self._slow: Dict[str, Deque[int]] = {
            name: deque(maxlen=self.SLOW_WINDOW) for name in names}
        #: the bad ticks in each window, kept as the windows slide.
        self._fast_bad: Dict[str, int] = dict.fromkeys(names, 0)
        self._slow_bad: Dict[str, int] = dict.fromkeys(names, 0)
        self._good: Dict[str, int] = dict.fromkeys(names, 0)
        self._bad: Dict[str, int] = dict.fromkeys(names, 0)
        self._firing: Dict[str, bool] = dict.fromkeys(names, False)
        self._fired: Dict[str, int] = dict.fromkeys(names, 0)

    def update(self, tick: int, values: dict) -> List[dict]:
        """Score one tick's signals; returns alert state transitions."""
        events: List[dict] = []
        for slo in DEFAULT_SLOS:
            value = values.get(slo.signal)
            bad = 0 if slo.good(value) else 1
            fast = self._fast[slo.name]
            slow = self._slow[slo.name]
            fast_bad = self._fast_bad[slo.name] + bad
            slow_bad = self._slow_bad[slo.name] + bad
            if len(fast) == self.FAST_WINDOW:       # the oldest slides out
                fast_bad -= fast[0]
            if len(slow) == self.SLOW_WINDOW:
                slow_bad -= slow[0]
            fast.append(bad)
            slow.append(bad)
            self._fast_bad[slo.name] = fast_bad
            self._slow_bad[slo.name] = slow_bad
            if bad:
                self._bad[slo.name] += 1
            else:
                self._good[slo.name] += 1
            fast_frac = fast_bad / len(fast)
            slow_frac = slow_bad / len(slow)
            firing = (len(fast) == self.FAST_WINDOW
                      and fast_frac >= self.FAST_BURN
                      and slow_frac >= self.SLOW_BURN)
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
        for slo in DEFAULT_SLOS:
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


# -- self-assessment ----------------------------------------------------------

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


class _KpiWatch:
    """One self KPI past its baseline: the baseline median, sigma and
    band, the last ``persistence`` values, and the first tick of the
    current out-of-band run (``None`` while in band)."""

    def __init__(self, ticks: Tuple[int, ...], values: Tuple[float, ...],
                 policy: ChangeDeclarationPolicy) -> None:
        self.median, mad = median_and_mad(values)
        self.sigma = MAD_TO_SIGMA * mad + EPSILON
        self.band = policy.deviation_sigmas * self.sigma
        self.run_start: Optional[int] = None
        for tick, value in zip(ticks, values):
            self.track(tick, value)
        self.values = deque(values[-policy.persistence:],
                            maxlen=policy.persistence)

    def track(self, tick: int, value: float) -> None:
        if abs(value - self.median) <= self.band:
            self.run_start = None
        elif self.run_start is None:
            self.run_start = tick


class SelfAssessor:
    """The paper's persistence rule on the assessor's own KPIs, O(1)
    per tick in fixed memory (``docs/observability.md``).

    Per KPI of :data:`DEFAULT_SELF_KPIS` (omitted: zero) the first
    ``BASELINE_TICKS`` ticks fix a median and a sigma ``MAD_TO_SIGMA *
    MAD + 1e-9``.  A later tick declares when the median of the last
    ``persistence`` values is over ``deviation_sigmas`` sigmas from it
    (:class:`~repro.core.scoring.ChangeDeclarationPolicy`'s defaults)
    and the out-of-band run ending there (or the tick, if in band)
    starts at or after the baseline's last tick, the offline 1-bin
    slack.  A KPI declares once; ticks are the scheduler's; ``score``
    is the median's distance from the baseline's in sigmas."""

    BASELINE_TICKS = 60

    def __init__(self) -> None:
        self.policy = ChangeDeclarationPolicy()
        #: the baseline's ticks and KPI columns, until it is whole
        self._baseline: List[Tuple[int, List[float]]] = []
        self._since: Optional[int] = None       # the baseline's last tick
        #: the KPIs not declared yet, once the baseline is whole
        self.watches: Dict[str, _KpiWatch] = {}
        self.detections: List[dict] = []

    def observe(self, tick: int, values: dict) -> List[dict]:
        """Apply the rule to one tick's KPI values; returns any fresh
        detections."""
        if self._since is None:
            self._baseline.append((tick, [float(values.get(kpi) or 0.0)
                                          for kpi in DEFAULT_SELF_KPIS]))
            if len(self._baseline) == self.BASELINE_TICKS:
                ticks, columns = zip(*self._baseline)
                self.watches = {
                    kpi: _KpiWatch(ticks, row, self.policy)
                    for kpi, row in zip(DEFAULT_SELF_KPIS, zip(*columns))}
                self._since, self._baseline = tick, []
            return []
        found = []
        for kpi, watch in list(self.watches.items()):
            value = float(values.get(kpi) or 0.0)
            watch.values.append(value)
            watch.track(tick, value)
            deviation = statistics.median(watch.values) - watch.median
            start = tick if watch.run_start is None else watch.run_start
            if abs(deviation) <= watch.band or start < self._since:
                continue
            del self.watches[kpi]
            found.append({
                "kind": DETECTION_KIND, "kpi": kpi, "tick": tick,
                "declared_tick": tick, "start_tick": start,
                "direction": 1 if deviation > 0 else -1,
                "score": round(abs(deviation) / watch.sigma, 4)})
        self.detections.extend(found)
        return found


# -- the monitor --------------------------------------------------------------

class HealthMonitor:
    """Per-tick health telemetry for one live assessment service.

    Attach to a :class:`~repro.live.service.LiveAssessmentService`
    (its constructor does it when given ``health=``); the event-time
    scheduler then calls :meth:`on_tick` at the end of every tick with
    the tick's wall-clock duration, queue depth and watermark lag.
    Everything here *reads* pipeline state — those values, the store's
    ingest total, registry counters and the verdict-lag histogram —
    and writes only to its own heartbeat stream, which is what keeps
    verdict output byte-identical with health on or off.

    ``heartbeat_path`` is the JSONL file the stream is written to,
    flushed every ``FLUSH_EVERY_TICKS`` ticks; ``None`` keeps only the
    summary.
    """

    #: ticks between opportunistic writer flushes.
    FLUSH_EVERY_TICKS = 32

    def __init__(self, heartbeat_path: Optional[str] = None) -> None:
        self.heartbeat_path = heartbeat_path
        self.writer = (HeartbeatWriter(heartbeat_path)
                       if heartbeat_path else None)
        self.slo_tracker = SloTracker()
        self.self_assessor = SelfAssessor()
        self.service = None
        self.metrics: Optional[MetricsRegistry] = None
        self.ticks = 0
        self.alerts: List[dict] = []
        self.finalized = False
        #: the registry metrics a heartbeat reads: the offered, shed,
        #: degraded and published-verdict counters, then the verdict-lag
        #: histogram.  Each is peeked at per tick, not created: a
        #: metric exists from the pipeline's first update of it on.
        #: (Verdicts are not ``len(bus)``: a resumed run's bus starts
        #: with the checkpoint's verdicts, which this tick did not publish.)
        self._names: Tuple[str, ...] = ()
        #: the previous tick's totals: ingested fragments, then the
        #: four counters.
        self._totals: Tuple[float, ...] = (0,) * 5

    # -- wiring ---------------------------------------------------------------

    def attach(self, service) -> None:
        """Bind to ``service`` and hook the scheduler's tick loop."""
        from ..live.assessor import DEGRADED_VERDICTS_METRIC
        from ..live.bus import VERDICTS_METRIC
        from ..live.queues import FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC

        self.service = service
        self.metrics = service.metrics
        if self.writer is not None:
            self.writer.metrics = self.metrics
        self._names = (FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC,
                       DEGRADED_VERDICTS_METRIC, VERDICTS_METRIC,
                       VERDICT_LAG_METRIC)
        service.scheduler.health = self

    # -- the tick hook --------------------------------------------------------

    def on_tick(self, now: int, tick: int, tick_seconds: float,
                queue_depth: int, watermark_lag: int) -> dict:
        """Record one heartbeat from the tick's wall-clock duration and
        the queue depth and worst watermark lag (seconds) the scheduler
        set its gauges to; returns the record (tests peek at it)."""
        service = self.service
        bin_seconds = max(1, service.store.bin_seconds)
        self.ticks += 1
        *counters, lag = [self.metrics.get(name) for name in self._names]
        totals = (service.store.appended_fragments,) + tuple(
            0 if counter is None else counter.total()
            for counter in counters)
        ingest, offered, shed, degraded, verdicts = (
            total - last for total, last in zip(totals, self._totals))
        self._totals = totals
        p99 = lag.percentile(99) if lag is not None else None

        record = {
            "kind": HEARTBEAT_KIND,
            "tick": tick,
            "now": now,
            "tick_seconds": round(tick_seconds, 6),
            "queue_depth": queue_depth,
            "watermark_lag_bins": watermark_lag // bin_seconds,
            "ingest_fragments": int(ingest),
            "shed_fragments": int(shed),
            "shed_ratio": round(shed / offered, 4) if offered else 0.0,
            "verdicts": int(verdicts),
            "degraded_verdicts": int(degraded),
            "verdict_lag_p99_bins": (round(p99 / bin_seconds, 2)
                                     if p99 is not None else None),
        }

        events = self.slo_tracker.update(tick, record)
        self.alerts.extend(events)
        detections = self.self_assessor.observe(tick, record)

        if self.writer is not None:
            self.writer.offer(record)
            for doc in events + detections:
                self.writer.offer(doc)
            if self.ticks % self.FLUSH_EVERY_TICKS == 0:
                self.writer.flush()
        return record

    # -- shutdown -------------------------------------------------------------

    def finalize(self) -> dict:
        """End of stream: summarise, close the file."""
        if self.finalized:
            return self.summary()
        self.finalized = True
        summary = self.summary()
        if self.writer is not None:
            self.writer.offer(dict(summary, kind=SUMMARY_KIND))
            self.writer.close()
        return summary

    def summary(self) -> dict:
        """Operator summary, embedded in the service ``report()``."""
        detections = self.self_assessor.detections
        return {
            "ticks": self.ticks,
            "slos": self.slo_tracker.attainment(),
            "alerts_fired": sum(1 for a in self.alerts
                                if a["state"] == "firing"),
            "self_detections": [
                {k: v for k, v in d.items() if k != "kind"}
                for d in detections],
            "heartbeat_path": self.heartbeat_path,
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


def _sample_over_time(heartbeats: List[dict]) -> List[dict]:
    """Evenly sampled lag trajectory (at most 12 points) for the
    percentiles-over-time view."""
    if not heartbeats:
        return []
    count = min(12, len(heartbeats))
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
    is then recomputed from the heartbeats (under :data:`DEFAULT_SLOS`,
    the objectives the run tracked).
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
