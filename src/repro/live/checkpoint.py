"""Session checkpointing for the live pipeline: snapshot, kill, resume.

A checkpoint is a JSONL file — one typed record per line — capturing
everything the event-time pipeline holds between ticks: watcher
admissions, per-session ingest queues, incremental-detector state,
event-time watermarks (``expected_next`` / ``delivered_through``),
control buffers, parked attributions and the verdicts already published.

The format is chosen for **bit-identical resume**: every float crosses
JSON as ``repr`` of a finite double, which round-trips exactly, and the
:class:`~repro.live.detector.IncrementalDetector` serialises its full
streaming state (normalised prefix, score prefix, robust stats, scan
cursor).  A service restored with :func:`restore_service` therefore
continues producing the very verdict bytes an uninterrupted run would —
the property ``tests/live/test_checkpoint.py`` pins.

Checkpoints are written atomically (temp file + ``os.replace``), so a
crash mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import List, Optional

import numpy as np

from ..exceptions import CheckpointError
from ..telemetry.kpi import KpiKey
from ..telemetry.timeseries import TimeSeries
from ..topology.impact import identify_impact_set
from ..types import DetectedChange
from .assessor import ChangeSession, KpiTracker, _SeriesBuffer
from .bus import LiveVerdict
from .queues import IngestQueues

__all__ = ["CHECKPOINT_VERSION", "CHECKPOINTS_METRIC", "Checkpointer",
           "snapshot_service", "write_checkpoint", "load_checkpoint",
           "restore_service"]

CHECKPOINT_VERSION = 1
CHECKPOINTS_METRIC = "repro_live_checkpoints_total"


def _key3(key: KpiKey) -> List[str]:
    return [key.entity_type, key.entity, key.metric]


def _unkey3(doc: List[str]) -> KpiKey:
    return KpiKey(doc[0], doc[1], doc[2])


# -- snapshot -----------------------------------------------------------------

def _snapshot_session(session: ChangeSession) -> dict:
    # Every mapping is serialised in *insertion* order, not sorted:
    # close-time emission follows tracker insertion order, so restoring
    # a re-sorted dict would publish the same verdicts in a different
    # order and break bit-identical resume.  Insertion order is itself
    # deterministic (derived from the impact set), so the file is too.
    queues = session.queues
    fragments = []
    for key, queue in queues._queues.items():
        for fragment in queue:
            fragments.append([_key3(key), fragment.start,
                              fragment.values.tolist()])
    return {
        "record": "session",
        "change_id": session.change_id,
        "priority": session.priority,
        "deadline": session.deadline,
        "verdicts": session.verdicts,
        "queues": {
            "shed": queues.shed,
            "last_served": (None if queues._last_served is None
                            else _key3(queues._last_served)),
            "fragments": fragments,
        },
        "expected_next": [[_key3(k), v]
                          for k, v in session.expected_next.items()],
        "delivered_through": [[_key3(k), v]
                              for k, v in
                              session.delivered_through.items()],
        "control_groups": [[etype, metric, [_key3(k) for k in group]]
                           for (etype, metric), group
                           in session.control_groups.items()],
        "control_buffers": [{
            "key": _key3(key),
            "start": buffer.start,
            "degraded": buffer.degraded,
            "values": buffer.values[:buffer.length].tolist(),
        } for key, buffer in session.control_buffers.items()],
        "trackers": [{
            "key": _key3(key),
            "change_index": tracker.change_index,
            "start_time": tracker.start_time,
            "degraded": tracker.degraded,
            "done": tracker.done,
            "declaration": (None if tracker.declaration is None else {
                "index": tracker.declaration.index,
                "start_index": tracker.declaration.start_index,
                "score": tracker.declaration.score,
                "kind": tracker.declaration.kind,
                "direction": tracker.declaration.direction,
            }),
            "detector": tracker.detector.state_dict(),
        } for key, tracker in session.trackers.items()],
        "pending": [_key3(t.key) for t in session.pending],
    }


def snapshot_service(service, now: int, tick: int,
                     extra: Optional[dict] = None) -> List[dict]:
    """Every record of one checkpoint, meta line first."""
    records: List[dict] = [{
        "record": "meta",
        "version": CHECKPOINT_VERSION,
        "now": now,
        "tick": tick,
        "bin_seconds": service.store.bin_seconds,
        "extra": extra or {},
    }, {
        "record": "watcher",
        "seen": sorted(service.watcher._seen),
        "shed_change_ids": list(service.watcher.shed_change_ids),
    }, {
        "record": "scheduler",
        "peak_queue_depth": service.scheduler.peak_queue_depth,
        "closed_count": service.scheduler.closed_count,
        "tick_count": service.scheduler.tick_count,
    }, {
        "record": "service",
        "closed_changes": (len(service.closed)
                           + getattr(service, "restored_closed", 0)),
    }, {
        "record": "bus",
        "verdicts": [v.as_dict() for v in service.bus.verdicts],
    }]
    sessions = sorted(service.watcher.sessions.values(),
                      key=lambda s: (s.change.at_time, s.change_id))
    records.extend(_snapshot_session(session) for session in sessions)
    return records


def write_checkpoint(path: str, records: List[dict]) -> None:
    """Write the records as JSONL, atomically replacing ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, path)


# -- load / restore -----------------------------------------------------------

def load_checkpoint(path: str) -> dict:
    """Parse a checkpoint file into ``{meta, watcher, ..., sessions}``."""
    if not os.path.exists(path):
        raise CheckpointError("checkpoint %s does not exist" % path)
    doc: dict = {"sessions": []}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise CheckpointError(
                    "checkpoint %s is corrupt: %s" % (path, exc))
            kind = record.get("record")
            if kind == "session":
                doc["sessions"].append(record)
            else:
                doc[kind] = record
    meta = doc.get("meta")
    if meta is None:
        raise CheckpointError("checkpoint %s has no meta record" % path)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            "checkpoint %s has version %r, this build reads %d"
            % (path, meta.get("version"), CHECKPOINT_VERSION))
    return doc


def _restore_session(service, record: dict) -> ChangeSession:
    changes = {c.change_id: c for c in service.watcher.log}
    change = changes.get(record["change_id"])
    if change is None:
        raise CheckpointError(
            "checkpoint session %r is not in the change log"
            % record["change_id"])
    impact = identify_impact_set(service.watcher.fleet, change.service,
                                 change.hostnames)
    config = service.config
    queues = IngestQueues(config.queue_capacity, config.drop_policy,
                          service.metrics)
    qdoc = record["queues"]
    for key3, start, values in qdoc["fragments"]:
        key = _unkey3(key3)
        fragment = TimeSeries(start, service.store.bin_seconds,
                              np.asarray(values, dtype=np.float64))
        queue = queues._queues.setdefault(key, deque())
        queue.append(fragment)
        queues.depth += 1
    queues.shed = qdoc["shed"]
    queues._last_served = (None if qdoc["last_served"] is None
                           else _unkey3(qdoc["last_served"]))

    session = ChangeSession(change, impact, record["priority"],
                            record["deadline"], queues)
    session.verdicts = record["verdicts"]
    session.expected_next = {_unkey3(k): v
                             for k, v in record["expected_next"]}
    session.delivered_through = {_unkey3(k): v
                                 for k, v in record["delivered_through"]}
    for etype, metric, group in record["control_groups"]:
        session.control_groups[(etype, metric)] = [_unkey3(k)
                                                   for k in group]
    for doc in record["control_buffers"]:
        buffer = _SeriesBuffer(doc["start"])
        values = np.asarray(doc["values"], dtype=np.float64)
        if values.size:
            buffer.extend(values)
        buffer.degraded = doc["degraded"]
        session.control_buffers[_unkey3(doc["key"])] = buffer
    for doc in record["trackers"]:
        key = _unkey3(doc["key"])
        tracker = KpiTracker(key, doc["change_index"], doc["start_time"],
                             config)
        tracker.detector.load_state(doc["detector"])
        tracker.degraded = doc["degraded"]
        tracker.done = doc["done"]
        tracker.declaration = tracker.detector.declared
        if doc["declaration"] is not None and tracker.declaration is None:
            # Declared but not yet stored on the detector (defensive).
            tracker.declaration = DetectedChange(**doc["declaration"])
        session.trackers[key] = tracker
    session.pending = [session.trackers[_unkey3(k)]
                       for k in record["pending"]]

    session.subscription = service.store.subscribe(
        session.subscribed_keys(), queues.offer,
        batch_callback=queues.offer_batch)
    service.watcher.sessions[session.change_id] = session
    return session


def restore_service(service, checkpoint: dict) -> None:
    """Rebuild a freshly constructed service from a loaded checkpoint.

    The service must be empty (no ticks run): sessions are rebuilt from
    the change log and fleet, queues refilled, detectors restored
    bit-exactly, subscriptions re-registered on the (possibly
    fault-wrapped) store, and the bus re-seeded with the verdicts that
    already went out so at-most-once delivery still holds after resume.
    """
    if service.watcher.sessions or service.closed:
        raise CheckpointError("restore_service needs a fresh service")
    watcher_doc = checkpoint.get("watcher", {})
    service.watcher._seen = set(watcher_doc.get("seen", ()))
    service.watcher.shed_change_ids = list(
        watcher_doc.get("shed_change_ids", ()))
    scheduler_doc = checkpoint.get("scheduler", {})
    service.scheduler.peak_queue_depth = scheduler_doc.get(
        "peak_queue_depth", 0)
    service.scheduler.closed_count = scheduler_doc.get("closed_count", 0)
    service.scheduler.tick_count = scheduler_doc.get("tick_count", 0)
    service.restored_closed = checkpoint.get("service", {}).get(
        "closed_changes", 0)
    for doc in checkpoint.get("bus", {}).get("verdicts", ()):
        verdict = LiveVerdict.from_dict(doc)
        service.bus.verdicts.append(verdict)
        service.bus._seen[verdict.key] = True
    for record in checkpoint["sessions"]:
        _restore_session(service, record)


# -- the periodic writer -------------------------------------------------------

class Checkpointer:
    """Writes a checkpoint every ``every_ticks`` scheduler ticks.

    Attach to a service with :meth:`attach`; the scheduler then calls
    :meth:`on_tick` at the end of every tick.  :attr:`extra` is stamped
    into the meta record verbatim — the replay driver keeps the stream
    offset, scenario spec and fault-plan descriptor there so resume can
    validate compatibility and fast-forward the source.
    """

    def __init__(self, path: str, every_ticks: int = 25) -> None:
        if every_ticks < 1:
            raise CheckpointError("every_ticks must be >= 1")
        self.path = path
        self.every_ticks = every_ticks
        self.extra: dict = {}
        self.service = None
        self.written = 0

    def attach(self, service) -> None:
        self.service = service
        service.scheduler.checkpointer = self

    def on_tick(self, now: int, tick: int) -> bool:
        if self.service is None or tick % self.every_ticks:
            return False
        write_checkpoint(self.path, snapshot_service(
            self.service, now, tick, extra=self.extra))
        self.written += 1
        self.service.metrics.counter(
            CHECKPOINTS_METRIC, help="Checkpoints written."
        ).inc()
        return True
