"""Session checkpointing for the live pipeline: snapshot, kill, resume.

A checkpoint is a JSONL file — one typed record per line — capturing
everything the event-time pipeline holds between ticks: watcher
admissions, per-session ingest queues, incremental-detector state (one
record per tracker: a row of the session's detector), event-time
watermarks (``expected_next`` / ``delivered_through``), control series,
parked attributions and the verdicts already published.

The format is chosen for **bit-identical resume**: float arrays cross as
base64 ``"<f8"`` bytes, scalar floats as JSON ``repr``, and a detector
writes its raw prefix, stats and scan cursor, so a service restored with
:func:`restore_service` publishes the uninterrupted run's verdict bytes
(``tests/live/test_checkpoint.py``).  Format-1 files (arrays as JSON
lists) still load.  Writes are atomic (temp file + ``os.replace``).
"""

from __future__ import annotations

import base64
import json
import os
from typing import List, Optional

import numpy as np

from ..exceptions import ChangeLogError, CheckpointError
from ..telemetry.kpi import KpiKey
from ..telemetry.timeseries import TimeSeries
from ..topology.impact import identify_impact_set
from .assessor import ChangeSession
from .bus import LiveVerdict
from .queues import IngestQueues

__all__ = ["CHECKPOINT_VERSION", "CHECKPOINTS_METRIC", "Checkpointer",
           "snapshot_service", "write_checkpoint", "load_checkpoint",
           "restore_service"]

CHECKPOINT_VERSION = 2
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
    return {
        "record": "session",
        "change_id": session.change_id,
        "priority": session.priority,
        "deadline": session.deadline,
        "verdicts": session.verdicts,
        "queues": session.queues.snapshot(),
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
            "start": session.control_start[row],
            "degraded": bool(session.controls.frozen[row]),
            "values": session.controls.row(row),
        } for key, row in session.control_rows.items()],
        "trackers": [{
            "key": _key3(key),
            "change_index": tracker.change_index,
            "start_time": tracker.start_time,
            "degraded": tracker.degraded,
            "done": tracker.done,
            "detector": session.detector.state_dict(tracker.row),
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


def _encode_floats(obj):
    """``json.dumps`` hook: an ndarray crosses as base64 ``<f8`` bytes."""
    if not isinstance(obj, np.ndarray):
        raise TypeError("%s is not JSON serialisable" % type(obj).__name__)
    return base64.b64encode(obj.astype("<f8", copy=False).tobytes()).decode()


def decode_floats(doc, field: str, n: Optional[int] = None) -> np.ndarray:
    """A float64 copy of one array field: a list (format 1), a base64
    string (format 2) or an ndarray, of ``n`` bins unless ``n`` is None.

    Every sample must be finite, as the store's own are: a NaN or inf
    is refused here, where it enters, not by the detector pass or
    attribution that would read it ticks later."""
    try:
        values = np.array(np.frombuffer(base64.b64decode(
            doc, validate=True), "<f8") if isinstance(doc, str) else doc,
            dtype=np.float64)
        if values.shape != (values.size if n is None else n,):
            raise ValueError("shape %s, expected (%s,)" % (
                values.shape, "n" if n is None else n))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError("non-finite sample at bin %d" % bad[0])
    except (TypeError, ValueError) as exc:      # binascii.Error included
        raise CheckpointError("checkpoint field %r is malformed: %s"
                              % (field, exc))
    return values


def write_checkpoint(path: str, records: List[dict]) -> None:
    """Write the records as JSONL, atomically replacing ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True,
                                default=_encode_floats) + "\n")
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
    if meta.get("version") not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            "checkpoint %s has version %r, this build reads 1 and %d"
            % (path, meta.get("version"), CHECKPOINT_VERSION))
    return doc


def _restore_session(service, record: dict) -> ChangeSession:
    try:
        change = service.watcher.log.get(record["change_id"])
    except ChangeLogError:
        raise CheckpointError(
            "checkpoint session %r is not in the change log"
            % record["change_id"]) from None
    impact = identify_impact_set(service.watcher.fleet, change.service,
                                 change.hostnames)
    config = service.config
    queues = IngestQueues(config.queue_capacity, service.metrics)
    qdoc = record["queues"]
    queues.restore(
        qdoc["shed"],
        None if qdoc["last_served"] is None else _unkey3(qdoc["last_served"]),
        [(_unkey3(key3), TimeSeries(start, service.store.bin_seconds,
                                    decode_floats(values, "queues.fragments")))
         for key3, start, values in qdoc["fragments"]])

    session = ChangeSession(change, impact, record["priority"],
                            record["deadline"], queues, config)
    session.verdicts = record["verdicts"]
    for etype, metric, group in record["control_groups"]:
        session.control_groups[(etype, metric)] = [_unkey3(k)
                                                   for k in group]
    controls = record["control_buffers"]
    rows = session.add_controls([(_unkey3(doc["key"]), doc["start"])
                                 for doc in controls])
    for row, doc in zip(rows, controls):
        values = decode_floats(doc["values"], "control_buffers.values")
        session.controls.append(np.array([row]), values[None, :])
        if doc["degraded"]:
            session.controls.freeze(row)
    detector = session.detector
    trackers = session.add_trackers([
        (_unkey3(doc["key"]), doc["change_index"], doc["start_time"])
        for doc in record["trackers"]])
    for tracker, doc in zip(trackers, record["trackers"]):
        detector.load_state(doc["detector"], tracker.row)
        tracker.degraded = doc["degraded"]
        tracker.done = doc["done"]
        if tracker.degraded or tracker.done:
            detector.freeze(tracker.row)
        tracker.declaration = detector.declarations[tracker.row]
    session.restore_watermarks(
        [(_unkey3(k), v) for k, v in record["expected_next"]],
        [(_unkey3(k), v) for k, v in record["delivered_through"]])
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
