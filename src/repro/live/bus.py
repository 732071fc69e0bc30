"""The verdict bus: at-most-once delivery of live assessments.

Every closed (change, entity, KPI) item produces exactly one
:class:`LiveVerdict` — declared-and-attributed, deadline ``no_change``,
or degraded (``gap``).  The bus deduplicates on the item key, fans each
verdict out to its subscribers once, and counts what it saw; the JSONL
sink is the durable tap the CLI and CI artifacts use.

The serialized form is a *contract*: ``LiveVerdict.as_dict`` field
names/types and the sink's ``json.dumps(..., sort_keys=True)`` line
format are pinned by golden tests.  A consumer of a killed-and-resumed
run byte-compares lines to drop re-emissions (``docs/live.md``), and
the golden digests hash verdicts in the bus's canonical order
(:func:`verdict_sort_key`).  The sink is line-buffered and fsyncs on
close, so a killed process leaves a readable verdict file truncated by
at most one torn final line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["LiveVerdict", "VerdictBus", "JsonlVerdictSink",
           "verdict_sort_key"]

VERDICTS_METRIC = "repro_live_verdicts_total"
DUPLICATES_METRIC = "repro_live_duplicate_verdicts_total"

VerdictKey = Tuple[str, str, str, str]


@dataclass(frozen=True)
class LiveVerdict:
    """One item's final live answer.

    ``reason`` records *why* the item closed: ``"declared"`` (a change
    was declared and attributed), ``"deadline"`` (the assessment window
    elapsed with no declaration), or ``"gap"`` (load shedding punched a
    hole in the item's stream, so no sound verdict was possible).
    ``declaration_bin`` is the window-relative bin of the declaration —
    the same index the offline engine reports — or ``None``.
    ``emitted_at`` is the (virtual) time the verdict left the pipeline.
    """

    change_id: str
    entity_type: str
    entity: str
    metric: str
    verdict: str
    reason: str
    emitted_at: int
    declaration_bin: Optional[int] = None
    did_estimate: Optional[float] = None
    control: Optional[str] = None
    direction: int = 0
    notes: Tuple[str, ...] = ()

    @property
    def key(self) -> VerdictKey:
        return (self.change_id, self.entity_type, self.entity, self.metric)

    def parity_tuple(self) -> tuple:
        """The fields live and offline must agree on (see docs/live.md)."""
        return (self.change_id, self.entity_type, self.entity, self.metric,
                self.verdict, self.declaration_bin)

    def as_dict(self) -> dict:
        # In field order; ``dataclasses.asdict`` would deep-copy each.
        return dict(
            change_id=self.change_id, entity_type=self.entity_type,
            entity=self.entity, metric=self.metric, verdict=self.verdict,
            reason=self.reason, emitted_at=self.emitted_at,
            declaration_bin=self.declaration_bin,
            did_estimate=self.did_estimate, control=self.control,
            direction=self.direction, notes=list(self.notes))

    @classmethod
    def from_dict(cls, doc: dict) -> "LiveVerdict":
        """Inverse of :meth:`as_dict` (checkpoints, verdict files)."""
        doc = dict(doc)
        doc["notes"] = tuple(doc.get("notes", ()))
        return cls(**doc)


def verdict_sort_key(verdict: LiveVerdict) -> tuple:
    """The bus's canonical order: a deterministic total order on verdicts.

    Virtual emission time first, then the verdict key.  Keys are unique
    (the bus is at-most-once), so this is a total order: sorting the same
    verdict set yields the same sequence however it was emitted inside a
    tick, which is what the golden digests hash.
    """
    return (verdict.emitted_at, verdict.change_id, verdict.entity_type,
            verdict.entity, verdict.metric)


class VerdictBus:
    """Fan-out with at-most-once delivery per (change, entity, KPI).

    A key is marked seen *before* its verdict is delivered, so a failing
    subscriber can never cause a redelivery; a second publish for the
    same key is dropped and counted.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.verdicts: List[LiveVerdict] = []
        self._seen: Dict[VerdictKey, bool] = {}
        self._subscribers: List[Callable[[LiveVerdict], None]] = []

    def subscribe(self, subscriber: Callable[[LiveVerdict], None]) -> None:
        self._subscribers.append(subscriber)

    def publish(self, verdict: LiveVerdict) -> bool:
        """Deliver ``verdict`` unless its key was already published."""
        if verdict.key in self._seen:
            self.metrics.counter(
                DUPLICATES_METRIC,
                help="Verdicts dropped by at-most-once delivery.").inc()
            return False
        self._seen[verdict.key] = True
        self.verdicts.append(verdict)
        self.metrics.counter(
            VERDICTS_METRIC, help="Verdicts published on the bus."
        ).inc(verdict=verdict.verdict, reason=verdict.reason)
        for subscriber in tuple(self._subscribers):
            subscriber(verdict)
        return True

    def __len__(self) -> int:
        return len(self.verdicts)


class JsonlVerdictSink:
    """Bus subscriber writing one JSON object per verdict line.

    Opened line-buffered: every verdict reaches the OS as soon as its
    line is complete, so a crashed process leaves at most one torn
    final line behind.  :meth:`close` flushes and fsyncs (durability at
    shutdown) and is idempotent — ``__exit__`` after an explicit
    ``close()`` is a no-op, as is a write after close.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.written = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8",
                                          buffering=1)

    def __call__(self, verdict: LiveVerdict) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(verdict.as_dict(), sort_keys=True) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlVerdictSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
