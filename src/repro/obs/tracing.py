"""Structured tracing: spans with monotonic timings and explicit context.

A :class:`Span` covers one timed operation (an engine stage, one batch,
one job).  Spans form a tree through parent ids; the tree for one run
shares a ``trace_id``.  Finished spans are frozen into JSON-safe
:class:`SpanRecord` rows, which is what run artifacts store.

Durations come from ``time.perf_counter`` (monotonic); the wall-clock
``start_unix`` is carried only so artifact logs can be ordered.
"""

from __future__ import annotations

import os
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecord", "Span", "Tracer", "new_trace_id", "new_span_id"]

_ID_COUNTER = [0]


def _rand_hex(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return _rand_hex(8)


def new_span_id() -> str:
    """A fresh 16-hex-digit span id.

    Combines the pid with a process-local counter and two random bytes.
    """
    _ID_COUNTER[0] += 1
    return struct.pack(">HI", os.getpid() & 0xFFFF,
                       _ID_COUNTER[0] & 0xFFFFFFFF).hex() + _rand_hex(2)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span — frozen, picklable, JSON-safe.

    ``attrs`` is a sorted tuple of ``(key, value)`` pairs with
    JSON-scalar values only.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_unix: float
    duration_s: float
    attrs: Tuple[Tuple[str, object], ...] = ()

    def attr(self, key: str, default: object = None) -> object:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": round(self.start_unix, 6),
            "duration_s": round(self.duration_s, 9),
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SpanRecord":
        return cls(
            trace_id=doc["trace_id"],
            span_id=doc["span_id"],
            parent_id=doc.get("parent_id"),
            name=doc["name"],
            start_unix=float(doc.get("start_unix", 0.0)),
            duration_s=float(doc["duration_s"]),
            attrs=tuple(sorted(doc.get("attrs", {}).items())),
        )


@dataclass
class Span:
    """A live (not yet finished) span.  Use via :meth:`Tracer.span`."""

    tracer: "Tracer"
    span_id: str
    parent_id: Optional[str]
    name: str
    start_unix: float = field(default=0.0)
    _started: float = field(default=0.0)
    _attrs: Dict[str, object] = field(default_factory=dict)

    def _finish(self) -> SpanRecord:
        return SpanRecord(
            trace_id=self.tracer.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_unix=self.start_unix,
            duration_s=time.perf_counter() - self._started,
            attrs=tuple(sorted(self._attrs.items())),
        )


class Tracer:
    """Builds one run's span tree.

    The tracer keeps an explicit stack of active spans — no thread
    locals, no globals — so context propagation is always visible in
    the code that does it.
    """

    def __init__(self) -> None:
        self.trace_id = new_trace_id()
        self._stack: List[Span] = []
        self.finished: List[SpanRecord] = []

    # -- recording -----------------------------------------------------------

    @property
    def current_span_id(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        return None

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a child span of the current one, closing it on exit."""
        live = Span(tracer=self, span_id=new_span_id(),
                    parent_id=self.current_span_id, name=name,
                    start_unix=time.time(), _started=time.perf_counter(),
                    _attrs=dict(attrs))
        self._stack.append(live)
        try:
            yield live
        finally:
            self._stack.pop()
            self.finished.append(live._finish())

    def record(self, name: str, duration_s: float,
               parent_id: Optional[str] = None,
               start_unix: Optional[float] = None,
               **attrs: object) -> SpanRecord:
        """Append an already-measured span (e.g. a detector's timing).

        Defaults the parent to the current active span; pass
        ``parent_id`` to attach under a specific one.
        """
        rec = SpanRecord(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=parent_id if parent_id is not None
            else self.current_span_id,
            name=name,
            start_unix=time.time() if start_unix is None else start_unix,
            duration_s=duration_s,
            attrs=tuple(sorted(attrs.items())),
        )
        self.finished.append(rec)
        return rec
