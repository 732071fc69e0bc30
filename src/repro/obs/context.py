"""The per-run observability context.

An :class:`ObsContext` owns one run's tracer and metrics registry.  The
engine threads it explicitly — an argument, never a global — through
planner, executor and reporters, and every stage records into it
directly; a run without observability passes ``None``.
"""

from __future__ import annotations

import time
from typing import Tuple

from .metrics import MetricsRegistry
from .tracing import SpanRecord, Tracer

__all__ = ["ObsContext"]


class ObsContext:
    """Tracer + metrics registry for one engine run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.started_unix = time.time()

    @property
    def span_count(self) -> int:
        return len(self.tracer.finished)

    def spans(self) -> Tuple[SpanRecord, ...]:
        return tuple(self.tracer.finished)

    def snapshot(self) -> dict:
        """JSON-safe summary: metric snapshot plus trace shape."""
        return {
            "trace_id": self.tracer.trace_id,
            "span_count": self.span_count,
            "metrics": self.metrics.snapshot(),
        }
