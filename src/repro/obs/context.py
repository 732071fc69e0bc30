"""The per-run observability context and the worker telemetry channel.

An :class:`ObsContext` owns one run's tracer and metrics registry.  The
engine threads it explicitly — an argument, never a global — through
planner, executor and reporters; a run without observability passes
``None``.

Crossing the process pool: the parent's registries do not exist in
pool workers, so telemetry recorded there must travel back with the
results.  The executor ships a :class:`RemoteContext` out with
each batch; the worker records into a throwaway context and returns a
:class:`WorkerTelemetry` — pickled span records plus a metrics snapshot
— which :meth:`ObsContext.absorb` re-parents and merges.  The serial
path uses the identical channel, which is what makes serial and pooled
runs structurally indistinguishable to observers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from .metrics import MetricsRegistry
from .tracing import RemoteContext, SpanRecord, Tracer

__all__ = ["ObsContext", "WorkerTelemetry"]


@dataclass(frozen=True)
class WorkerTelemetry:
    """One batch's worth of worker-side telemetry, shipped with results."""

    spans: Tuple[SpanRecord, ...]
    metrics: dict

    @property
    def span_count(self) -> int:
        return len(self.spans)


class ObsContext:
    """Tracer + metrics registry for one engine run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.started_unix = time.time()

    # -- the worker channel --------------------------------------------------

    def remote_context(self) -> RemoteContext:
        """Context for parenting worker spans under the current span."""
        return self.tracer.remote_context()

    def absorb(self, telemetry: Optional[WorkerTelemetry]) -> None:
        """Merge one batch's worker telemetry into the run's view."""
        if telemetry is None:
            return
        self.tracer.adopt(telemetry.spans)
        self.metrics.merge(telemetry.metrics)

    # -- export --------------------------------------------------------------

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
