"""End-to-end observability for the assessment engine.

Four pieces, designed to compose:

* :mod:`repro.obs.tracing` — spans with monotonic timings, explicit
  context propagation and picklable records that re-parent across the
  process-pool boundary;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with Prometheus text exposition and mergeable JSON
  snapshots;
* :mod:`repro.obs.artifacts` — per-run ``events.jsonl`` + ``run.json``
  written under ``--obs-dir``, making runs diffable and replayable;
* :mod:`repro.obs.profile` — the stage profiler behind
  ``repro obs report``: self-vs-child time per stage path, per-detector
  latency, slowest jobs, and flamegraph ``folded`` export;
* :mod:`repro.obs.health` — live-service health telemetry: the per-tick
  heartbeat stream, declarative SLO tracking with multi-window burn
  alerts, and the FUNNEL-on-FUNNEL self-assessment loop behind
  ``repro obs health-report``.

The engine threads one :class:`ObsContext` per run through planner,
executor and reporters; ``repro assess-fleet --obs-dir <d>`` records a
run and ``repro obs report <d>`` profiles it.  See
``docs/observability.md``.
"""

from .artifacts import (RunArtifacts, git_revision, load_run,
                        write_run_artifacts)
from .context import ObsContext, WorkerTelemetry
from .health import (DEFAULT_SELF_KPIS, DEFAULT_SLOS, VERDICT_LAG_BUCKETS,
                     VERDICT_LAG_METRIC, HealthConfig, HealthMonitor,
                     HeartbeatWriter, SelfAssessor, Slo, SloTracker,
                     build_health_report, load_heartbeat,
                     render_health_report)
from .metrics import (BYTE_BUCKETS, LATENCY_BUCKETS, Counter, Gauge,
                      Histogram, MetricsRegistry)
from .profile import (PathStats, StageProfile, build_profile, folded_stacks,
                      render_report, render_table, report_document)
from .tracing import (RemoteContext, Span, SpanRecord, Tracer, new_span_id,
                      new_trace_id)

__all__ = [
    "BYTE_BUCKETS", "Counter", "DEFAULT_SELF_KPIS", "DEFAULT_SLOS",
    "Gauge", "HealthConfig", "HealthMonitor", "HeartbeatWriter",
    "Histogram", "LATENCY_BUCKETS", "MetricsRegistry", "ObsContext",
    "PathStats", "RemoteContext", "RunArtifacts", "SelfAssessor", "Slo",
    "SloTracker", "Span", "SpanRecord", "StageProfile", "Tracer",
    "VERDICT_LAG_BUCKETS", "VERDICT_LAG_METRIC", "WorkerTelemetry",
    "build_health_report", "build_profile", "folded_stacks",
    "git_revision", "load_heartbeat", "load_run", "new_span_id",
    "new_trace_id", "render_health_report", "render_report", "render_table",
    "report_document", "write_run_artifacts",
]
