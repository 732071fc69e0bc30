"""The stage profiler: span trees -> breakdown tables and folded stacks.

Consumes :class:`~repro.obs.tracing.SpanRecord` rows — live from an
:class:`~repro.obs.context.ObsContext` or loaded back from run
artifacts — and aggregates them by *path* (the chain of span names from
the root, e.g. ``execute > batch > job > detect``).  Per path it
reports calls, total wall-clock, and **self** time (total minus the
time covered by child spans), which is what separates "the executor is
slow" from "the detectors it runs are slow".

Also derives the per-detector view (detect/attribute latency split by
the ``detector`` span attribute), the top-N slowest job spans, and a
``folded`` flamegraph export — one ``path;leaf count`` line per stack,
the format ``flamegraph.pl`` and speedscope ingest directly.

:func:`render_report` / :func:`report_document` are the whole
``repro obs report`` output: the profile plus the run's counters and the
two summaries derived from them (Batching, Ingest plane).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .artifacts import RunArtifacts
from .tracing import SpanRecord

__all__ = ["PathStats", "StageProfile", "build_profile", "render_table",
           "folded_stacks", "render_report", "report_document"]


@dataclass
class PathStats:
    """Aggregate timing for every span sharing one root-to-name path."""

    path: Tuple[str, ...]
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def as_dict(self) -> dict:
        return {"path": list(self.path), "calls": self.calls,
                "total_s": round(self.total_s, 6),
                "self_s": round(self.self_s, 6)}


@dataclass
class StageProfile:
    """The full profile of one run's span set."""

    paths: List[PathStats] = field(default_factory=list)
    detectors: Dict[str, dict] = field(default_factory=dict)
    slowest_jobs: List[dict] = field(default_factory=list)
    span_count: int = 0

    def path(self, *names: str) -> Optional[PathStats]:
        for stats in self.paths:
            if stats.path == names:
                return stats
        return None


def _children_index(spans: Sequence[SpanRecord]
                    ) -> Dict[Optional[str], List[SpanRecord]]:
    by_parent: Dict[Optional[str], List[SpanRecord]] = {}
    known = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        by_parent.setdefault(parent, []).append(span)
    return by_parent


def build_profile(spans: Sequence[SpanRecord],
                  top_jobs: int = 10) -> StageProfile:
    """Aggregate a span set into a :class:`StageProfile`.

    Orphan spans (parent never exported — e.g. a truncated artifact
    log) are treated as roots rather than dropped, so a partial log
    still profiles.
    """
    profile = StageProfile(span_count=len(spans))
    by_parent = _children_index(spans)
    stats_by_path: Dict[Tuple[str, ...], PathStats] = {}

    def visit(span: SpanRecord, prefix: Tuple[str, ...]) -> None:
        path = prefix + (span.name,)
        stats = stats_by_path.get(path)
        if stats is None:
            stats = stats_by_path[path] = PathStats(path=path)
            profile.paths.append(stats)
        children = by_parent.get(span.span_id, ())
        child_time = sum(c.duration_s for c in children)
        stats.calls += 1
        stats.total_s += span.duration_s
        stats.self_s += max(0.0, span.duration_s - child_time)
        for child in children:
            visit(child, path)

    for root in by_parent.get(None, ()):
        visit(root, ())

    _profile_detectors(spans, profile)
    _profile_slowest(spans, profile, top_jobs)
    return profile


def _profile_detectors(spans: Sequence[SpanRecord],
                       profile: StageProfile) -> None:
    for span in spans:
        detector = span.attr("detector")
        if detector is None:
            continue
        row = profile.detectors.setdefault(str(detector), {
            "jobs": 0, "job_s": 0.0, "stages": {}})
        if span.name == "job":
            row["jobs"] += 1
            row["job_s"] += span.duration_s
            continue
        name = span.name
        if name == "detect_batch":
            # A stacked detect task stands in for the ``job`` and
            # ``detect`` spans of every job it scored.
            row["jobs"] += int(span.attr("jobs") or 0)
            row["job_s"] += span.duration_s
            name = "detect"
        stage = row["stages"].setdefault(name, {"calls": 0, "total_s": 0.0})
        stage["calls"] += 1
        stage["total_s"] += span.duration_s


def _profile_slowest(spans: Sequence[SpanRecord], profile: StageProfile,
                     top_jobs: int) -> None:
    jobs = [s for s in spans if s.name == "job"]
    jobs.sort(key=lambda s: (-s.duration_s, s.span_id))
    profile.slowest_jobs = [
        {
            "job_id": span.attr("job_id"),
            "detector": span.attr("detector"),
            "entity": span.attr("entity") or "",
            "metric": span.attr("metric") or "",
            "seconds": round(span.duration_s, 6),
        }
        for span in jobs[:top_jobs]
    ]


# -- rendering ---------------------------------------------------------------

def _fmt_seconds(value: float) -> str:
    return "%10.4f" % value


def render_table(profile: StageProfile) -> str:
    """The ``repro obs report`` ASCII breakdown."""
    lines: List[str] = []
    lines.append("Stage breakdown (%d spans)" % profile.span_count)
    lines.append("%-34s %7s %10s %10s" % ("stage", "calls", "total_s",
                                          "self_s"))
    ordered = _tree_order(profile.paths)
    for stats in ordered:
        label = "  " * stats.depth + stats.name
        lines.append("%-34s %7d %s %s" % (
            label[:34], stats.calls, _fmt_seconds(stats.total_s),
            _fmt_seconds(stats.self_s)))

    if profile.detectors:
        lines.append("")
        lines.append("Per-detector")
        lines.append("%-14s %7s %10s %10s %10s" % (
            "detector", "jobs", "job_s", "detect_s", "attrib_s"))
        for name in sorted(profile.detectors):
            row = profile.detectors[name]
            detect = row["stages"].get("detect", {}).get("total_s", 0.0)
            attribute = row["stages"].get("attribute",
                                          {}).get("total_s", 0.0)
            lines.append("%-14s %7d %s %s %s" % (
                name, row["jobs"], _fmt_seconds(row["job_s"]),
                _fmt_seconds(detect), _fmt_seconds(attribute)))

    if profile.slowest_jobs:
        lines.append("")
        lines.append("Slowest jobs")
        lines.append("%8s %-14s %-22s %-24s %10s" % (
            "job_id", "detector", "entity", "metric", "seconds"))
        for row in profile.slowest_jobs:
            lines.append("%8s %-14s %-22s %-24s %10.4f" % (
                row["job_id"], row["detector"], row["entity"][:22],
                row["metric"][:24], row["seconds"]))
    return "\n".join(lines) + "\n"


def _tree_order(paths: List[PathStats]) -> List[PathStats]:
    """Depth-first order, siblings sorted by total time descending."""
    by_prefix: Dict[Tuple[str, ...], List[PathStats]] = {}
    for stats in paths:
        by_prefix.setdefault(stats.path[:-1], []).append(stats)
    ordered: List[PathStats] = []

    def emit(prefix: Tuple[str, ...]) -> None:
        for stats in sorted(by_prefix.get(prefix, ()),
                            key=lambda s: (-s.total_s, s.path)):
            ordered.append(stats)
            emit(stats.path)

    emit(())
    return ordered


def folded_stacks(profile: StageProfile,
                  scale: float = 1_000_000.0) -> List[str]:
    """Flamegraph ``folded`` lines: ``a;b;c <self-time>`` per path.

    Self time is scaled to integer microseconds by default; zero-weight
    paths are kept (weight 0 lines are legal and preserve structure).
    """
    lines = []
    for stats in sorted(profile.paths, key=lambda s: s.path):
        lines.append("%s %d" % (";".join(stats.path),
                                int(round(stats.self_s * scale))))
    return lines


# -- the ``repro obs report`` document ---------------------------------------

def _counter_sections(metrics: dict) -> Tuple[list, dict, dict]:
    """One walk over a metrics snapshot's counters.

    Returns the flat ``(name, labels, value)`` rows, the batching
    summary and the ingest-plane summary.  Tolerates the degenerate
    shapes an empty or truncated run leaves behind: a ``None`` snapshot,
    a missing ``counters`` section, or ``null`` value lists.

    Batching: fill ratio is jobs scored per slot of planned batch
    capacity (1.0 = every batch full); the packed dedup ratio is rows
    referenced per row actually pickled across the pool boundary (1.0 =
    nothing repeated); gating "candidates" are the positions a pool
    table decided, and windows per position the share of them the kernel
    had to score.  Ingest plane: per-stage tick timing from the
    scheduler's per-tick wall clocks (the replay driver contributes
    ``stage=stream`` for its append side).
    """
    from ..engine.batching import (BATCHED_BATCHES_METRIC,
                                   BATCHED_CAPACITY_METRIC,
                                   BATCHED_JOBS_METRIC, PACKED_ROWS_METRIC,
                                   PACKED_UNIQUE_ROWS_METRIC)
    from ..live.pool import (GATED_CANDIDATES_METRIC, GATING_TABLES_METRIC,
                             POOLED_BATCHES_METRIC, POOLED_SERIES_METRIC,
                             SCORED_WINDOWS_METRIC)
    from ..live.scheduler import TICK_STAGE_SECONDS_METRIC

    rows = []
    totals: Dict[str, float] = {}
    ingest = {}
    counters = (metrics or {}).get("counters") or {}
    for name, doc in sorted(counters.items()):
        totals[name] = 0
        for entry in doc.get("values") or ():
            labels, value = entry.get("labels", {}), entry.get("value", 0)
            rows.append((name, labels, value))
            totals[name] += value
            if name == TICK_STAGE_SECONDS_METRIC:
                stage = labels.get("stage", "unknown")
                ingest["stage_seconds_%s" % stage] = round(value, 4)

    batching = {}
    batches = totals.get(BATCHED_BATCHES_METRIC, 0)
    if batches:
        jobs = totals.get(BATCHED_JOBS_METRIC, 0)
        batching["batched_detect_batches"] = batches
        batching["batched_detect_jobs"] = jobs
        batching["batched_detect_mean_size"] = round(jobs / batches, 2)
        capacity = totals.get(BATCHED_CAPACITY_METRIC, 0)
        if capacity:
            batching["batched_detect_fill_ratio"] = round(jobs / capacity, 3)
    pickled = totals.get(PACKED_UNIQUE_ROWS_METRIC, 0)
    if pickled:
        referenced = totals.get(PACKED_ROWS_METRIC, 0)
        batching["packed_rows_referenced"] = referenced
        batching["packed_rows_pickled"] = pickled
        batching["packed_dedup_ratio"] = round(referenced / pickled, 3)
    pooled = totals.get(POOLED_BATCHES_METRIC, 0)
    if pooled:
        series = totals.get(POOLED_SERIES_METRIC, 0)
        batching["pooled_scoring_batches"] = pooled
        batching["pooled_scoring_series"] = series
        batching["pooled_scoring_mean_size"] = round(series / pooled, 2)
    tables = totals.get(GATING_TABLES_METRIC, 0)
    if tables:
        decided = totals.get(GATED_CANDIDATES_METRIC, 0)
        batching["pooled_gating_tables"] = tables
        batching["pooled_gating_candidates_per_table"] = round(
            decided / tables, 2)
        if decided:
            batching["pooled_windows_per_position"] = round(
                totals.get(SCORED_WINDOWS_METRIC, 0) / decided, 4)
    return rows, batching, ingest


def report_document(run: RunArtifacts, profile: StageProfile) -> dict:
    """The ``repro obs report --json`` document."""
    counters, batching, ingest_plane = _counter_sections(run.metrics)
    doc = {
        "run_id": run.run_id,
        "span_count": profile.span_count,
        "paths": [stats.as_dict() for stats in profile.paths],
        "detectors": profile.detectors,
        "slowest_jobs": profile.slowest_jobs,
        "counters": [{"name": name, "labels": labels, "value": value}
                     for name, labels, value in counters],
    }
    if batching:
        doc["batching"] = batching
    if ingest_plane:
        doc["ingest_plane"] = ingest_plane
    return doc


def _section(title: str, rows: Sequence[Tuple[str, float]]) -> str:
    if not rows:
        return ""
    return "\n%s\n" % title + "".join(
        "  %-46s %12g\n" % row for row in rows)


def render_report(run: RunArtifacts, profile: StageProfile) -> str:
    """The ``repro obs report`` text: header, breakdown, counter sections."""
    counters, batching, ingest_plane = _counter_sections(run.metrics)
    header = "Run %s" % run.run_id
    rev = run.manifest.get("git_rev")
    if rev:
        header += " (git %s)" % str(rev)[:12]
    labelled = [
        (name + ("{%s}" % ",".join("%s=%s" % kv
                                   for kv in sorted(labels.items()))
                 if labels else ""), value)
        for name, labels, value in counters]
    return (header + "\n\n" + render_table(profile)
            + _section("Counters", labelled)
            + _section("Batching", sorted(batching.items()))
            + _section("Ingest plane", sorted(ingest_plane.items())))
