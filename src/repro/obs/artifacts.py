"""Run artifacts: a JSONL event log plus a ``run.json`` manifest.

Every observed engine invocation can leave a self-describing directory
behind (``repro assess-fleet --obs-dir <d>`` wires this up; library
callers use :func:`write_run_artifacts` directly):

* ``events.jsonl`` — one JSON object per line.  Line kinds:
  ``run_start`` (run id, wall clock, git revision, tool version),
  ``span`` (one :class:`~repro.obs.tracing.SpanRecord`, see its
  ``as_dict``), ``metrics`` (the full registry snapshot), and
  ``run_end`` (span count, duration).  Unknown kinds must be skipped by
  readers, so the schema can grow.
* ``run.json`` — the manifest: configuration, seeds, git revision,
  wall-clock per stage, metric snapshot and span count.  Two manifests
  diff cleanly, which is the point: a run is reproducible from its
  config/seeds and comparable against any other run.

:func:`load_run` reads a directory back into a :class:`RunArtifacts`
for ``repro obs report``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .context import ObsContext
from .tracing import SpanRecord

__all__ = ["git_revision", "write_run_artifacts", "load_run",
           "RunArtifacts", "EVENTS_FILE", "MANIFEST_FILE"]

EVENTS_FILE = "events.jsonl"
MANIFEST_FILE = "run.json"


def git_revision() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _tool_version() -> str:
    from repro import __version__
    return __version__


def write_run_artifacts(obs_dir: str, obs: ObsContext,
                        config: Optional[dict] = None,
                        seeds: Optional[dict] = None,
                        stages: Optional[dict] = None,
                        run_id: Optional[str] = None,
                        unix_time: Optional[float] = None) -> dict:
    """Write ``events.jsonl`` + ``run.json`` for one observed run.

    Args:
        obs_dir: target directory, created if missing.
        obs: the run's observability context (spans + metrics).
        config: the caller's JSON-safe run configuration.
        seeds: the random seeds the run derives from.
        stages: wall-clock per stage, e.g. a fleet report's
            :attr:`~repro.engine.engine.FleetAssessmentReport.stages`.
        run_id: override the run id (defaults to the trace id).
        unix_time: override the manifest timestamp (test hook).

    Returns a summary dict with the written paths and counts.
    """
    os.makedirs(obs_dir, exist_ok=True)
    run_id = run_id or obs.tracer.trace_id
    started = obs.started_unix if unix_time is None else unix_time
    revision = git_revision()
    spans = obs.spans()
    metrics = obs.metrics.snapshot()

    events_path = os.path.join(obs_dir, EVENTS_FILE)
    with open(events_path, "w", encoding="utf-8") as fh:
        def emit(doc: dict) -> None:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")

        emit({"kind": "run_start", "run_id": run_id,
              "unix_time": round(started, 3), "git_rev": revision,
              "repro_version": _tool_version()})
        for span in spans:
            doc = span.as_dict()
            doc["kind"] = "span"
            emit(doc)
        emit({"kind": "metrics", "metrics": metrics})
        wall = (time.time() - started) if unix_time is None else 0.0
        emit({"kind": "run_end", "run_id": run_id,
              "span_count": len(spans),
              "wall_seconds": round(max(0.0, wall), 3)})

    manifest = {
        "run_id": run_id,
        "trace_id": obs.tracer.trace_id,
        "unix_time": round(started, 3),
        "git_rev": revision,
        "repro_version": _tool_version(),
        "config": config or {},
        "seeds": seeds or {},
        "stages": stages or {},
        "span_count": len(spans),
        "metrics": metrics,
    }
    manifest_path = os.path.join(obs_dir, MANIFEST_FILE)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return {"obs_dir": obs_dir, "events": events_path,
            "manifest": manifest_path, "span_count": len(spans)}


@dataclass
class RunArtifacts:
    """A recorded run read back from its ``--obs-dir``."""

    manifest: dict = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: events.jsonl lines that failed to parse (truncated writes).
    corrupt_lines: int = 0

    @property
    def run_id(self) -> str:
        run_id = self.manifest.get("run_id")
        return str(run_id) if run_id else "unknown"


def load_run(obs_dir: str) -> RunArtifacts:
    """Read a run directory back (manifest optional, events required).

    Resilient to the artifacts a crashed or empty run leaves behind: a
    truncated final line, a ``metrics: null`` record, or an events file
    with no spans at all — corrupt lines are counted and skipped, and
    every section degrades to its empty shape instead of raising.
    """
    events_path = os.path.join(obs_dir, EVENTS_FILE)
    if not os.path.exists(events_path):
        raise FileNotFoundError(
            "no %s in %r — not an --obs-dir run directory"
            % (EVENTS_FILE, obs_dir))
    spans: List[SpanRecord] = []
    metrics: dict = {}
    header: dict = {}
    corrupt = 0
    with open(events_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if not isinstance(doc, dict):
                corrupt += 1
                continue
            kind = doc.get("kind")
            if kind == "span":
                spans.append(SpanRecord.from_dict(doc))
            elif kind == "metrics":
                metrics = doc.get("metrics") or {}
            elif kind == "run_start":
                header = doc

    manifest_path = os.path.join(obs_dir, MANIFEST_FILE)
    manifest: dict = {}
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    else:
        manifest = {key: header.get(key) for key in
                    ("run_id", "unix_time", "git_rev", "repro_version")}
    return RunArtifacts(manifest=manifest, spans=spans, metrics=metrics,
                        corrupt_lines=corrupt)
