"""The shard worker: one live assessment service per child process.

A worker receives a picklable :class:`ShardTask`, deterministically
rebuilds its slice of the scenario (the synthetic source is a pure
function of the spec; the hash ring is a pure function of two
integers), and drives :func:`repro.live.replay.replay_scenario` over
its shard-local :class:`~repro.telemetry.store.MetricStore` slice —
streaming only its routed keys, admitting only its routed changes, and
creating trackers only for entities it owns.  Ticks stay aligned with
the single-process replay, so per-key verdicts are bit-identical to it.

Everything the parent needs crosses the process boundary through files
and a heartbeat queue: verdicts through a line-buffered
:class:`~repro.live.bus.JsonlVerdictSink` (readable even after a
crash), checkpoints through the shard's own
:mod:`repro.live.checkpoint` file (what a restart resumes from), and a
``result-aN.json`` payload with the service report, a metrics snapshot
and span records — the :class:`~repro.obs.context.WorkerTelemetry`
channel, serialized.  A task with ``kill_after_ticks`` set simulates a
crash: the worker stops mid-stream and exits hard, leaving no result
and no DONE message, exactly like a real failure.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

from ..engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from ..faults import FaultPlan
from ..live.bus import JsonlVerdictSink
from ..live.config import LiveConfig
from ..live.replay import replay_scenario
from ..obs.context import ObsContext
from ..obs.tracing import RemoteContext, Tracer
from .routing import HashRing, plan_shards

__all__ = ["ShardTask", "run_shard",
           "HEARTBEAT_MSG", "DONE_MSG", "FAILED_MSG", "KILLED_EXIT_CODE"]

#: Heartbeat-queue message kinds (first tuple element).
HEARTBEAT_MSG = "heartbeat"
DONE_MSG = "done"
FAILED_MSG = "failed"

#: Exit code of a worker that simulated a crash (``kill_after_ticks``).
KILLED_EXIT_CODE = 3


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker attempt needs, picklable for spawn."""

    spec: FleetScenarioSpec
    shard_id: int
    n_shards: int
    replicas: int
    live_config: LiveConfig
    flush_bins: int
    attempt: int
    verdicts_path: str
    result_path: str
    checkpoint_path: str
    checkpoint_every: int
    resume_from: Optional[str] = None
    kill_after_ticks: Optional[int] = None
    hang_at_tick: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    health_path: Optional[str] = None
    remote: Optional[RemoteContext] = None


def run_shard(task: ShardTask, heartbeat=None) -> dict:
    """Run one shard attempt to completion (or simulated crash).

    Returns the result payload the parent merges; when the attempt was
    killed mid-stream the payload has ``killed=True`` and the caller is
    expected *not* to persist it (a crashed process writes nothing).
    """
    source = SyntheticFleetSource(task.spec)
    ring = HashRing(task.n_shards, replicas=task.replicas)
    plan = plan_shards(source, task.n_shards, replicas=task.replicas,
                       max_control_units=task.live_config.max_control_units
                       )[task.shard_id]

    def owns(entity_type: str, entity: str) -> bool:
        return ring.owner(entity) == task.shard_id

    obs = ObsContext()
    if task.remote is not None:
        obs.tracer = Tracer(remote=task.remote)
    health = None
    if task.health_path:
        from ..obs.health import HealthConfig, HealthMonitor
        health = HealthMonitor(HealthConfig(heartbeat_path=task.health_path))

    sink = JsonlVerdictSink(task.verdicts_path)
    cpu_start = time.process_time()
    report = replay_scenario(
        spec=task.spec, live_config=task.live_config,
        flush_bins=task.flush_bins, obs=obs, sink=sink,
        fault_plan=task.fault_plan,
        checkpoint_path=task.checkpoint_path,
        checkpoint_every=task.checkpoint_every,
        resume_from=task.resume_from,
        kill_after_ticks=task.kill_after_ticks,
        health=health,
        keys=list(plan.keys),
        change_ids=plan.change_ids,
        tracker_filter=owns,
        tick_callback=heartbeat,
        checkpoint_extra={"shard_id": task.shard_id,
                          "n_shards": task.n_shards,
                          "replicas": task.replicas},
        shard_id=task.shard_id)
    cpu_seconds = time.process_time() - cpu_start
    if not report.killed:
        sink.close()

    return {
        "shard_id": task.shard_id,
        "attempt": task.attempt,
        "ticks": report.ticks,
        "fragments_streamed": report.fragments_streamed,
        "wall_seconds": report.wall_seconds,
        "cpu_seconds": cpu_seconds,
        "killed": report.killed,
        "resumed": report.resumed,
        "checkpoints_written": report.checkpoints_written,
        "streamed_keys": len(plan.keys),
        "change_ids": list(plan.change_ids),
        "verdicts": [verdict.as_dict() for verdict in report.verdicts],
        "report": report.service_report,
        "metrics": obs.metrics.snapshot(),
        "spans": [span.as_dict() for span in obs.tracer.export()],
    }


def _write_result(path: str, payload: dict) -> None:
    # Atomic, like checkpoints: the supervisor treats the existence of
    # this file as proof the attempt completed.
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def shard_entry(task: ShardTask, queue) -> None:
    """Child-process entry point (module-level, so spawn can pickle it)."""
    try:
        def heartbeat(tick: int, now: int) -> None:
            if task.hang_at_tick is not None and tick >= task.hang_at_tick:
                # Simulated hang: go silent until the supervisor's
                # heartbeat timeout terminates this process.
                time.sleep(3600)
            queue.put((HEARTBEAT_MSG, task.shard_id, task.attempt,
                       tick, now))

        payload = run_shard(task, heartbeat=heartbeat)
        if payload["killed"]:
            # Crash simulation: no result file, no DONE, hard exit —
            # the line-buffered sink and the last checkpoint are all
            # that survive, exactly like a real worker death.
            os._exit(KILLED_EXIT_CODE)
        _write_result(task.result_path, payload)
        queue.put((DONE_MSG, task.shard_id, task.attempt, None, None))
    except BaseException as exc:  # noqa: BLE001 - must cross the boundary
        try:
            queue.put((FAILED_MSG, task.shard_id, task.attempt,
                       "%s: %s" % (type(exc).__name__, exc), None))
            queue.close()
            queue.join_thread()
        finally:
            os._exit(1)
