"""The cluster replay driver: shard, supervise, fan in, verify.

``repro cluster-replay`` is the sharded twin of ``repro live-replay``:
it routes the scenario across N worker processes
(:mod:`repro.cluster.routing`), supervises them to completion with
crash/hang recovery (:mod:`repro.cluster.supervisor`), merges their
verdict streams back into the deterministic global order
(:mod:`repro.cluster.merge`), and absorbs their telemetry into the
parent's :class:`~repro.obs.context.ObsContext` so ``repro obs report``
and health reports work unchanged over a multi-process run.

Throughput accounting is honest about core counts.  Shards burn CPU
concurrently, so the cluster's limiting resource is its **critical
path**: the slowest shard's CPU seconds (measured per attempt with
``time.process_time``, which excludes timesharing wait) plus the fan-in
merge.  On a many-core box ``elapsed_seconds`` converges to the
critical path; on a single-core box (CI) the shards timeshare and
elapsed stays flat while the critical path still shows the real
per-shard work reduction.  The report carries both numbers plus the
host's CPU count, and the bench headline uses the critical path.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from ..faults import FaultPlan
from ..live.bus import LiveVerdict, read_verdicts
from ..live.config import ClusterConfig, LiveConfig
from ..exceptions import ClusterError
from ..live.replay import (_record_key, fleet_kpi_keys,
                           offline_verdict_records, parity_live_config)
from ..obs.context import ObsContext, WorkerTelemetry
from ..obs.tracing import SpanRecord
from .merge import ClusterVerdictBus, merge_reports, write_merged
from .supervisor import ShardSupervisor
from .worker import ShardTask

__all__ = ["ClusterReplayReport", "cluster_replay_scenario"]

CLUSTER_SPAN = "cluster_replay"


@dataclass
class ClusterReplayReport:
    """What one sharded replay produced, measured, and verified."""

    n_shards: int = 1
    verdicts: List[LiveVerdict] = field(default_factory=list)
    #: KPI fragments the scenario defines (keys x ticks) — the work a
    #: single-process replay streams; the denominator-independent size.
    scenario_fragments: int = 0
    #: fragments actually streamed across shards/attempts (control-key
    #: replication and crash replays push this above scenario size).
    fragments_streamed: int = 0
    #: wall clock around the whole supervised run + merge.
    elapsed_seconds: float = 0.0
    #: slowest shard's CPU seconds (+ crash-lost wall) + merge time —
    #: the cluster's limiting resource; see the module docstring.
    critical_path_seconds: float = 0.0
    merge_seconds: float = 0.0
    cpus: int = 1
    shard_cpu_seconds: Dict[int, float] = field(default_factory=dict)
    restarts: Dict[int, int] = field(default_factory=dict)
    duplicate_verdicts: int = 0
    service_report: dict = field(default_factory=dict)
    parity: Optional[dict] = None
    detection_lag_bins: List[int] = field(default_factory=list)
    emission_lag_seconds: List[int] = field(default_factory=list)
    merged_path: Optional[str] = None
    workdir: Optional[str] = None

    @property
    def parity_ok(self) -> Optional[bool]:
        return None if self.parity is None else self.parity["ok"]

    @property
    def fragments_per_second(self) -> Optional[float]:
        """Scenario fragments over the critical path (see module doc)."""
        if self.critical_path_seconds <= 0:
            return None
        return self.scenario_fragments / self.critical_path_seconds

    def live_records(self):
        return sorted((v.parity_tuple() for v in self.verdicts),
                      key=_record_key)

    def as_dict(self) -> dict:
        """The JSON document ``repro cluster-replay`` prints."""
        doc = {
            "n_shards": self.n_shards,
            "verdicts": len(self.verdicts),
            "scenario_fragments": self.scenario_fragments,
            "fragments_streamed": self.fragments_streamed,
            "elapsed_seconds": self.elapsed_seconds,
            "critical_path_seconds": self.critical_path_seconds,
            "merge_seconds": self.merge_seconds,
            "fragments_per_second": self.fragments_per_second,
            "cpus": self.cpus,
            "shard_cpu_seconds": {str(k): v for k, v
                                  in sorted(self.shard_cpu_seconds.items())},
            "restarts": {str(k): v for k, v
                         in sorted(self.restarts.items())},
            "duplicate_verdicts": self.duplicate_verdicts,
            "service": self.service_report,
            "detection_lag_bins": list(self.detection_lag_bins),
            "emission_lag_seconds": list(self.emission_lag_seconds),
        }
        if self.merged_path is not None:
            doc["merged_path"] = self.merged_path
        if self.workdir is not None:
            doc["workdir"] = self.workdir
        if self.parity is not None:
            doc["parity"] = {
                "ok": self.parity["ok"],
                "live_records": self.parity["live_count"],
                "offline_records": self.parity["offline_count"],
                "live_only": [list(r) for r in self.parity["live_only"]],
                "offline_only": [list(r)
                                 for r in self.parity["offline_only"]],
            }
        return doc


def cluster_replay_scenario(spec: Optional[FleetScenarioSpec] = None,
                            live_config: Optional[LiveConfig] = None,
                            flush_bins: int = 1,
                            cluster: Optional[ClusterConfig] = None,
                            workdir: Optional[str] = None,
                            verdicts_path: Optional[str] = None,
                            obs: Optional[ObsContext] = None,
                            fault_plan: Optional[FaultPlan] = None,
                            health: bool = False,
                            kill_shard: Optional[int] = None,
                            kill_at_tick: Optional[int] = None,
                            hang_shard: Optional[int] = None,
                            hang_at_tick: Optional[int] = None,
                            check_offline: bool = False
                            ) -> ClusterReplayReport:
    """Run ``spec`` sharded across processes; fan the verdicts back in.

    Args:
        spec: the scenario (same defaults as ``repro live-replay``).
        live_config: per-shard pipeline knobs; defaults to
            :func:`~repro.live.replay.parity_live_config`.
        flush_bins: bins per streamed fragment (shared by all shards,
            so ticks stay globally aligned).
        cluster: shard count, restart budget, heartbeat timeout...
        workdir: where per-shard verdicts/results/checkpoints live;
            a temporary directory is created (and reported) if omitted.
        verdicts_path: write the merged JSONL here — byte-identical to
            the single-process ``live-replay --verdicts`` file.
        obs: parent observability context; worker spans and metrics are
            absorbed into it after the run.
        fault_plan: chaos plan, applied identically in every shard (the
            plan is stateless and keyed by KPI, so a shard injects
            exactly the faults the single process would on its keys).
        health: write one heartbeat stream per shard
            (``shard-N/heartbeat.jsonl`` under ``workdir``).
        kill_shard / kill_at_tick: crash this shard at that tick on its
            first attempt — the supervisor must recover it.
        hang_shard / hang_at_tick: same, but go silent instead of dying
            (exercises the heartbeat-timeout path).
        check_offline: verify merged verdicts against the offline
            engine (the live parity contract, now across processes).
    """
    source = SyntheticFleetSource(spec)
    spec = source.spec
    config = live_config or parity_live_config(spec)
    cluster = cluster if cluster is not None else ClusterConfig()
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-cluster-")
    os.makedirs(workdir, exist_ok=True)

    root = (obs.tracer.span(CLUSTER_SPAN, shards=cluster.n_shards)
            if obs is not None else nullcontext())

    report = ClusterReplayReport(n_shards=cluster.n_shards)
    report.workdir = workdir
    report.cpus = os.cpu_count() or 1
    stream_bins = spec.n_changes * spec.window_bins
    ticks = -(-stream_bins // flush_bins)
    report.scenario_fragments = len(fleet_kpi_keys(source)) * ticks

    started = time.perf_counter()
    with root:
        remote = obs.remote_context() if obs is not None else None

        def task_factory(shard_id: int, attempt: int,
                         resume_from: Optional[str]) -> ShardTask:
            shard_dir = os.path.join(workdir, "shard-%d" % shard_id)
            os.makedirs(shard_dir, exist_ok=True)
            first = attempt == 0
            return ShardTask(
                spec=spec, shard_id=shard_id,
                n_shards=cluster.n_shards, replicas=cluster.replicas,
                live_config=config, flush_bins=flush_bins,
                attempt=attempt,
                verdicts_path=os.path.join(
                    shard_dir, "verdicts-a%d.jsonl" % attempt),
                result_path=os.path.join(
                    shard_dir, "result-a%d.json" % attempt),
                checkpoint_path=os.path.join(shard_dir, "checkpoint.jsonl"),
                checkpoint_every=cluster.checkpoint_every_ticks,
                resume_from=resume_from,
                kill_after_ticks=(kill_at_tick if first
                                  and shard_id == kill_shard else None),
                hang_at_tick=(hang_at_tick if first
                              and shard_id == hang_shard else None),
                fault_plan=fault_plan,
                health_path=(os.path.join(shard_dir, "heartbeat.jsonl")
                             if health else None),
                remote=remote)

        supervisor = ShardSupervisor(cluster.n_shards, task_factory,
                                     config=cluster)
        states = supervisor.run()

        fan_in = ClusterVerdictBus()
        shard_reports: Dict[int, dict] = {}
        for shard_id, state in sorted(states.items()):
            payload = state.result
            if payload is None:
                raise ClusterError(
                    "shard %d finished without a result" % shard_id)
            final_attempt = payload["attempt"]
            # Crashed attempts' files exercise the at-most-once dedup;
            # the final attempt's bus list is the complete shard truth
            # (restored + re-emitted + new), so nothing a dead process
            # failed to flush is ever missing from the merge.
            for attempt, path in state.verdict_files:
                if attempt < final_attempt and os.path.exists(path):
                    fan_in.collect(read_verdicts(path))
            fan_in.collect(LiveVerdict.from_dict(doc)
                           for doc in payload["verdicts"])
            shard_reports[shard_id] = payload["report"]
            report.restarts[shard_id] = state.restarts
            report.fragments_streamed += payload["fragments_streamed"]
            report.shard_cpu_seconds[shard_id] = (payload["cpu_seconds"]
                                                  + state.lost_seconds)
            if obs is not None:
                obs.absorb(WorkerTelemetry(
                    spans=tuple(SpanRecord.from_dict(doc)
                                for doc in payload["spans"]),
                    metrics=payload["metrics"]))

        merge_started = time.perf_counter()
        report.verdicts = fan_in.merge()
        report.duplicate_verdicts = fan_in.duplicates
        if verdicts_path is not None:
            write_merged(verdicts_path, report.verdicts)
            report.merged_path = verdicts_path
        report.merge_seconds = time.perf_counter() - merge_started
    report.elapsed_seconds = time.perf_counter() - started
    report.critical_path_seconds = (
        max(report.shard_cpu_seconds.values(), default=0.0)
        + report.merge_seconds)

    report.service_report = merge_reports(
        shard_reports, restarts=report.restarts,
        duplicates=report.duplicate_verdicts)

    at_time = {change.change_id: change.at_time
               for change in source.changes}
    for verdict in report.verdicts:
        report.emission_lag_seconds.append(
            verdict.emitted_at - at_time[verdict.change_id])
        if verdict.declaration_bin is not None:
            report.detection_lag_bins.append(
                verdict.declaration_bin - spec.change_offset)

    if check_offline:
        live = report.live_records()
        offline = offline_verdict_records(source,
                                          funnel_config=config.funnel)
        live_set, offline_set = set(live), set(offline)
        report.parity = {
            "ok": live_set == offline_set,
            "live_count": len(live),
            "offline_count": len(offline),
            "live_only": sorted(live_set - offline_set, key=_record_key),
            "offline_only": sorted(offline_set - live_set, key=_record_key),
        }
    return report
