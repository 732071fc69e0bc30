"""Replay a synthetic fleet scenario through the live pipeline.

The replay driver takes the same :class:`~repro.engine.fleet.
FleetScenarioSpec` ``repro assess-fleet`` assesses, streams every fleet
KPI into a :class:`~repro.telemetry.store.MetricStore` one block a tick
in accelerated virtual time, drives the
:class:`~repro.live.service.LiveAssessmentService` one tick per flush
and can run the offline engine on the same scenario to verify the
**parity contract**: identical ``(change, entity_type, entity, metric,
verdict, declaration_bin)`` sets.  Two knobs make parity hold by
construction and are set here, not in :class:`~repro.live.config.
LiveConfig` defaults: the assessment window is the scenario's
post-change window, and the history provider is the *source's* clean
historical rows (the store's recent past holds the impacts earlier
replayed changes injected, which the offline engine never sees).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..changes.log import ChangeLog
from ..engine.engine import AssessmentEngine
from ..engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from ..engine.planner import ENTITY_METRICS
from ..exceptions import CheckpointError
from ..faults import FaultPlan, FaultyHistoryProvider, FaultyMetricStore
from ..obs.context import ObsContext
from ..simulation.clock import SimulationClock
from ..telemetry.kpi import KpiKey
from ..telemetry.store import MetricStore
from ..telemetry.timeseries import MINUTE
from .bus import LiveVerdict
from .checkpoint import Checkpointer, load_checkpoint, restore_service
from .config import LiveConfig
from .scheduler import TICK_STAGE_SECONDS_METRIC
from .service import LiveAssessmentService

__all__ = ["LiveReplayReport", "parity_live_config", "replay_scenario",
           "offline_verdict_records", "fleet_kpi_keys"]

REPLAY_SPAN = "live_replay"

ParityRecord = Tuple[str, str, str, str, str, Optional[int]]


def parity_live_config(spec: FleetScenarioSpec, funnel_config=None,
                       **overrides) -> LiveConfig:
    """The :class:`LiveConfig` under which live == offline on ``spec``."""
    base = dict(
        assessment_window_seconds=(
            (spec.window_bins - spec.change_offset) * MINUTE),
        baseline_bins=spec.change_offset,
        max_control_units=spec.max_control_units,
        history_days=spec.history_days,
    )
    if funnel_config is not None:
        base["funnel"] = funnel_config
    base.update(overrides)
    return LiveConfig(**base)


def fleet_kpi_keys(source: SyntheticFleetSource) -> List[KpiKey]:
    """Every KPI the scenario's fleet emits, in a stable order."""
    keys: List[KpiKey] = []
    for service_name in source.fleet.service_names:
        for metric in ENTITY_METRICS["service"]:
            keys.append(KpiKey("service", service_name, metric))
        for hostname in source.fleet.service(service_name).hostnames:
            for metric in ENTITY_METRICS["server"]:
                keys.append(KpiKey("server", hostname, metric))
            for metric in ENTITY_METRICS["instance"]:
                keys.append(KpiKey(
                    "instance", "%s@%s" % (service_name, hostname), metric))
    return keys


def offline_verdict_records(source: SyntheticFleetSource,
                            funnel_config=None) -> List[ParityRecord]:
    """The offline engine's answers, shaped for the parity comparison."""
    engine = AssessmentEngine(detectors=("funnel",),
                              funnel_config=funnel_config)
    _, jobs, results = engine.assess_fleet(source)
    return sorted(((job.change_id, job.entity_type, job.entity, job.metric,
                    result.verdict.value, result.outcome.detection_index)
                   for job, result in zip(jobs, results)), key=_record_key)


def _record_key(record: ParityRecord) -> tuple:
    return tuple("" if part is None else str(part) for part in record)


@dataclass
class LiveReplayReport:
    """What one replay produced, measured, and (optionally) verified."""

    verdicts: List[LiveVerdict] = field(default_factory=list)
    ticks: int = 0
    fragments_streamed: int = 0
    wall_seconds: float = 0.0
    service_report: dict = field(default_factory=dict)
    #: live-vs-offline comparison, present when ``check_offline`` ran.
    parity: Optional[dict] = None
    #: per-declared-verdict ``declaration_bin - change_index``.
    detection_lag_bins: List[int] = field(default_factory=list)
    #: per-verdict seconds between deployment and verdict emission.
    emission_lag_seconds: List[int] = field(default_factory=list)
    #: descriptor of the injected fault plan, when one was active.
    fault_plan: Optional[dict] = None
    #: True when ``kill_after_ticks`` stopped the replay mid-stream.
    killed: bool = False
    #: True when the replay continued from a ``--resume-from`` checkpoint.
    resumed: bool = False
    #: checkpoints written during this run.
    checkpoints_written: int = 0

    @property
    def parity_ok(self) -> Optional[bool]:
        return None if self.parity is None else self.parity["ok"]

    @property
    def fragments_per_second(self) -> Optional[float]:
        if self.wall_seconds <= 0:
            return None
        return self.fragments_streamed / self.wall_seconds

    def live_records(self) -> List[ParityRecord]:
        return sorted((v.parity_tuple() for v in self.verdicts),
                      key=_record_key)

    def as_dict(self) -> dict:
        """The JSON document ``repro live-replay`` prints."""
        doc = {
            "verdicts": len(self.verdicts),
            "ticks": self.ticks,
            "fragments_streamed": self.fragments_streamed,
            "wall_seconds": self.wall_seconds,
            "fragments_per_second": self.fragments_per_second,
            "service": self.service_report,
            "detection_lag_bins": list(self.detection_lag_bins),
            "emission_lag_seconds": list(self.emission_lag_seconds),
            "killed": self.killed,
            "resumed": self.resumed,
            "checkpoints_written": self.checkpoints_written,
        }
        if self.fault_plan is not None:
            doc["fault_plan"] = self.fault_plan
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


def replay_scenario(spec: Optional[FleetScenarioSpec] = None,
                    live_config: Optional[LiveConfig] = None,
                    flush_bins: int = 1,
                    check_offline: bool = False,
                    obs: Optional[ObsContext] = None,
                    sink=None,
                    fault_plan: Optional[FaultPlan] = None,
                    checkpoint_path: Optional[str] = None,
                    checkpoint_every: int = 25,
                    resume_from: Optional[str] = None,
                    kill_after_ticks: Optional[int] = None,
                    health=None,
                    tick_callback=None) -> LiveReplayReport:
    """Stream ``spec`` through the live pipeline in virtual time.

    Args:
        spec: the scenario (defaults mirror ``repro assess-fleet``).
        live_config: pipeline knobs; defaults to
            :func:`parity_live_config` (pass small queues or a drain
            budget to exercise overload).
        flush_bins: bins per streamed fragment (agents flushing less
            often than they collect).
        check_offline: also run the offline engine and fill ``parity``.
        obs: observability context: one ``live_replay`` span, one
            ``live_change`` span per closed change, and every live
            counter and gauge in its registry.
        sink: optional verdict-bus subscriber (e.g. a
            :class:`~repro.live.bus.JsonlVerdictSink`).
        fault_plan: optional :class:`~repro.faults.FaultPlan` wrapping
            the store (and the history provider, for history faults);
            delayed fragments are flushed before shutdown.
        checkpoint_path: write a session checkpoint here every
            ``checkpoint_every`` ticks (atomic JSONL).
        resume_from: restore from this checkpoint: the pre-checkpoint
            stream is fast-forwarded through a fresh store (no
            subscribers, so a fault plan reproduces its in-flight
            state), the service state restored on top, and the replay
            continues.
        kill_after_ticks: stop mid-stream after this many ticks without
            shutting down — the crash half of kill-and-resume.
        health: optional :class:`~repro.obs.health.HealthMonitor`: one
            heartbeat per tick, finalized at shutdown (a killed run
            leaves the stream truncated, like a real crash).
        tick_callback: called as ``tick_callback(tick, now)`` after
            every completed tick.
    """
    if flush_bins < 1:
        raise ValueError("flush_bins must be >= 1")
    source = SyntheticFleetSource(spec)
    spec = source.spec
    config = live_config or parity_live_config(spec)

    log = ChangeLog()
    for change in source.changes:
        log.record(change)

    faulty = fault_plan is not None
    store = MetricStore(bin_seconds=MINUTE)
    history = source.history
    if faulty:
        store = FaultyMetricStore(store, fault_plan)
        if fault_plan.has_history_faults():
            history = FaultyHistoryProvider(source.history, fault_plan)

    # One immutable key tuple and one (keys, bins) matrix of the streamed
    # span: a tick is a column slice, and the store resolves the tuple's
    # rows and subscribers once instead of per tick.
    keys = tuple(fleet_kpi_keys(source))
    stream_bins = spec.n_changes * spec.window_bins
    streamed = slice(spec.lead_bins, spec.lead_bins + stream_bins)
    matrix = np.empty((len(keys), stream_bins), dtype=np.float64)
    for row, key in enumerate(keys):
        matrix[row] = source.observed_series(
            key.entity_type, key.entity, key.metric)[streamed]
    at_time: Dict[str, int] = {c.change_id: c.at_time
                               for c in source.changes}
    plan_doc = fault_plan.describe() if faulty else None
    static_extra = {"spec": asdict(spec), "flush_bins": flush_bins,
                    "fault_plan": plan_doc}

    report = LiveReplayReport()
    report.fault_plan = plan_doc
    clock = SimulationClock(start=spec.lead_bins * MINUTE)

    start_offset = 0
    checkpoint_doc = None
    if resume_from is not None:
        checkpoint_doc = load_checkpoint(resume_from)
        extra = checkpoint_doc["meta"].get("extra", {})
        for name in static_extra:
            if extra.get(name) != static_extra[name]:
                raise CheckpointError(
                    "checkpoint %s was written under a different %s"
                    % (resume_from, name))
        start_offset = int(extra.get("offset", 0))
        report.resumed = True

    checkpointer = None
    if checkpoint_path is not None:
        checkpointer = Checkpointer(checkpoint_path, checkpoint_every)
        checkpointer.extra = dict(static_extra, offset=start_offset)

    def stream_chunk(offset: int, chunk: int) -> None:
        store.append_batch(keys, (spec.lead_bins + offset) * MINUTE,
                           matrix[:, offset:offset + chunk])

    # Fast-forward to the checkpoint: replay the pre-checkpoint stream
    # into the fresh (fault-wrapped) store before any subscriber exists.
    # The deterministic plan makes the same appends pend/release the same
    # way, so the store *and* the injector's in-flight state match the
    # killed run's exactly; the service session state is restored on top.
    offset = 0
    while offset < start_offset:
        chunk = min(flush_bins, start_offset - offset)
        stream_chunk(offset, chunk)
        now = clock.advance_minutes(chunk)
        if faulty:
            store.advance(now)
        offset += chunk

    service = LiveAssessmentService(
        store, log, source.fleet, config=config, obs=obs,
        history_provider=history,
        checkpointer=checkpointer, health=health)
    if faulty:
        store.bind_metrics(service.metrics)
        if isinstance(history, FaultyHistoryProvider):
            history.metrics = service.metrics
    if checkpoint_doc is not None:
        restore_service(service, checkpoint_doc)
    if sink is not None:
        service.bus.subscribe(sink)

    root = (obs.tracer.span(REPLAY_SPAN) if obs is not None
            else nullcontext())

    started = time.perf_counter()
    stream_seconds = 0.0
    with root:
        while offset < stream_bins:
            chunk = min(flush_bins, stream_bins - offset)
            chunk_started = time.perf_counter()
            stream_chunk(offset, chunk)
            stream_seconds += time.perf_counter() - chunk_started
            report.fragments_streamed += len(keys)
            now = clock.advance_minutes(chunk)
            if faulty:
                store.advance(now)
            offset += chunk
            if checkpointer is not None:
                checkpointer.extra["offset"] = offset
            service.on_tick(now)
            report.ticks += 1
            if tick_callback is not None:
                tick_callback(report.ticks, now)
            if (kill_after_ticks is not None
                    and report.ticks >= kill_after_ticks
                    and offset < stream_bins):
                report.killed = True
                break
        if not report.killed:
            if faulty:
                store.flush_all()
            service.shutdown(clock.now)
    report.wall_seconds = time.perf_counter() - started
    # The append side of the ingest plane, alongside the scheduler's
    # per-tick poll/drain/pool/close stages in the same counter.
    service.metrics.counter(
        TICK_STAGE_SECONDS_METRIC,
        help="Wall seconds spent per tick stage.",
    ).inc(stream_seconds, stage="stream")
    if checkpointer is not None:
        report.checkpoints_written = checkpointer.written

    report.verdicts = list(service.bus.verdicts)
    report.service_report = service.report()
    for verdict in report.verdicts:
        report.emission_lag_seconds.append(
            verdict.emitted_at - at_time[verdict.change_id])
        if verdict.declaration_bin is not None:
            report.detection_lag_bins.append(
                verdict.declaration_bin - spec.change_offset)

    if check_offline and not report.killed:
        live = report.live_records()
        offline = offline_verdict_records(source, funnel_config=config.funnel)
        live_set, offline_set = set(live), set(offline)
        report.parity = {
            "ok": live_set == offline_set,
            "live_count": len(live),
            "offline_count": len(offline),
            "live_only": sorted(live_set - offline_set, key=_record_key),
            "offline_only": sorted(offline_set - live_set, key=_record_key),
        }
    return report
