"""The four workloads, their scenarios, step sequences and output checks.

Every workload drives the *public default path* of the system —
``replay_scenario(spec, live_config=parity_live_config(spec,
score_chunk_bins=...), flush_bins=...)`` or
``AssessmentEngine(detectors=("funnel",))`` — and sets no mode flag, so
the suite keeps working when a mode is deleted and shows the gain when a
better path becomes the default.

Load model: closed loop, one client.  The replay driver streams one tick,
waits for ``on_tick``, streams the next (virtual time, no think time);
the engine is handed one change's jobs, returns, and is handed the next.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.engine.cache import reset_shared_cache, shared_cache
from repro.engine.engine import AssessmentEngine
from repro.engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from repro.engine.planner import ENTITY_METRICS
from repro.live.bus import verdict_sort_key
from repro.live.replay import parity_live_config, replay_scenario
from repro.topology.impact import identify_impact_set

#: One operation: ``(change_id, entity_type, entity, metric)``.
OpKey = Tuple[str, str, str, str]

#: Scenario seeds tried per ``--seed`` before giving up (see `scenario`).
SEARCH_LIMIT = 1000

POSITIVE = "caused_by_change"


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``spec`` holds the :class:`FleetScenarioSpec` fields other than the
    seed.  ``signature`` is ``(operations, true positives, dark
    launches)``: the generator's topology and rollout draws make the
    amount of work swing by 2x between scenario seeds, so a ``--seed``
    draws scenario seeds until one has exactly this shape — seeds then
    differ in telemetry noise, in which services change and in which
    servers are treated, never in how much there is to assess.
    ``quick`` overrides ``spec`` for the self-test scale, where the
    signature is not enforced.
    """

    name: str
    why: str
    kind: str                      # "live" | "recover" | "engine"
    spec: Dict[str, object]
    signature: Tuple[int, int, int]
    quick: Dict[str, object]
    default_seed: int
    flush_bins: int = 1
    score_chunk_bins: int = 1

    @property
    def work_unit(self) -> str:
        """What ``work_per_s`` counts."""
        return "jobs" if self.kind == "engine" else "fragments"


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="live_wide",
        why="520 KPI streams, few small impact sets: ingest-bound, so a "
            "tick source / store / queue change must show here and a "
            "kernel change must not",
        kind="live",
        spec=dict(n_services=40, n_servers=160, n_changes=3, window_bins=80,
                  change_offset=40, history_days=1, dark_fraction=0.5,
                  impact_fraction=1.0),
        signature=(67, 27, 1),
        quick=dict(n_services=8, n_servers=32, n_changes=1, window_bins=60,
                   change_offset=30),
        default_seed=7, flush_bins=1, score_chunk_bins=12),
    Workload(
        name="live_deep",
        why="two services, every change hits a whole ~12-server service and "
            "is scored every bin: kernel-bound, so kernel / cross-window "
            "reuse / pooling must show here and an ingest change must not",
        kind="live",
        spec=dict(n_services=2, n_servers=24, n_changes=3, window_bins=80,
                  change_offset=40, history_days=1, dark_fraction=0.5,
                  impact_fraction=1.0),
        signature=(90, 84, 1),
        quick=dict(n_servers=12, n_changes=1, window_bins=60,
                   change_offset=30),
        default_seed=7, flush_bins=1, score_chunk_bins=1),
    Workload(
        name="engine_fleet",
        why="offline batch over whole 240-bin windows, no store or queues: "
            "gating is a third of the time, so a kernel change tuned for "
            "short live segments that hurts long windows is caught",
        kind="engine",
        spec=dict(n_services=6, n_servers=24, n_changes=20, history_days=1,
                  impact_fraction=1.0),
        signature=(225, 105, 15),
        quick=dict(n_changes=3),
        default_seed=13),
    Workload(
        name="live_recover",
        why="detector state is snapshotted every 10 ticks, the run is "
            "killed inside an open window and resumed: a state-layout "
            "change that speeds scoring but bloats or slows checkpoints "
            "shows here",
        kind="recover",
        spec=dict(n_services=8, n_servers=96, n_changes=4, window_bins=120,
                  change_offset=60, history_days=1, impact_fraction=1.0),
        signature=(95, 63, 3),
        quick=dict(n_services=3, n_servers=16, n_changes=2, window_bins=60,
                   change_offset=30),
        default_seed=11, flush_bins=4, score_chunk_bins=8),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: live_recover: checkpoint cadence and where the run is killed.
CHECKPOINT_EVERY = 10
KILL_SHARE = 0.7


# -- scenarios -----------------------------------------------------------------

def operations(source: SyntheticFleetSource) -> Dict[OpKey, bool]:
    """Every (change, entity, KPI) the system must answer, with its truth."""
    ops: Dict[OpKey, bool] = {}
    for change in source.changes:
        impact = identify_impact_set(source.fleet, change.service,
                                     change.hostnames)
        for entity_type, entity in impact.monitored_entities():
            for metric in ENTITY_METRICS[entity_type]:
                ops[(change.change_id, entity_type, entity, metric)] = \
                    source.truth(change, entity_type, entity, metric)
    return ops


def signature(source: SyntheticFleetSource) -> Tuple[int, int, int]:
    """``(operations, true positives, dark launches)`` of a scenario."""
    ops = operations(source)
    dark = sum(
        len(change.hostnames) < len(source.fleet.service(change.service)
                                    .hostnames)
        for change in source.changes)
    return len(ops), sum(ops.values()), dark


def scenario(workload: Workload, seed: int,
             quick: bool = False) -> FleetScenarioSpec:
    """The scenario ``--seed`` selects: same seed, same inputs."""
    fields = dict(workload.spec)
    if quick:
        fields.update(workload.quick)
    for attempt in range(SEARCH_LIMIT):
        spec = FleetScenarioSpec(seed=seed * SEARCH_LIMIT + attempt, **fields)
        if quick or signature(SyntheticFleetSource(spec)) == workload.signature:
            return spec
    raise RuntimeError("%s: no scenario with signature %r among %d seeds"
                       % (workload.name, workload.signature, SEARCH_LIMIT))


# -- outcomes ------------------------------------------------------------------

class Record(NamedTuple):
    """One operation's answer, the same shape for live and engine."""

    key: OpKey
    verdict: str
    declaration_bin: Optional[int]
    failed: bool


class Outcome(NamedTuple):
    """What one pass over a workload's step sequence produced."""

    steps: List[float]
    digest: str
    records: List[Record]
    work: int
    #: what only some workloads have: ``resume_step``, ``checkpoint_bytes``,
    #: ``problems`` and the layer counts a span cannot see (``layer``).
    info: dict


def _digest(documents: List[dict]) -> str:
    blob = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _span(recorder, layer: str, name: str):
    return nullcontext() if recorder is None else recorder.span(layer, name)


def _replay(workload: Workload, spec: FleetScenarioSpec, recorder=None,
            **options):
    """One ``replay_scenario`` call; a step ends at each completed tick
    and the last one at the call's return."""
    marks: List[float] = []
    config = parity_live_config(
        spec, score_chunk_bins=workload.score_chunk_bins)
    with _span(recorder, "live.replay", "replay_scenario"):
        start = time.perf_counter()
        report = replay_scenario(
            spec, live_config=config, flush_bins=workload.flush_bins,
            tick_callback=lambda tick, now: marks.append(time.perf_counter()),
            **options)
        marks.append(time.perf_counter())
    steps = [end - begin for begin, end in zip([start] + marks, marks)]
    return steps, report


def _live_outcome(steps: List[float], report, fragments: int,
                  info: dict) -> Outcome:
    # Sorted by the cluster fan-in's total order, so the digest does not
    # depend on the order verdicts are emitted inside one tick.
    verdicts = sorted(report.verdicts, key=verdict_sort_key)
    records = [
        Record(v.key, v.verdict, v.declaration_bin,
               v.reason == "gap" or any(n.startswith("degraded")
                                        for n in v.notes))
        for v in verdicts]
    info.setdefault("layer", {})["live.queues.peak_depth"] = \
        report.service_report["peak_queue_depth"]
    return Outcome(steps, _digest([v.as_dict() for v in verdicts]), records,
                   fragments, info)


def run_live(workload: Workload, spec: FleetScenarioSpec, workdir: str,
             recorder=None, **options) -> Outcome:
    steps, report = _replay(workload, spec, recorder, **options)
    info = {}
    if report.parity is not None and not report.parity_ok:
        info["problems"] = ["live != offline: %d live-only, %d offline-only"
                            % (len(report.parity["live_only"]),
                               len(report.parity["offline_only"]))]
    return _live_outcome(steps, report, report.fragments_streamed, info)


def run_recover(workload: Workload, spec: FleetScenarioSpec, workdir: str,
                recorder=None) -> Outcome:
    """Phase A checkpoints and is killed; phase B resumes to the end."""
    path = os.path.join(workdir, "checkpoint.jsonl")
    ticks = -(-spec.n_changes * spec.window_bins // workload.flush_bins)
    steps_a, killed = _replay(
        workload, spec, recorder, checkpoint_path=path,
        checkpoint_every=CHECKPOINT_EVERY,
        kill_after_ticks=int(ticks * KILL_SHARE))
    checkpoint_bytes = os.path.getsize(path)
    steps_b, resumed = _replay(
        workload, spec, recorder, resume_from=path, checkpoint_path=path,
        checkpoint_every=CHECKPOINT_EVERY)
    info = {"resume_step": len(steps_a), "checkpoint_bytes": checkpoint_bytes,
            "checkpoints_written": killed.checkpoints_written}
    if not (killed.killed and resumed.resumed and not resumed.killed):
        info["problems"] = ["kill/resume did not happen as planned: "
                            "killed=%s resumed=%s" % (killed.killed,
                                                      resumed.resumed)]
    return _live_outcome(
        steps_a + steps_b, resumed,
        killed.fragments_streamed + resumed.fragments_streamed, info)


def run_engine(workload: Workload, spec: FleetScenarioSpec, workdir: str,
               recorder=None) -> Outcome:
    """Step 0 builds the source and plans; then one ``run`` per change."""
    reset_shared_cache()
    start = time.perf_counter()
    source = SyntheticFleetSource(spec)
    engine = AssessmentEngine(detectors=("funnel",))
    with _span(recorder, "engine.planner", "plan_jobs"):
        jobs = list(source.plan_jobs(engine.specs))
    marks = [time.perf_counter()]
    results = []
    for _, group in itertools.groupby(jobs, key=lambda job: job.change_id):
        results.extend(engine.run(list(group)))
        marks.append(time.perf_counter())
    steps = [end - begin for begin, end in zip([start] + marks, marks)]
    records = [
        Record((job.change_id, job.entity_type, job.entity, job.metric),
               result.verdict.value if result.verdict is not None
               else "no_change",
               result.outcome.detection_index, False)
        for job, result in zip(jobs, results)]
    cache = shared_cache().info()
    info = {"layer": {
        "engine.planner.jobs": len(jobs),
        "engine.cache.hit_ratio": (
            cache["hits"] / (cache["hits"] + cache["misses"])
            if cache["hits"] + cache["misses"] else 0.0)}}
    return Outcome(steps, _digest([list(r) for r in records]), records,
                   len(jobs), info)


_RUNNERS = {"live": run_live, "recover": run_recover, "engine": run_engine}


def run(workload: Workload, spec: FleetScenarioSpec, workdir: str,
        recorder=None) -> Outcome:
    """One timed pass over the workload's step sequence."""
    return _RUNNERS[workload.kind](workload, spec, workdir, recorder)


# -- checks --------------------------------------------------------------------

def verify(workload: Workload, spec: FleetScenarioSpec,
           workdir: str) -> Tuple[Outcome, List[str]]:
    """The untimed reference pass and the problems it found.

    Live workloads replay uninterrupted with ``check_offline=True`` and
    must equal the offline engine; every workload must answer each
    operation of the scenario exactly once.  The timed repeats are then
    held to this pass's digest — for ``live_recover`` that is the proof
    that a killed-and-resumed run equals an uninterrupted one.
    """
    if workload.kind == "engine":
        reference = run_engine(workload, spec, workdir)
    else:
        reference = run_live(workload, spec, workdir, check_offline=True)
    problems = list(reference.info.get("problems", ()))
    expected = sorted(operations(SyntheticFleetSource(spec)))
    answered = sorted(record.key for record in reference.records)
    if answered != expected:
        problems.append(
            "%d operations expected, %d answered (%d distinct)"
            % (len(expected), len(answered), len(set(answered))))
    return reference, problems


def quality(spec: FleetScenarioSpec, records: List[Record]) -> dict:
    """Accuracy against the generator's ground truth, and failed operations."""
    truth = operations(SyntheticFleetSource(spec))
    answered = {record.key for record in records}
    tp = sum(r.verdict == POSITIVE and truth.get(r.key, False)
             for r in records)
    fp = sum(r.verdict == POSITIVE and not truth.get(r.key, False)
             for r in records)
    fn = sum(positive for key, positive in truth.items()
             if positive) - tp
    lags = [r.declaration_bin - spec.change_offset for r in records
            if r.declaration_bin is not None]
    return {
        "ops_attempted": len(truth),
        "ops_failed": (len(set(truth) - answered)
                       + sum(r.failed for r in records)),
        "precision": tp / (tp + fp) if tp + fp else None,
        "recall": tp / (tp + fn) if tp + fn else None,
        "declared": len(lags),
        "detect_lags": lags,
    }
