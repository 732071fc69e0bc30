"""Stacked execution of assessment jobs.

The executor takes an iterable of :class:`~repro.engine.jobs.AssessmentJob`
and returns one :class:`~repro.engine.jobs.JobResult` per job, in input
order.  There is one execution route (:func:`execute_jobs`), run inline
in the calling process:

1. FUNNEL-family jobs (``funnel``, ``improved_sst``) are grouped by
   detector spec and series length into stacks of at most
   :attr:`EngineConfig.batch_size` rows and each stack is scored with
   one :meth:`~repro.core.funnel.Funnel.detect_batch` call (see
   :mod:`repro.engine.batching`);
2. only the funnel jobs that declared a change proceed to DiD
   attribution, in batches of the same size;
3. the baselines (CUSUM / MRLS / WoW), which have no stacked detect
   stage, run one by one through :func:`run_job`.

**Results are a pure function of the job list.**  ``detect_batch`` is
bitwise the per-series pipeline (the tests hold the stacked route to
:meth:`~repro.core.funnel.Funnel.assess` per job), and a baseline job
builds its own detector whose seed derives only from the job's identity
(:func:`job_seed` — a CRC of the detector name, job id and job seed).
No detector state, RNG position, cache content or batch order can leak
between jobs, whatever the batch size.

With an :class:`~repro.obs.ObsContext` attached, every stage records its
spans under the one ``execute`` span — a ``detect_batch`` per stack, an
``attribute_batch`` per batch of declared jobs, a ``job`` per baseline
job — and its metrics into the context's registry as it runs.
"""

from __future__ import annotations

import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..core.scoring import _reportable
from ..exceptions import EngineError, InsufficientDataError
from ..obs import ObsContext
from ..obs.metrics import LATENCY_BUCKETS
from .batching import (BATCHED_BATCHES_METRIC, BATCHED_CAPACITY_METRIC,
                       BATCHED_JOBS_METRIC, AttributionBatch, DetectBatch,
                       DetectionRecord, detect_only_result,
                       plan_detect_batches, run_attribution_batch,
                       run_detect_batch)
from .cache import shared_cache
from .detectors import baseline_detector
from .jobs import AssessmentJob, ItemOutcome, JobResult

__all__ = ["EngineConfig", "job_seed", "run_job", "execute_jobs"]

#: Metric names the executor populates.
JOBS_METRIC = "repro_engine_jobs_total"
POSITIVES_METRIC = "repro_engine_positives_total"
DETECT_SECONDS_METRIC = "repro_engine_detect_seconds"
CACHE_HITS_METRIC = "repro_engine_baseline_cache_hits_total"
CACHE_MISSES_METRIC = "repro_engine_baseline_cache_misses_total"


@dataclass(frozen=True)
class EngineConfig:
    """Executor knobs.

    Attributes:
        batch_size: rows per detect stack and jobs per attribution
            batch.  Larger batches amortise per-call cost.
    """

    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise EngineError(
                "batch_size must be >= 1, got %d" % self.batch_size)


def job_seed(job: AssessmentJob) -> int:
    """The deterministic seed for ``job``'s detector.

    Derived from the detector name and the job's identity alone —
    never from scheduling — so a job's randomness (e.g. CUSUM's
    bootstrap shuffles) is the same in any batch.
    """
    token = "%s:%d:%d" % (job.detector.name, job.job_id, job.seed)
    return zlib.crc32(token.encode("utf-8"))


def run_job(job: AssessmentJob) -> JobResult:
    """Assess one baseline (CUSUM / MRLS / WoW) job on its treated aggregate.

    The detector is built fresh from the spec, seeded with
    :func:`job_seed`.  Detections starting before the software change
    (1-bin slack for start estimation jitter) are by definition not
    caused by it and are dropped; a series too short for the method
    counts as a negative.
    """
    detector = baseline_detector(job.detector, job_seed(job))
    started = time.perf_counter()
    try:
        changes = detector.detect(job.treated_aggregate)
    except InsufficientDataError:
        changes = []
    relevant = [c for c in changes
                if _reportable(c.start_index, job.change_index)]
    detect_seconds = time.perf_counter() - started
    return JobResult(job_id=job.job_id, detector=job.detector.name,
                     answer=ItemOutcome.of(relevant),
                     timings=(("detect", detect_seconds),))


def _latency(obs: ObsContext):
    return obs.metrics.histogram(
        DETECT_SECONDS_METRIC,
        help="Detector stage latency per job.", buckets=LATENCY_BUCKETS)


def _count_cache_delta(obs: ObsContext, hits_before: int,
                       misses_before: int) -> None:
    """Count the baseline-cache hits and misses since ``*_before``."""
    cache = shared_cache()
    if cache.hits > hits_before:
        obs.metrics.counter(CACHE_HITS_METRIC,
                            help="Baseline-stats cache hits.").inc(
            cache.hits - hits_before)
    if cache.misses > misses_before:
        obs.metrics.counter(CACHE_MISSES_METRIC,
                            help="Baseline-stats cache misses.").inc(
            cache.misses - misses_before)


def _run_baselines(jobs: Sequence[AssessmentJob],
                   obs: Optional[ObsContext]) -> List[JobResult]:
    """The baseline jobs through :func:`run_job`; with ``obs``, one
    ``job`` span each, a span per detector stage, and the counters."""
    if obs is None:
        return [run_job(job) for job in jobs]
    tracer = obs.tracer
    jobs_total = obs.metrics.counter(JOBS_METRIC, help="Jobs assessed.")
    positives = obs.metrics.counter(POSITIVES_METRIC,
                                    help="Jobs assessed positive.")
    latency = _latency(obs)
    results: List[JobResult] = []
    for job in jobs:
        detector = job.detector.name
        with tracer.span("job", detector=detector, job_id=job.job_id,
                         entity=job.entity, metric=job.metric) as span:
            result = run_job(job)
        stage_start = span.start_unix
        for stage, seconds in result.timings:
            tracer.record(stage, seconds, parent_id=span.span_id,
                          start_unix=stage_start, detector=detector)
            latency.observe(seconds, detector=detector, stage=stage)
            stage_start += seconds
        jobs_total.inc(detector=detector)
        if result.positive:
            positives.inc(detector=detector)
        results.append(result)
    return results


def _run_detect_batch_observed(batch: DetectBatch, obs: ObsContext,
                               position: int) -> List[DetectionRecord]:
    """:func:`~repro.engine.batching.run_detect_batch` with telemetry."""
    hits_before, misses_before = shared_cache().counters()
    with obs.tracer.span("detect_batch", batch=position, jobs=batch.size,
                         detector=batch.spec.name,
                         series_bins=int(batch.stack.shape[1])):
        records = run_detect_batch(batch)
    jobs_total = obs.metrics.counter(JOBS_METRIC, help="Jobs assessed.")
    latency = _latency(obs)
    for record in records:
        jobs_total.inc(detector=batch.spec.name)
        latency.observe(record.detect_seconds, detector=batch.spec.name,
                        stage="detect")
    if batch.spec.name == "improved_sst":
        positives = sum(1 for r in records if r.changes)
        if positives:
            obs.metrics.counter(POSITIVES_METRIC,
                                help="Jobs assessed positive.").inc(
                positives, detector=batch.spec.name)
    obs.metrics.counter(BATCHED_BATCHES_METRIC,
                        help="Stacked detect batches scored.").inc()
    obs.metrics.counter(BATCHED_JOBS_METRIC,
                        help="Jobs scored through stacked batches.").inc(
        batch.size)
    _count_cache_delta(obs, hits_before, misses_before)
    return records


def _run_attribution_batch_observed(batch: AttributionBatch,
                                    obs: ObsContext, position: int):
    """Attribution stage with telemetry (funnel positives only)."""
    with obs.tracer.span("attribute_batch", batch=position,
                         jobs=len(batch.positions),
                         detector=batch.jobs[0].detector.name):
        out = run_attribution_batch(batch)
    latency = _latency(obs)
    positives = obs.metrics.counter(POSITIVES_METRIC,
                                    help="Jobs assessed positive.")
    for _position, result in out:
        for stage, seconds in result.timings:
            if stage != "detect":
                latency.observe(seconds, detector=result.detector,
                                stage=stage)
        if result.positive:
            positives.inc(detector=result.detector)
    return out


def execute_jobs(jobs: Iterable[AssessmentJob],
                 config: Optional[EngineConfig] = None,
                 obs: Optional[ObsContext] = None) -> List[JobResult]:
    """Run every job and return results in input order.

    Args:
        jobs: the job stream (materialised: stacks are planned over
            the whole list).
        config: batch sizing; defaults to :class:`EngineConfig`.
        obs: optional observability context; with one, the run records
            an ``execute`` span tree and the engine's metric set.
    """
    config = config or EngineConfig()
    root = (obs.tracer.span("execute", batch_size=config.batch_size)
            if obs is not None else nullcontext())
    with root:
        return _execute_batched(jobs, config, obs)


def _run_stage(tasks: Sequence, observed_fn, plain_fn,
               obs: Optional[ObsContext]) -> List:
    """Run one stage's tasks, results in task order."""
    if obs is None:
        return [plain_fn(task) for task in tasks]
    return [observed_fn(task, obs, position)
            for position, task in enumerate(tasks)]


def _execute_batched(jobs: Iterable[AssessmentJob], config: EngineConfig,
                     obs: Optional[ObsContext]) -> List[JobResult]:
    """Stacked detect, then DiD for the declared, then the baselines.

    Funnel-family jobs are grouped by series length into stacked
    batches.  Only jobs whose batched detect declared a change go on to
    the attribution stage; the baselines run through :func:`run_job`.
    Results come back in input order.
    """
    job_list = list(jobs)
    size = config.batch_size
    detect_batches, passthrough = plan_detect_batches(job_list, size)
    if obs is not None:
        obs.metrics.counter(
            BATCHED_CAPACITY_METRIC,
            help="Stacked-batch slot capacity (batches x batch_size)."
        ).inc(len(detect_batches) * size)
    results: dict = {}
    detect_outputs = _run_stage(detect_batches, _run_detect_batch_observed,
                                run_detect_batch, obs)
    attr_items: List[tuple] = []
    for batch, records in zip(detect_batches, detect_outputs):
        for record in records:
            job = job_list[record.position]
            if batch.spec.name == "funnel" and record.changes:
                attr_items.append((record.position, job, record.changes[0],
                                   record.detect_seconds))
            else:
                results[record.position] = detect_only_result(job, record)
    attr_items.sort(key=lambda item: item[0])
    attr_batches = []
    for start in range(0, len(attr_items), size):
        positions, batch_jobs, changes, seconds = zip(
            *attr_items[start:start + size])
        attr_batches.append(AttributionBatch(
            jobs=batch_jobs, positions=positions, changes=changes,
            detect_seconds=seconds))
    for output in _run_stage(attr_batches, _run_attribution_batch_observed,
                             run_attribution_batch, obs):
        for position, result in output:
            results[position] = result

    baselines = _run_baselines([job_list[p] for p in passthrough], obs)
    for position, result in zip(passthrough, baselines):
        results[position] = result
    return [results[position] for position in range(len(job_list))]
