"""Stacked, optionally parallel execution of assessment jobs.

The executor takes an iterable of :class:`~repro.engine.jobs.AssessmentJob`
and returns one :class:`~repro.engine.jobs.JobResult` per job, in input
order.  There is one execution route (:func:`execute_jobs`):

1. funnel-family jobs are grouped by detector spec and series length
   into stacks of at most :attr:`EngineConfig.batch_size` rows and each
   stack is scored with one :meth:`~repro.core.funnel.Funnel.detect_batch`
   call (see :mod:`repro.engine.batching`);
2. only the funnel jobs that declared a change proceed to DiD
   attribution, in batches of the same size;
3. the baselines (CUSUM / MRLS / WoW), which have no stacked detect
   stage, pass through :func:`run_job` one by one.

With ``workers == 0`` every task runs inline; otherwise the tasks of
each stage are shipped to a
:class:`concurrent.futures.ProcessPoolExecutor` with a bounded number in
flight.

**Results are a pure function of the job list.**  ``detect_batch`` is
bitwise the per-series pipeline, and a passthrough job builds its own
detector whose seed derives only from the job's identity
(:func:`job_seed` — a CRC of the detector name, job id and job seed).
No detector state, RNG position, cache content or scheduling order can
leak between jobs — regardless of batch size, worker count, or which
worker ran what.  :func:`run_job` (one job, its detector's full
``assess``) is the oracle the tests hold the stacked route to.

**Observability crosses the pool the same way results do.**  Metric
registries are process-local, so a worker records spans and metrics
into a throwaway context and returns a
:class:`~repro.obs.WorkerTelemetry` alongside its results; the parent
re-parents the spans under its ``execute`` span and merges the metric
deltas.  Serial execution uses the identical channel, so the two modes
produce the same span tree shape and the same aggregate counters.
"""

from __future__ import annotations

import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import EngineError
from ..obs import MetricsRegistry, ObsContext, Tracer, WorkerTelemetry
from ..obs.metrics import LATENCY_BUCKETS
from ..obs.tracing import RemoteContext
from .batching import (BATCHED_BATCHES_METRIC, BATCHED_CAPACITY_METRIC,
                       BATCHED_JOBS_METRIC, PACKED_ROWS_METRIC,
                       PACKED_UNIQUE_ROWS_METRIC, AttributionBatch,
                       DetectBatch, PackedJobs, detect_only_result,
                       pack_jobs, plan_detect_batches, run_attribution_batch,
                       run_detect_batch, unpack_jobs)
from .cache import shared_cache
from .detectors import build_detector
from .jobs import AssessmentJob, JobResult

__all__ = ["EngineConfig", "job_seed", "run_job", "execute_jobs"]

#: Cap on batches submitted but not yet collected per worker.
_INFLIGHT_PER_WORKER = 2

#: Metric names the worker channel populates.
JOBS_METRIC = "repro_engine_jobs_total"
POSITIVES_METRIC = "repro_engine_positives_total"
DETECT_SECONDS_METRIC = "repro_engine_detect_seconds"
CACHE_HITS_METRIC = "repro_engine_baseline_cache_hits_total"
CACHE_MISSES_METRIC = "repro_engine_baseline_cache_misses_total"
INFLIGHT_GAUGE = "repro_engine_inflight_batches"


@dataclass(frozen=True)
class EngineConfig:
    """Executor knobs.

    Attributes:
        workers: process-pool size; ``0`` (the default) runs every task
            inline — bit-identical, no pool overhead.
        batch_size: jobs per executor task — rows per detect stack, jobs
            per attribution or passthrough batch.  Larger batches
            amortise per-call and pickling cost; smaller ones balance
            better across workers.
    """

    workers: int = 0
    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise EngineError("workers must be >= 0, got %d" % self.workers)
        if self.batch_size < 1:
            raise EngineError(
                "batch_size must be >= 1, got %d" % self.batch_size)


def job_seed(job: AssessmentJob) -> int:
    """The deterministic seed for ``job``'s detector.

    Derived from the detector name and the job's identity alone —
    never from scheduling — so a job's randomness (e.g. CUSUM's
    bootstrap shuffles) is the same on any worker, in any batch.
    """
    token = "%s:%d:%d" % (job.detector.name, job.job_id, job.seed)
    return zlib.crc32(token.encode("utf-8"))


def run_job(job: AssessmentJob) -> JobResult:
    """Assess one job with a freshly built, deterministically seeded detector.

    The passthrough route of the baselines, and the per-job oracle for
    the stacked funnel route.
    """
    detector = build_detector(job.detector, seed=job_seed(job))
    return detector.assess(job)


def _run_batch(jobs: Sequence[AssessmentJob]) -> List[JobResult]:
    """One passthrough batch: the body inline and pooled runs share."""
    return [run_job(job) for job in jobs]


def _count_cache_delta(metrics: MetricsRegistry, cache, hits_before: int,
                       misses_before: int) -> None:
    """Count the baseline-cache hits and misses since ``*_before``."""
    if cache.hits > hits_before:
        metrics.counter(CACHE_HITS_METRIC,
                        help="Baseline-stats cache hits.").inc(
            cache.hits - hits_before)
    if cache.misses > misses_before:
        metrics.counter(CACHE_MISSES_METRIC,
                        help="Baseline-stats cache misses.").inc(
            cache.misses - misses_before)


def _run_batch_observed(jobs: Sequence[AssessmentJob],
                        remote: RemoteContext, position: int
                        ) -> Tuple[List[JobResult], WorkerTelemetry]:
    """:func:`_run_batch` plus worker-side telemetry capture.

    Runs in the pool worker (or inline, serially): spans for the batch,
    each job and each detector stage, metric counters/histograms, and
    the baseline-cache hit/miss delta this batch caused in *this*
    process.  Everything returned is picklable; the parent re-parents
    and merges it via :meth:`~repro.obs.ObsContext.absorb`.
    """
    tracer = Tracer(remote=remote)
    metrics = MetricsRegistry()
    jobs_total = metrics.counter(JOBS_METRIC, help="Jobs assessed.")
    positives = metrics.counter(POSITIVES_METRIC,
                                help="Jobs assessed positive.")
    latency = metrics.histogram(
        DETECT_SECONDS_METRIC,
        help="Detector stage latency per job.", buckets=LATENCY_BUCKETS)
    cache = shared_cache()
    hits_before, misses_before = cache.counters()

    results: List[JobResult] = []
    with tracer.span("batch", batch=position, jobs=len(jobs)):
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

    _count_cache_delta(metrics, cache, hits_before, misses_before)
    return results, WorkerTelemetry(spans=tracer.export(),
                                    metrics=metrics.snapshot())


def _run_batch_packed(packed: PackedJobs) -> List[JobResult]:
    """:func:`_run_batch` on a deduplicated payload (pool submissions).

    Unpacking restores content-identical job arrays, so results are
    bitwise the results of the unpacked batch — only the pickle volume
    changes.
    """
    return _run_batch(unpack_jobs(packed))


def _run_batch_packed_observed(packed: PackedJobs, remote: RemoteContext,
                               position: int
                               ) -> Tuple[List[JobResult], WorkerTelemetry]:
    return _run_batch_observed(unpack_jobs(packed), remote, position)


def _run_detect_batch_observed(batch: DetectBatch, remote: RemoteContext,
                               position: int):
    """:func:`~repro.engine.batching.run_detect_batch` with telemetry."""
    tracer = Tracer(remote=remote)
    metrics = MetricsRegistry()
    cache = shared_cache()
    hits_before, misses_before = cache.counters()
    with tracer.span("detect_batch", batch=position, jobs=batch.size,
                     detector=batch.spec.name,
                     series_bins=int(batch.stack.shape[1])):
        records = run_detect_batch(batch)
    jobs_total = metrics.counter(JOBS_METRIC, help="Jobs assessed.")
    latency = metrics.histogram(
        DETECT_SECONDS_METRIC,
        help="Detector stage latency per job.", buckets=LATENCY_BUCKETS)
    for record in records:
        jobs_total.inc(detector=batch.spec.name)
        latency.observe(record.detect_seconds, detector=batch.spec.name,
                        stage="detect")
    if batch.spec.name == "improved_sst":
        positives = sum(1 for r in records if r.changes)
        if positives:
            metrics.counter(POSITIVES_METRIC,
                            help="Jobs assessed positive.").inc(
                positives, detector=batch.spec.name)
    metrics.counter(BATCHED_BATCHES_METRIC,
                    help="Stacked detect batches scored.").inc()
    metrics.counter(BATCHED_JOBS_METRIC,
                    help="Jobs scored through stacked batches.").inc(
        batch.size)
    _count_cache_delta(metrics, cache, hits_before, misses_before)
    return records, WorkerTelemetry(spans=tracer.export(),
                                    metrics=metrics.snapshot())


def _run_attribution_batch_observed(batch: AttributionBatch,
                                    remote: RemoteContext, position: int):
    """Attribution stage with telemetry (funnel positives only)."""
    tracer = Tracer(remote=remote)
    metrics = MetricsRegistry()
    with tracer.span("attribute_batch", batch=position,
                     jobs=len(batch.positions)):
        out = run_attribution_batch(batch)
    latency = metrics.histogram(
        DETECT_SECONDS_METRIC,
        help="Detector stage latency per job.", buckets=LATENCY_BUCKETS)
    positives = metrics.counter(POSITIVES_METRIC,
                                help="Jobs assessed positive.")
    for _position, result in out:
        for stage, seconds in result.timings:
            if stage != "detect":
                latency.observe(seconds, detector=result.detector,
                                stage=stage)
        if result.positive:
            positives.inc(detector=result.detector)
    return out, WorkerTelemetry(spans=tracer.export(),
                                metrics=metrics.snapshot())


def _batches(jobs: Iterable[AssessmentJob],
             size: int) -> Iterator[List[AssessmentJob]]:
    batch: List[AssessmentJob] = []
    for job in jobs:
        batch.append(job)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def execute_jobs(jobs: Iterable[AssessmentJob],
                 config: Optional[EngineConfig] = None,
                 obs: Optional[ObsContext] = None) -> List[JobResult]:
    """Run every job and return results in input order.

    Args:
        jobs: the job stream (materialised: stacks are planned over
            the whole list).
        config: worker/batch sizing; defaults to inline execution.
        obs: optional observability context; with one, the run produces
            a full span tree and metric set that is identical in shape
            and counts whether execution is serial or pooled.
    """
    config = config or EngineConfig()
    root = (obs.tracer.span("execute", workers=config.workers,
                            batch_size=config.batch_size)
            if obs is not None else nullcontext())
    with root:
        return _execute_batched(jobs, config, obs)


def _count_packing(obs: ObsContext, packed: PackedJobs) -> None:
    obs.metrics.counter(
        PACKED_ROWS_METRIC,
        help="Series rows referenced by packed pool batches.").inc(
        packed.total_rows)
    obs.metrics.counter(
        PACKED_UNIQUE_ROWS_METRIC,
        help="Distinct series rows actually pickled to workers.").inc(
        len(packed.rows))


def _run_stage(pool: Optional[ProcessPoolExecutor], max_inflight: int,
               tasks: Sequence, observed_fn, plain_fn,
               obs: Optional[ObsContext],
               remote: Optional[RemoteContext]) -> List:
    """Run one stage's tasks, results in task order.

    Inline when ``pool`` is ``None``; otherwise submitted with at most
    ``max_inflight`` tasks uncollected.  Worker telemetry is absorbed in
    task order, so the resulting span stream is deterministic for a
    given job list.
    """
    outputs: List = [None] * len(tasks)
    if pool is None:
        for position, task in enumerate(tasks):
            if obs is not None:
                outputs[position], telemetry = observed_fn(task, remote,
                                                           position)
                obs.absorb(telemetry)
            else:
                outputs[position] = plain_fn(task)
        return outputs
    pending: dict = {}
    inflight_peak = 0
    for position, task in enumerate(tasks):
        while len(pending) >= max_inflight:
            done, _ = wait(tuple(pending), return_when=FIRST_COMPLETED)
            for future in done:
                outputs[pending.pop(future)] = future.result()
        if obs is not None:
            future = pool.submit(observed_fn, task, remote, position)
        else:
            future = pool.submit(plain_fn, task)
        pending[future] = position
        inflight_peak = max(inflight_peak, len(pending))
    for future, position in pending.items():
        outputs[position] = future.result()
    if obs is not None:
        gauge = obs.metrics.gauge(
            INFLIGHT_GAUGE, help="Peak tasks in flight across the pool.")
        gauge.set(max(gauge.value(), float(inflight_peak)))
        for position, output in enumerate(outputs):
            outputs[position], telemetry = output
            obs.absorb(telemetry)
    return outputs


def _execute_batched(jobs: Iterable[AssessmentJob], config: EngineConfig,
                     obs: Optional[ObsContext]) -> List[JobResult]:
    """Stacked detect, then DiD for the declared, then the baselines.

    Funnel-family jobs are grouped by series length into stacked
    batches; each batch crosses the pool boundary as one ndarray.  Only
    jobs whose batched detect declared a change are packed (control and
    history rows deduplicated) and shipped to the attribution stage.
    Baseline detectors pass through :func:`run_job` in packed batches.
    Results are bitwise what :func:`run_job` returns per job, in input
    order.
    """
    job_list = list(jobs)
    detect_batches, passthrough = plan_detect_batches(job_list,
                                                      config.batch_size)
    remote = None
    if obs is not None:
        # Taken inside the ``execute`` span: worker spans re-parent to it.
        remote = obs.remote_context()
        obs.metrics.counter(
            BATCHED_CAPACITY_METRIC,
            help="Stacked-batch slot capacity (batches x batch_size)."
        ).inc(len(detect_batches) * config.batch_size)
    max_inflight = max(config.workers * _INFLIGHT_PER_WORKER, 1)
    results: dict = {}
    pool = (ProcessPoolExecutor(max_workers=config.workers)
            if config.workers else None)
    try:
        detect_outputs = _run_stage(pool, max_inflight, detect_batches,
                                    _run_detect_batch_observed,
                                    run_detect_batch, obs, remote)
        attr_items: List[tuple] = []
        for batch, records in zip(detect_batches, detect_outputs):
            for record in records:
                job = job_list[record.position]
                if batch.spec.name == "funnel" and record.changes:
                    attr_items.append((record.position, job,
                                       record.changes[0],
                                       record.detect_seconds))
                else:
                    results[record.position] = detect_only_result(
                        job, batch.spec.name, record)
        attr_items.sort(key=lambda item: item[0])
        attr_batches = []
        for start in range(0, len(attr_items), config.batch_size):
            chunk = attr_items[start:start + config.batch_size]
            packed = pack_jobs([job for _, job, _, _ in chunk])
            if obs is not None and pool is not None:
                _count_packing(obs, packed)
            attr_batches.append(AttributionBatch(
                packed=packed,
                positions=tuple(item[0] for item in chunk),
                changes=tuple(item[2] for item in chunk),
                detect_seconds=tuple(item[3] for item in chunk),
            ))
        for output in _run_stage(pool, max_inflight, attr_batches,
                                 _run_attribution_batch_observed,
                                 run_attribution_batch, obs, remote):
            for position, result in output:
                results[position] = result

        passthrough_batches = list(_batches(
            [job_list[p] for p in passthrough], config.batch_size))
        if pool is None:
            passthrough_outputs = _run_stage(
                None, max_inflight, passthrough_batches,
                _run_batch_observed, _run_batch, obs, remote)
        else:
            packed_batches = []
            for batch in passthrough_batches:
                packed = pack_jobs(batch)
                if obs is not None:
                    _count_packing(obs, packed)
                packed_batches.append(packed)
            passthrough_outputs = _run_stage(
                pool, max_inflight, packed_batches,
                _run_batch_packed_observed, _run_batch_packed, obs, remote)
        cursor = 0
        for batch, output in zip(passthrough_batches, passthrough_outputs):
            for result in output:
                results[passthrough[cursor]] = result
                cursor += 1
    finally:
        if pool is not None:
            pool.shutdown()
    return [results[position] for position in range(len(job_list))]
