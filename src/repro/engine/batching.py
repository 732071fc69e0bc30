"""Cross-series batched detection: the FUNNEL-family stages of the executor.

* **Batched detect stage** (:func:`plan_detect_batches` /
  :func:`run_detect_batch`): funnel-family jobs whose treated aggregates
  share a length are stacked into one ``(n_series, T)`` matrix and
  scored with a single :meth:`repro.core.funnel.Funnel.detect_batch`
  call — one batched normalisation, one stacked ``eigh`` sweep — instead
  of one full pipeline invocation per job.
* **Attribution stage** (:class:`AttributionBatch` /
  :func:`run_attribution_batch`): only jobs that *declared* a change
  proceed to DiD attribution, one
  :meth:`~repro.core.funnel.Funnel.attribute_batch` call per batch.  The baselines
  (CUSUM/MRLS/WoW) are not planned here: they run through
  :func:`repro.engine.executor.run_job` one job at a time.

Because ``Funnel.detect_batch`` is bitwise the per-series pipeline (see
:meth:`repro.core.ika.IkaSST.scores_batch`), a ``funnel`` job's result
equals what :meth:`~repro.core.funnel.Funnel.assess` gives its item on
its own, and an ``improved_sst`` job's what
``Funnel.detect(first_only=True)`` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.funnel import Funnel
from ..types import Assessment, DetectedChange, Verdict
from .cache import shared_cache
from .jobs import AssessmentJob, DetectorSpec, ItemOutcome, JobResult

__all__ = [
    "BATCHABLE_DETECTORS",
    "DetectBatch", "DetectionRecord", "plan_detect_batches",
    "run_detect_batch", "detect_only_result",
    "AttributionBatch", "run_attribution_batch",
]

#: Detector names whose detect stage can run batched (they share the
#: funnel pipeline on the treated aggregate).
BATCHABLE_DETECTORS = ("funnel", "improved_sst")

#: Metric names for the batched detect stage.
BATCHED_BATCHES_METRIC = "repro_engine_batched_batches_total"
BATCHED_JOBS_METRIC = "repro_engine_batched_jobs_total"
BATCHED_CAPACITY_METRIC = "repro_engine_batched_capacity_total"


# -- batched detect stage ------------------------------------------------------

@dataclass(frozen=True)
class DetectBatch:
    """One stacked detect task: same spec, same series length.

    ``stack`` is the C-contiguous ``(n_jobs, bins)`` matrix of treated
    aggregates.  ``positions`` index into the caller's job list.
    """

    spec: DetectorSpec
    positions: Tuple[int, ...]
    change_indices: Tuple[int, ...]
    baseline_keys: Tuple[Optional[str], ...]
    stack: np.ndarray

    @property
    def size(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class DetectionRecord:
    """The detect stage's answer for one job of a batch."""

    position: int
    changes: Tuple[DetectedChange, ...]
    detect_seconds: float


def plan_detect_batches(
    jobs: Sequence[AssessmentJob], batch_size: int,
) -> Tuple[List[DetectBatch], List[int]]:
    """Group batchable jobs by (spec, series length) into stacked batches.

    Returns ``(batches, passthrough_positions)``; the passthrough
    positions are the jobs whose detector has no batched detect stage
    (the baselines) and must run per-item.
    """
    groups: Dict[Tuple[DetectorSpec, int], List[int]] = {}
    passthrough: List[int] = []
    for position, job in enumerate(jobs):
        if job.detector.name in BATCHABLE_DETECTORS:
            aggregate = job.treated_aggregate
            groups.setdefault((job.detector, aggregate.size),
                              []).append(position)
        else:
            passthrough.append(position)
    batches: List[DetectBatch] = []
    for (spec, _width), positions in groups.items():
        for start in range(0, len(positions), batch_size):
            chunk = positions[start:start + batch_size]
            stack = np.ascontiguousarray(np.stack(
                [jobs[p].treated_aggregate for p in chunk]))
            batches.append(DetectBatch(
                spec=spec,
                positions=tuple(chunk),
                change_indices=tuple(jobs[p].change_index for p in chunk),
                baseline_keys=tuple(jobs[p].baseline_key for p in chunk),
                stack=stack,
            ))
    return batches, passthrough


def run_detect_batch(batch: DetectBatch) -> List[DetectionRecord]:
    """Score one stacked batch.

    A row whose job carries a ``baseline_key`` takes its pre-change
    (median, MAD) from the process-wide shared cache; cache hits are
    bitwise what the stacked normalisation computes itself.
    """
    funnel = Funnel(batch.spec.option("funnel_config"))
    cache = shared_cache()
    stats = []
    for row, key, change_index in zip(batch.stack, batch.baseline_keys,
                                      batch.change_indices):
        if key is None:
            stats.append(None)
        else:
            stats.append(cache.stats((key, change_index), row,
                                     max(change_index, 1)))
    started = time.perf_counter()
    declared = funnel.detect_batch(batch.stack, batch.change_indices,
                                   baseline_stats=stats, first_only=True)
    share = (time.perf_counter() - started) / max(batch.size, 1)
    return [DetectionRecord(position=position, changes=tuple(changes),
                            detect_seconds=share)
            for position, changes in zip(batch.positions, declared)]


def detect_only_result(job: AssessmentJob,
                       record: DetectionRecord) -> JobResult:
    """The final result for a job whose batched answer needs no DiD:
    an improved_sst job (positive iff anything declared) or a funnel
    negative (``NO_CHANGE``, as ``Funnel.assess`` gives it)."""
    name = job.detector.name
    answer = (Assessment(Verdict.NO_CHANGE) if name == "funnel"
              else ItemOutcome.of(record.changes))
    return JobResult(job_id=job.job_id, detector=name, answer=answer,
                     timings=(("detect", record.detect_seconds),))


# -- batched attribution stage ---------------------------------------------------

@dataclass(frozen=True)
class AttributionBatch:
    """DiD attribution work for the funnel jobs that declared a change.

    ``positions``, ``changes`` and ``detect_seconds`` parallel ``jobs``.
    """

    jobs: Tuple[AssessmentJob, ...]
    positions: Tuple[int, ...]
    changes: Tuple[DetectedChange, ...]
    detect_seconds: Tuple[float, ...]


def run_attribution_batch(
        batch: AttributionBatch) -> List[Tuple[int, JobResult]]:
    """Attribute every declared change of the batch with one
    :meth:`~repro.core.funnel.Funnel.attribute_batch` call per detector
    configuration — the second half of
    :meth:`~repro.core.funnel.Funnel.assess`; each job's answer is its
    ``Assessment``, and each job is charged an equal share of its call's
    time."""
    out: List[Tuple[int, JobResult]] = []
    for spec in dict.fromkeys(job.detector for job in batch.jobs):
        items = [i for i, job in enumerate(batch.jobs) if job.detector == spec]
        started = time.perf_counter()
        assessments = Funnel(spec.option("funnel_config")).attribute_batch([
            (job.treated, change, job.change_index, job.control, job.history)
            for job, change in ((batch.jobs[i], batch.changes[i])
                                for i in items)])
        share = (time.perf_counter() - started) / len(items)
        for i, assessment in zip(items, assessments):
            out.append((batch.positions[i], JobResult(
                job_id=batch.jobs[i].job_id, detector=spec.name,
                answer=assessment, timings=(("detect", batch.detect_seconds[i]),
                                            ("attribute", share)))))
    return out
