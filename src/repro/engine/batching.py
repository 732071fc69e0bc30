"""Cross-series batched detection and deduplicated pool payloads.

The two stages of the executor's one route, and the payload format its
pool tasks travel in:

* **Batched detect stage** (:func:`plan_detect_batches` /
  :func:`run_detect_batch`): funnel-family jobs whose treated aggregates
  share a length are stacked into one ``(n_series, T)`` matrix and
  scored with a single :meth:`repro.core.funnel.Funnel.detect_batch`
  call — one batched normalisation, one stacked ``eigh`` sweep — instead
  of one full pipeline invocation per job.  Only jobs that *declared* a
  change proceed to the per-item DiD attribution stage
  (:class:`AttributionBatch` / :func:`run_attribution_batch`); the
  baselines (CUSUM/MRLS/WoW) pass through ``run_job`` per item.  Because
  ``Funnel.detect_batch`` is bitwise the per-series pipeline (see
  :meth:`repro.core.ika.IkaSST.scores_batch`), results equal what
  ``run_job`` returns for each job on its own.

* **Packed batches** (:func:`pack_jobs` / :func:`unpack_jobs`): when
  jobs do cross the process-pool boundary, their series payloads are
  decomposed into rows and deduplicated by content before pickling.  A
  fleet change's peer control matrix repeats the same per-entity series
  in every job of the change — and each treated series reappears as a
  control row of its peers — so the pool previously pickled each series
  once *per job*.  Packing ships each distinct row once per batch, which
  is what turned the 2-worker pool from a 0.93x slowdown into a real
  speedup on pickling-bound scenarios.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.funnel import Funnel
from ..types import DetectedChange
from .cache import shared_cache
from .jobs import AssessmentJob, DetectorSpec, ItemOutcome, JobResult

__all__ = [
    "BATCHABLE_DETECTORS",
    "DetectBatch", "DetectionRecord", "plan_detect_batches",
    "run_detect_batch", "detect_only_result",
    "AttributionBatch", "run_attribution_batch",
    "PackedJobs", "pack_jobs", "unpack_jobs",
]

#: Detector names whose detect stage can run batched (they share the
#: funnel pipeline on the treated aggregate).
BATCHABLE_DETECTORS = ("funnel", "improved_sst")

#: Metric names for the batched detect stage (parent + worker channel).
BATCHED_BATCHES_METRIC = "repro_engine_batched_batches_total"
BATCHED_JOBS_METRIC = "repro_engine_batched_jobs_total"
BATCHED_CAPACITY_METRIC = "repro_engine_batched_capacity_total"
PACKED_ROWS_METRIC = "repro_engine_packed_rows_total"
PACKED_UNIQUE_ROWS_METRIC = "repro_engine_packed_unique_rows_total"


# -- batched detect stage ------------------------------------------------------

@dataclass(frozen=True)
class DetectBatch:
    """One stacked detect task: same spec, same series length.

    ``stack`` is the C-contiguous ``(n_jobs, bins)`` matrix of treated
    aggregates — the only ndarray that crosses the pool boundary for the
    whole batch.  ``positions`` index into the caller's job list.
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
    """Score one stacked batch; runs in the worker (or inline).

    Baseline statistics come from the per-process shared cache exactly
    as the per-item detectors' ``_baseline_stats_for`` fetches them, so
    cached and uncached jobs normalise bitwise identically.
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


def detect_only_result(job: AssessmentJob, spec_name: str,
                       record: DetectionRecord) -> JobResult:
    """The final result for a job whose batched answer needs no DiD.

    Covers improved_sst (positive iff anything declared) and funnel
    negatives — mirroring the per-item detectors' outcome construction.
    """
    changes = record.changes
    if spec_name == "improved_sst" and changes:
        outcome = ItemOutcome(positive=True,
                              detection_index=changes[0].index)
    else:
        outcome = ItemOutcome(positive=False)
    return JobResult(job_id=job.job_id, detector=spec_name, outcome=outcome,
                     timings=(("detect", record.detect_seconds),))


# -- packed (deduplicated) pool payloads --------------------------------------

#: A packed matrix: ``None`` for an absent optional payload, otherwise
#: ``(ndim, row_indices)`` into the shared row table.
_PackedMatrix = Optional[Tuple[int, Tuple[int, ...]]]


@dataclass(frozen=True)
class PackedJobs:
    """A batch of jobs with series payloads deduplicated row-wise.

    ``jobs`` carry every scalar field but have their array fields set to
    ``None``; ``refs[i]`` holds the packed treated/control/history of
    ``jobs[i]`` as row indices into ``rows`` — the table of distinct
    series this batch needs, each pickled exactly once.
    """

    jobs: Tuple[AssessmentJob, ...]
    refs: Tuple[Tuple[_PackedMatrix, _PackedMatrix, _PackedMatrix], ...]
    rows: Tuple[np.ndarray, ...]

    @property
    def total_rows(self) -> int:
        return sum(len(ref[1]) for refs in self.refs
                   for ref in refs if ref is not None)


def _pack_matrix(value, rows: List[np.ndarray],
                 index: Dict[bytes, int]) -> _PackedMatrix:
    if value is None:
        return None
    matrix = np.asarray(value, dtype=np.float64)
    ndim = matrix.ndim
    matrix = np.atleast_2d(matrix)
    ids = []
    for row in matrix:
        row = np.ascontiguousarray(row)
        digest = hashlib.blake2b(row.tobytes(), digest_size=16).digest()
        key = digest + row.size.to_bytes(8, "little")
        row_id = index.get(key)
        if row_id is None:
            row_id = len(rows)
            rows.append(row)
            index[key] = row_id
        ids.append(row_id)
    return ndim, tuple(ids)


def _unpack_matrix(packed: _PackedMatrix,
                   rows: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    if packed is None:
        return None
    ndim, ids = packed
    if ndim <= 1:
        return rows[ids[0]]
    return np.vstack([rows[i] for i in ids])


def pack_jobs(jobs: Sequence[AssessmentJob]) -> PackedJobs:
    """Strip and deduplicate the series payloads of a job batch."""
    rows: List[np.ndarray] = []
    index: Dict[bytes, int] = {}
    skeletons = []
    refs = []
    for job in jobs:
        refs.append((_pack_matrix(job.treated, rows, index),
                     _pack_matrix(job.control, rows, index),
                     _pack_matrix(job.history, rows, index)))
        skeletons.append(replace(job, treated=None, control=None,
                                 history=None))
    return PackedJobs(jobs=tuple(skeletons), refs=tuple(refs),
                      rows=tuple(rows))


def unpack_jobs(packed: PackedJobs) -> List[AssessmentJob]:
    """Rebuild the original jobs (content-identical arrays) in order."""
    jobs = []
    for job, (treated, control, history) in zip(packed.jobs, packed.refs):
        jobs.append(replace(
            job,
            treated=_unpack_matrix(treated, packed.rows),
            control=_unpack_matrix(control, packed.rows),
            history=_unpack_matrix(history, packed.rows),
        ))
    return jobs


# -- per-item attribution stage ------------------------------------------------

@dataclass(frozen=True)
class AttributionBatch:
    """DiD attribution work for the funnel jobs that declared a change.

    Jobs travel packed (control/history rows deduplicated); ``changes``
    and ``detect_seconds`` parallel ``packed.jobs``.
    """

    packed: PackedJobs
    positions: Tuple[int, ...]
    changes: Tuple[DetectedChange, ...]
    detect_seconds: Tuple[float, ...]


def run_attribution_batch(
        batch: AttributionBatch) -> List[Tuple[int, JobResult]]:
    """Attribute each declared change; runs in the worker (or inline).

    Mirrors the second half of
    :class:`~repro.engine.detectors.FunnelEngineDetector.assess` —
    identical inputs, identical :class:`~repro.types.Assessment`.
    """
    jobs = unpack_jobs(batch.packed)
    funnels: Dict[DetectorSpec, Funnel] = {}
    out: List[Tuple[int, JobResult]] = []
    for job, position, change, detect_seconds in zip(
            jobs, batch.positions, batch.changes, batch.detect_seconds):
        funnel = funnels.get(job.detector)
        if funnel is None:
            funnel = Funnel(job.detector.option("funnel_config"))
            funnels[job.detector] = funnel
        started = time.perf_counter()
        assessment = funnel.attribute(job.treated, change, job.change_index,
                                      control=job.control,
                                      history=job.history)
        attribute_seconds = time.perf_counter() - started
        index = assessment.change.index if assessment.change else None
        out.append((position, JobResult(
            job_id=job.job_id, detector=job.detector.name,
            outcome=ItemOutcome(positive=assessment.positive,
                                detection_index=index),
            verdict=assessment.verdict,
            did_estimate=assessment.did_estimate,
            timings=(("detect", detect_seconds),
                     ("attribute", attribute_seconds)),
        )))
    return out
