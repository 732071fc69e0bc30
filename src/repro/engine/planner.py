"""The planner: from software changes and corpus items to assessment jobs.

Two entry points feed the executor:

* :func:`plan_change_jobs` is the fleet path — it expands one recorded
  :class:`~repro.changes.change.SoftwareChange` into its impact set
  (:func:`~repro.topology.impact.identify_impact_set`), then emits one
  job per (monitored entity, KPI, detector), pulling the measurement
  windows from a *series provider*.  The impact-set expansion is timed
  as the ``plan`` stage and each window materialisation as ``fetch``.
* :func:`jobs_from_items` / :func:`job_from_item` is the evaluation
  path — it wraps pre-built corpus items (anything shaped like
  :class:`~repro.synthetic.dataset.EvaluationItem`) without touching
  topology.

A *series provider* is any object with::

    fetch(change, entity_type, entity, metric) -> FetchedWindow

and, optionally, ``truth(change, entity_type, entity, metric) ->
Optional[bool]`` supplying ground-truth labels for synthetic fleets.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..changes.change import SoftwareChange
from ..obs import ObsContext
from ..obs.metrics import BYTE_BUCKETS, LATENCY_BUCKETS
from ..topology.entities import Fleet
from ..topology.impact import identify_impact_set
from .jobs import AssessmentJob, DetectorSpec

__all__ = ["ENTITY_METRICS", "FetchedWindow", "job_from_item",
           "jobs_from_items", "plan_change_jobs"]

FETCH_BYTES_METRIC = "repro_engine_fetch_bytes"
ENTITIES_METRIC = "repro_engine_entities_total"
#: Histogram fed by every planner stage (``plan``, ``fetch``).
STAGE_SECONDS_METRIC = "repro_engine_stage_seconds"


@contextmanager
def _stage(obs: ObsContext, stage: str) -> Iterator[None]:
    """One planner stage: a live span plus a stage-seconds observation."""
    started = time.perf_counter()
    with obs.tracer.span(stage, items=1):
        try:
            yield
        finally:
            obs.metrics.histogram(
                STAGE_SECONDS_METRIC,
                help="Wall-clock seconds per engine stage invocation.",
                buckets=LATENCY_BUCKETS).observe(
                time.perf_counter() - started, stage=stage)


def _window_nbytes(window: "FetchedWindow") -> int:
    total = np.asarray(window.treated).nbytes
    if window.control is not None:
        total += np.asarray(window.control).nbytes
    if window.history is not None:
        total += np.asarray(window.history).nbytes
    return total

#: The KPIs monitored per entity type (the paper's three KPI families:
#: seasonal page views at service level, stationary memory and variable
#: context-switch counts at machine level).
ENTITY_METRICS: Dict[str, Tuple[str, ...]] = {
    "server": ("memory_utilization", "cpu_context_switch_count"),
    "instance": ("memory_utilization",),
    "service": ("page_view_count",),
}


@dataclass(frozen=True)
class FetchedWindow:
    """One entity/KPI measurement window as a provider returns it.

    Attributes:
        treated: treated measurements, ``(units, bins)`` or one series.
        control: peer control matrix or ``None`` (Full Launching,
            affected services).
        history: historical control ``(days, bins)`` or ``None``.
        change_index: bin index of the software change in the window.
    """

    treated: np.ndarray
    control: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None
    change_index: int = 0


def job_from_item(item, spec: DetectorSpec,
                  job_id: Optional[int] = None) -> AssessmentJob:
    """Wrap one corpus item as an assessment job for ``spec``.

    ``item`` is duck-typed against
    :class:`~repro.synthetic.dataset.EvaluationItem`.  The baseline key
    is derived from the item id alone: the same item assessed by several
    detectors shares its cached pre-change statistics.
    """
    return AssessmentJob(
        job_id=item.item_id if job_id is None else job_id,
        detector=spec,
        change_index=item.change_index,
        treated=item.treated,
        control=item.control,
        history=item.history,
        change_id=str(item.change_id),
        entity_type=item.entity_type,
        metric=item.metric,
        baseline_key="item:%s" % item.item_id,
        truth_positive=item.truth.positive,
    )


def jobs_from_items(items: Iterable, spec: DetectorSpec
                    ) -> Iterator[AssessmentJob]:
    """Lazily wrap a corpus stream as jobs for one detector spec."""
    for item in items:
        yield job_from_item(item, spec)


def plan_change_jobs(fleet: Fleet, change: SoftwareChange, provider,
                     spec: DetectorSpec, start_id: int = 0,
                     obs: Optional[ObsContext] = None
                     ) -> Iterator[AssessmentJob]:
    """Expand one software change into per-entity assessment jobs.

    Identifies the change's impact set, then yields one job per
    monitored entity and KPI (see :data:`ENTITY_METRICS`), fetching each
    window from ``provider``.  Job ids are assigned sequentially from
    ``start_id``.

    With an ``obs`` context the impact-set identification is a ``plan``
    span and every window materialisation a ``fetch`` span (each also
    observed in :data:`STAGE_SECONDS_METRIC`); without one nothing is
    opened.
    """
    with _stage(obs, "plan") if obs is not None else nullcontext():
        impact = identify_impact_set(fleet, change.service, change.hostnames)
        entities = impact.monitored_entities()
    if obs is not None:
        obs.metrics.counter(
            ENTITIES_METRIC,
            help="Engine counter 'entities'.").inc(len(entities))

    truth_of = getattr(provider, "truth", None)
    job_id = start_id
    for entity_type, entity in entities:
        for metric in ENTITY_METRICS.get(entity_type, ()):
            if obs is None:
                window = provider.fetch(change, entity_type, entity, metric)
            else:
                with _stage(obs, "fetch"):
                    window = provider.fetch(change, entity_type, entity,
                                            metric)
                n_bytes = _window_nbytes(window)
                obs.metrics.counter(
                    FETCH_BYTES_METRIC + "_total",
                    help="Bytes materialised by window fetches.").inc(n_bytes)
                obs.metrics.histogram(
                    FETCH_BYTES_METRIC,
                    help="Bytes per fetched window.",
                    buckets=BYTE_BUCKETS).observe(n_bytes, metric=metric)
            truth = (truth_of(change, entity_type, entity, metric)
                     if truth_of is not None else None)
            yield AssessmentJob(
                job_id=job_id,
                detector=spec,
                change_index=window.change_index,
                treated=window.treated,
                control=window.control,
                history=window.history,
                change_id=str(change.change_id),
                entity_type=entity_type,
                entity=entity,
                metric=metric,
                baseline_key="%s/%s/%s/%s" % (change.change_id, entity_type,
                                              entity, metric),
                truth_positive=truth,
            )
            job_id += 1
