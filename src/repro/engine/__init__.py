"""The fleet-scale assessment engine.

FUNNEL's value in the paper is assessing *every* KPI of a change's
impact set — 2.2 million KPIs per day at Baidu — within minutes of the
change.  This package is the shared execution layer that makes the
reproduction work the same way: instead of three disconnected per-item
call paths (the evaluation runner's ad-hoc adapters, the CLI, the
deployment simulation), every assessment is

1. **planned** — a software change plus its impact set (from
   :mod:`repro.topology.impact`) expands into
   :class:`~repro.engine.jobs.AssessmentJob` records, one per
   (entity, KPI, detector);
2. **executed** — funnel-family jobs of equal series length are stacked
   and scored in one pass per batch, with only the declared ones
   proceeding to DiD attribution; baselines run one by one through the
   :class:`~repro.engine.jobs.Detector` protocol — inline or across
   ``concurrent.futures`` process workers, with per-entity baseline
   statistics cached so repeated windows never recompute them; and
3. **observed** — a fleet report carries per-stage calls and seconds
   (plan, detect, attribute, execute), and — when an
   :class:`~repro.obs.ObsContext` is attached — every stage records
   structured spans and metrics through :mod:`repro.obs`, with
   worker-side telemetry serialized back across the process-pool
   boundary.

Results never depend on batching, worker count, or scheduling order:
stacked scoring is bitwise the per-series pipeline, and a job's detector
is built from its :class:`~repro.engine.jobs.DetectorSpec` with a seed
derived from the job identity alone.
"""

from ..obs import ObsContext
from .batching import (BATCHABLE_DETECTORS, AttributionBatch, DetectBatch,
                       DetectionRecord, PackedJobs, pack_jobs,
                       plan_detect_batches, run_attribution_batch,
                       run_detect_batch, unpack_jobs)
from .cache import BaselineStatsCache, reset_shared_cache, shared_cache
from .detectors import (build_detector, detector_names, register_detector,
                        spec_for_method)
from .engine import AssessmentEngine, FleetAssessmentReport
from .executor import EngineConfig, execute_jobs, job_seed, run_job
from .fleet import FleetScenarioSpec, SyntheticFleetSource
from .jobs import AssessmentJob, Detector, DetectorSpec, ItemOutcome, JobResult
from .planner import (ENTITY_METRICS, FetchedWindow, job_from_item,
                      jobs_from_items, plan_change_jobs)

__all__ = [
    "AssessmentEngine", "AssessmentJob", "AttributionBatch",
    "BATCHABLE_DETECTORS", "BaselineStatsCache",
    "DetectBatch", "DetectionRecord",
    "Detector", "DetectorSpec", "EngineConfig", "ENTITY_METRICS",
    "FetchedWindow", "FleetAssessmentReport", "FleetScenarioSpec",
    "ItemOutcome", "JobResult", "ObsContext",
    "PackedJobs", "SyntheticFleetSource",
    "build_detector", "detector_names", "execute_jobs", "job_from_item",
    "job_seed", "jobs_from_items", "pack_jobs", "plan_change_jobs",
    "plan_detect_batches", "register_detector", "reset_shared_cache",
    "run_attribution_batch", "run_detect_batch", "run_job",
    "shared_cache", "spec_for_method", "unpack_jobs",
]
