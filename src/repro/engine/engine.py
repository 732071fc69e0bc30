"""The engine facade: detectors + executor + stage timings in one call.

:class:`AssessmentEngine` is what the entry layers use — the CLI's
``assess-fleet``, the evaluation harness and the deployment simulation
all converge here.  It normalises method names into
:class:`~repro.engine.jobs.DetectorSpec` recipes, runs jobs through the
batched executor, and (for fleet sources) folds the per-job answers into
a JSON-safe :class:`FleetAssessmentReport`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import EngineError
from ..obs import ObsContext
from .cache import shared_cache
from .detectors import spec_for_method
from .executor import EngineConfig, execute_jobs
from .jobs import AssessmentJob, DetectorSpec, JobResult

__all__ = ["AssessmentEngine", "FleetAssessmentReport"]


def _rate(numerator: int, denominator: int) -> Optional[float]:
    """A JSON-safe ratio: ``None`` instead of NaN for empty denominators."""
    if denominator <= 0:
        return None
    return numerator / denominator


@dataclass
class FleetAssessmentReport:
    """Aggregated outcome of one fleet assessment run.

    Per detector: job/positive counts, verdict distribution, and — for
    jobs carrying ground truth — confusion counts with precision/recall.
    ``stages`` maps a stage to its ``calls`` and ``seconds``: the wall
    clocks of ``plan`` (window fetches included) and ``execute``, and the
    per-job ``detect`` / ``attribute`` timings summed over the results.
    """

    jobs: int = 0
    detectors: Dict[str, dict] = field(default_factory=dict)
    stages: Dict[str, dict] = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    throughput_jobs_per_second: Optional[float] = None
    obs: Optional[dict] = None

    @classmethod
    def from_run(cls, jobs: Sequence[AssessmentJob],
                 results: Sequence[JobResult],
                 plan_seconds: float, execute_seconds: float,
                 obs: Optional[ObsContext] = None
                 ) -> "FleetAssessmentReport":
        per_detector: Dict[str, dict] = {}
        for job, result in zip(jobs, results):
            stats = per_detector.setdefault(result.detector, {
                "jobs": 0, "positives": 0, "true_positives": 0,
                "false_positives": 0, "false_negatives": 0,
                "labelled_jobs": 0, "verdicts": {},
            })
            stats["jobs"] += 1
            if result.positive:
                stats["positives"] += 1
            if result.verdict is not None:
                verdict = result.verdict.value
                stats["verdicts"][verdict] = \
                    stats["verdicts"].get(verdict, 0) + 1
            if job.truth_positive is not None:
                stats["labelled_jobs"] += 1
                if result.positive and job.truth_positive:
                    stats["true_positives"] += 1
                elif result.positive:
                    stats["false_positives"] += 1
                elif job.truth_positive:
                    stats["false_negatives"] += 1
        for stats in per_detector.values():
            stats["precision"] = _rate(
                stats["true_positives"],
                stats["true_positives"] + stats["false_positives"])
            stats["recall"] = _rate(
                stats["true_positives"],
                stats["true_positives"] + stats["false_negatives"])

        totals = {"plan": (1, plan_seconds), "execute": (1, execute_seconds)}
        for result in results:
            for stage, seconds in result.timings:
                calls, total = totals.get(stage, (0, 0.0))
                totals[stage] = (calls + 1, total + seconds)
        stages = {stage: {"calls": calls, "seconds": round(total, 6)}
                  for stage, (calls, total) in sorted(totals.items())}
        seconds = stages["execute"]["seconds"]
        throughput = (len(results) / seconds) if seconds > 0 else None
        obs_summary = None
        if obs is not None:
            obs_summary = {"trace_id": obs.tracer.trace_id,
                           "span_count": obs.span_count}
        return cls(
            jobs=len(results),
            detectors=per_detector,
            stages=stages,
            cache=shared_cache().info(),
            throughput_jobs_per_second=throughput,
            obs=obs_summary,
        )

    def as_dict(self) -> dict:
        """The JSON document ``repro assess-fleet`` prints."""
        doc = {
            "jobs": self.jobs,
            "detectors": self.detectors,
            "stages": self.stages,
            "cache": self.cache,
            "throughput_jobs_per_second": self.throughput_jobs_per_second,
        }
        if self.obs is not None:
            doc["obs"] = self.obs
        return doc


class AssessmentEngine:
    """One configured engine: detector specs + executor sizing.

    ``detectors`` accepts method names (resolved through
    :func:`~repro.engine.detectors.spec_for_method` with the given
    parameter sets) or ready-made :class:`DetectorSpec` objects.
    """

    def __init__(self,
                 detectors: Iterable[Union[str, DetectorSpec]] = ("funnel",),
                 config: Optional[EngineConfig] = None,
                 funnel_config=None, cusum_params=None, mrls_params=None,
                 wow_params=None,
                 obs: Optional[ObsContext] = None) -> None:
        self.specs: Tuple[DetectorSpec, ...] = tuple(
            spec if isinstance(spec, DetectorSpec) else spec_for_method(
                spec, funnel_config=funnel_config, cusum_params=cusum_params,
                mrls_params=mrls_params, wow_params=wow_params)
            for spec in detectors
        )
        if not self.specs:
            raise EngineError("at least one detector")
        self.config = config or EngineConfig()
        self.obs = obs

    def run(self, jobs: Iterable[AssessmentJob]) -> List[JobResult]:
        """Execute a prepared job stream (results in input order)."""
        return execute_jobs(jobs, config=self.config, obs=self.obs)

    def assess_fleet(self, source) -> FleetAssessmentReport:
        """Plan, execute and summarise a fleet source's full job set.

        ``source`` is any object with ``plan_jobs(specs, obs) ->
        Iterable[AssessmentJob]`` — e.g.
        :class:`~repro.engine.fleet.SyntheticFleetSource`.

        With an observability context attached, the whole run lives
        under one ``assess_fleet`` root span: planning and fetching
        spans from the planner, then the executor's span tree.
        """
        report, _, _ = self.assess_fleet_detailed(source)
        return report

    def assess_fleet_detailed(
            self, source
    ) -> Tuple[FleetAssessmentReport, List[AssessmentJob], List[JobResult]]:
        """:meth:`assess_fleet`, additionally returning the per-job data.

        The live replay driver compares its streamed verdicts against
        the zipped ``(jobs, results)``; the report alone folds that
        detail away.
        """
        root = (self.obs.tracer.span("assess_fleet") if self.obs is not None
                else nullcontext())
        with root:
            started = time.perf_counter()
            jobs = list(source.plan_jobs(self.specs, obs=self.obs))
            planned = time.perf_counter()
            results = self.run(jobs)
            finished = time.perf_counter()
        report = FleetAssessmentReport.from_run(
            jobs, results, plan_seconds=planned - started,
            execute_seconds=finished - planned, obs=self.obs)
        return report, jobs, results
