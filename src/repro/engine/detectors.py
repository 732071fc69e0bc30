"""Engine detectors: every assessment method behind one protocol.

This module adapts the repo's detectors — the full FUNNEL pipeline, the
SST-only ablation, and the CUSUM / MRLS / week-over-week baselines — to
the :class:`~repro.engine.jobs.Detector` protocol, and keeps a registry
mapping method names to factories.  The executor never sees a concrete
detector class: it calls :func:`build_detector` with the job's
:class:`~repro.engine.jobs.DetectorSpec` and a per-job seed, so every
job gets a freshly constructed, deterministically seeded instance.
That construction discipline is what makes parallel execution
bit-identical to serial — a detector with internal random state (CUSUM's
bootstrap) never carries that state across jobs.

What each method is *allowed to see* matches the evaluation setting of
section 4.2:

* ``funnel`` — treated + control/history, detection then DiD
  attribution (timed as separate stages);
* ``improved_sst`` — the same detector, no DiD: any post-change
  detection counts as positive;
* ``cusum`` / ``mrls`` / ``wow`` — the baseline on the treated
  aggregate only, no DiD.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from ..baselines.cusum import CusumDetector, CusumParams
from ..baselines.mrls import MrlsDetector, MrlsParams
from ..baselines.wow import WeekOverWeekDetector, WowParams
from ..core.funnel import Funnel, FunnelConfig
from ..core.scoring import _reportable
from ..exceptions import EngineError, InsufficientDataError
from .cache import shared_cache
from .jobs import AssessmentJob, Detector, DetectorSpec, ItemOutcome, JobResult

__all__ = ["register_detector", "detector_names", "build_detector",
           "spec_for_method", "FunnelEngineDetector",
           "SstOnlyEngineDetector", "SeriesEngineDetector"]

DetectorFactory = Callable[[DetectorSpec, int], Detector]

_FACTORIES: Dict[str, DetectorFactory] = {}


def register_detector(name: str, factory: DetectorFactory) -> None:
    """Register ``factory`` as the builder for method ``name``.

    The factory receives the job's spec and the per-job seed and must
    return a fresh :class:`~repro.engine.jobs.Detector`.
    """
    _FACTORIES[name] = factory


def detector_names() -> Tuple[str, ...]:
    """The registered method names, sorted."""
    return tuple(sorted(_FACTORIES))


def build_detector(spec: DetectorSpec, seed: int = 0) -> Detector:
    """Construct a fresh detector for ``spec`` with the given seed."""
    factory = _FACTORIES.get(spec.name)
    if factory is None:
        raise EngineError(
            "unknown detector %r; registered: %s"
            % (spec.name, ", ".join(detector_names()) or "(none)")
        )
    return factory(spec, seed)


def spec_for_method(name: str,
                    funnel_config: Optional[FunnelConfig] = None,
                    cusum_params: Optional[CusumParams] = None,
                    mrls_params: Optional[MrlsParams] = None,
                    wow_params: Optional[WowParams] = None) -> DetectorSpec:
    """Build the :class:`DetectorSpec` for a registered method name.

    Only the options a method understands are attached to its spec, so
    two specs for the same method with irrelevant extra arguments still
    compare (and cache) equal.
    """
    if name in ("funnel", "improved_sst"):
        return DetectorSpec.create(name, funnel_config=funnel_config)
    if name == "cusum":
        return DetectorSpec.create(name, cusum_params=cusum_params)
    if name == "mrls":
        return DetectorSpec.create(name, mrls_params=mrls_params)
    if name == "wow":
        return DetectorSpec.create(name, wow_params=wow_params)
    raise EngineError(
        "unknown method %r; registered: %s"
        % (name, ", ".join(detector_names()) or "(none)")
    )


def _baseline_stats_for(job: AssessmentJob) -> Optional[Tuple[float, float]]:
    """Cached (median, MAD) of the job's pre-change aggregate, if keyed."""
    if job.baseline_key is None:
        return None
    key = (job.baseline_key, job.change_index)
    return shared_cache().stats(key, job.treated_aggregate,
                                max(job.change_index, 1))


class FunnelEngineDetector:
    """The full Fig. 3 pipeline as an engine detector.

    Detection and attribution are timed separately so the executor can
    report where fleet assessment time goes; the pre-change baseline
    statistics come from the shared per-process cache when the job
    carries a ``baseline_key``.
    """

    name = "funnel"

    def __init__(self, config: Optional[FunnelConfig] = None) -> None:
        self.funnel = Funnel(config)

    def assess(self, job: AssessmentJob) -> JobResult:
        stats = _baseline_stats_for(job)
        started = time.perf_counter()
        changes = self.funnel.detect(job.treated_aggregate, job.change_index,
                                     baseline_stats=stats, first_only=True)
        detect_seconds = time.perf_counter() - started
        if not changes:
            return JobResult(
                job_id=job.job_id, detector=self.name,
                outcome=ItemOutcome(positive=False),
                timings=(("detect", detect_seconds),),
            )
        started = time.perf_counter()
        assessment = self.funnel.attribute(
            job.treated, changes[0], job.change_index,
            control=job.control, history=job.history,
        )
        attribute_seconds = time.perf_counter() - started
        index = assessment.change.index if assessment.change else None
        return JobResult(
            job_id=job.job_id, detector=self.name,
            outcome=ItemOutcome(positive=assessment.positive,
                                detection_index=index),
            verdict=assessment.verdict,
            did_estimate=assessment.did_estimate,
            timings=(("detect", detect_seconds),
                     ("attribute", attribute_seconds)),
        )


class SstOnlyEngineDetector:
    """The improved-SST ablation: detection without attribution."""

    name = "improved_sst"

    def __init__(self, config: Optional[FunnelConfig] = None) -> None:
        self.funnel = Funnel(config)

    def assess(self, job: AssessmentJob) -> JobResult:
        stats = _baseline_stats_for(job)
        started = time.perf_counter()
        changes = self.funnel.detect(job.treated_aggregate, job.change_index,
                                     baseline_stats=stats, first_only=True)
        detect_seconds = time.perf_counter() - started
        outcome = (ItemOutcome(positive=True,
                               detection_index=changes[0].index)
                   if changes else ItemOutcome(positive=False))
        return JobResult(job_id=job.job_id, detector=self.name,
                         outcome=outcome,
                         timings=(("detect", detect_seconds),))


class SeriesEngineDetector:
    """Adapter for baselines that detect on a single aggregate series.

    Wraps any object with ``detect(series, first_only=...) ->
    List[DetectedChange]`` (CUSUM, MRLS, week-over-week).  Detections
    starting before the software change (1-bin slack for start
    estimation jitter) are by definition not caused by it and are
    dropped; a series too short for the method counts as a negative.
    """

    def __init__(self, name: str, detector) -> None:
        self.name = name
        self._detector = detector

    def assess(self, job: AssessmentJob) -> JobResult:
        started = time.perf_counter()
        try:
            changes = self._detector.detect(job.treated_aggregate,
                                            first_only=False)
        except InsufficientDataError:
            changes = []
        relevant = [c for c in changes if _reportable(c, job.change_index)]
        detect_seconds = time.perf_counter() - started
        outcome = (ItemOutcome(positive=True,
                               detection_index=relevant[0].index)
                   if relevant else ItemOutcome(positive=False))
        return JobResult(job_id=job.job_id, detector=self.name,
                         outcome=outcome,
                         timings=(("detect", detect_seconds),))


def _funnel_factory(spec: DetectorSpec, seed: int) -> Detector:
    return FunnelEngineDetector(spec.option("funnel_config"))


def _sst_only_factory(spec: DetectorSpec, seed: int) -> Detector:
    return SstOnlyEngineDetector(spec.option("funnel_config"))


def _cusum_factory(spec: DetectorSpec, seed: int) -> Detector:
    return SeriesEngineDetector(
        "cusum", CusumDetector(spec.option("cusum_params"), seed=seed))


def _mrls_factory(spec: DetectorSpec, seed: int) -> Detector:
    return SeriesEngineDetector("mrls",
                                MrlsDetector(spec.option("mrls_params")))


def _wow_factory(spec: DetectorSpec, seed: int) -> Detector:
    return SeriesEngineDetector(
        "wow", WeekOverWeekDetector(spec.option("wow_params")))


register_detector("funnel", _funnel_factory)
register_detector("improved_sst", _sst_only_factory)
register_detector("cusum", _cusum_factory)
register_detector("mrls", _mrls_factory)
register_detector("wow", _wow_factory)
