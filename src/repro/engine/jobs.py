"""The engine's job model: what to assess, with what, and the answer.

An :class:`AssessmentJob` is the unit of work: one (software change,
entity, KPI) item plus the :class:`DetectorSpec` naming the method that
must assess it.  Jobs are frozen value objects — numpy payloads plus
parameter dataclasses — so a job means the same thing in any batch.

A :class:`Detector` (the protocol every method implements) turns a job
into a :class:`JobResult`.  :class:`ItemOutcome` is the method-agnostic
detection answer the evaluation harness consumes; it used to live in
:mod:`repro.eval.runner` and is re-exported from there for
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..types import Verdict

__all__ = ["ItemOutcome", "DetectorSpec", "AssessmentJob", "JobResult",
           "Detector"]


@dataclass(frozen=True)
class ItemOutcome:
    """One method's answer for one item."""

    positive: bool
    detection_index: Optional[int] = None

    def delay(self, truth_start: int) -> Optional[int]:
        if self.detection_index is None:
            return None
        return max(0, self.detection_index - truth_start)


@dataclass(frozen=True)
class DetectorSpec:
    """A serialisable recipe for building a registered detector.

    ``options`` is a sorted tuple of ``(key, value)`` pairs (parameter
    dataclasses, thresholds, ...) forwarded to the detector factory.
    Specs — not detector instances — travel with jobs, so every worker
    (and every job, see :func:`repro.engine.executor.execute_jobs`)
    builds its own detector deterministically.
    """

    name: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def create(cls, name: str, **options: object) -> "DetectorSpec":
        """Build a spec, dropping ``None``-valued options."""
        kept = tuple(sorted((key, value) for key, value in options.items()
                            if value is not None))
        return cls(name=name, options=kept)

    def option(self, key: str, default: object = None) -> object:
        for name, value in self.options:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class AssessmentJob:
    """One (change, entity, KPI, detector) unit of engine work.

    Attributes:
        job_id: caller-assigned identity; with ``seed`` and the detector
            name it determines the detector's random seed, which is what
            makes parallel execution bit-identical to serial.
        detector: the method that must assess this job.
        change_index: bin index of the software change in ``treated``.
        treated: treated measurements, ``(units, bins)`` or one series.
        control: peer control matrix (cservers/cinstances) or ``None``.
        history: historical control ``(days, bins)`` or ``None``.
        change_id / entity_type / entity / metric: identity labels for
            reports; empty strings when unknown (corpus items).
        baseline_key: cache key for the pre-change baseline statistics.
            Callers must guarantee that two jobs sharing a key have
            bit-identical pre-change treated aggregates; ``None``
            disables caching for the job.
        truth_positive: ground-truth label when the caller knows it.
        seed: extra entropy mixed into the detector seed.
    """

    job_id: int
    detector: DetectorSpec
    change_index: int
    treated: np.ndarray
    control: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None
    change_id: str = ""
    entity_type: str = ""
    entity: str = ""
    metric: str = ""
    baseline_key: Optional[str] = None
    truth_positive: Optional[bool] = None
    seed: int = 0

    @property
    def treated_aggregate(self) -> np.ndarray:
        """The treated units' mean series (detection input)."""
        return np.atleast_2d(np.asarray(self.treated,
                                        dtype=np.float64)).mean(axis=0)


@dataclass(frozen=True)
class JobResult:
    """A detector's full answer for one job.

    ``timings`` holds per-stage wall-clock seconds measured inside the
    detector (``detect``, ``attribute``); a fleet report sums them into
    :attr:`~repro.engine.engine.FleetAssessmentReport.stages`.
    """

    job_id: int
    detector: str
    outcome: ItemOutcome
    verdict: Optional[Verdict] = None
    did_estimate: Optional[float] = None
    timings: Tuple[Tuple[str, float], ...] = field(default=())

    @property
    def positive(self) -> bool:
        return self.outcome.positive


@runtime_checkable
class Detector(Protocol):
    """The one contract every assessment method implements.

    Implementations must be stateless across :meth:`assess` calls (or
    derive all randomness from construction-time seeds): the engine
    builds one instance per job so that results are independent of
    batching and scheduling.
    """

    name: str

    def assess(self, job: AssessmentJob) -> JobResult:
        """Assess one job and return the full result."""
        ...
