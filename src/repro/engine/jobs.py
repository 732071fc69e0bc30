"""The engine's job model: what to assess, with what, and the answer.

An :class:`AssessmentJob` is the unit of work: one (software change,
entity, KPI) item plus the :class:`DetectorSpec` naming the method that
must assess it.  Jobs are frozen value objects — numpy payloads plus
parameter dataclasses — so a job means the same thing in any batch.

The executor (:func:`repro.engine.executor.execute_jobs`) turns each
job into a :class:`JobResult`: FUNNEL's
:class:`~repro.types.Assessment` for a ``funnel`` job, an
:class:`ItemOutcome` — the method-agnostic detection answer the
evaluation harness consumes — for any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..types import Assessment, DetectedChange, Verdict

__all__ = ["ItemOutcome", "DetectorSpec", "AssessmentJob", "JobResult"]


@dataclass(frozen=True)
class ItemOutcome:
    """One method's answer for one item."""

    positive: bool
    detection_index: Optional[int] = None

    @classmethod
    def of(cls, changes: Sequence[DetectedChange]) -> "ItemOutcome":
        """Positive at the first of ``changes``; negative if none."""
        return cls(True, changes[0].index) if changes else cls(False)

    def delay(self, truth_start: int) -> Optional[int]:
        if self.detection_index is None:
            return None
        return max(0, self.detection_index - truth_start)


@dataclass(frozen=True)
class DetectorSpec:
    """A hashable recipe for one method's detector.

    ``options`` is a sorted tuple of ``(key, value)`` pairs (parameter
    dataclasses, thresholds, ...) the detector is built with.  Specs —
    not detector instances — travel with jobs: the executor stacks the
    FUNNEL-family jobs of one spec, and builds each baseline job its
    own detector (:func:`repro.engine.executor.run_job`).
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
            name it determines the detector's random seed, so a job's
            result does not depend on the batch it runs in.
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

    A ``funnel`` job's ``answer`` is the :class:`~repro.types.Assessment`
    :meth:`~repro.core.funnel.Funnel.assess` gives its item — a detect
    negative's is ``NO_CHANGE`` — and its verdict, DiD estimate, control
    kind and :class:`ItemOutcome` are read from it.  Any other
    detector's ``answer`` is an :class:`ItemOutcome` alone: no verdict.

    ``timings`` holds per-stage wall-clock seconds (``detect``,
    ``attribute``; a stacked detect's time is shared evenly by its
    rows); a fleet report sums them into
    :attr:`~repro.engine.engine.FleetAssessmentReport.stages`.
    """

    job_id: int
    detector: str
    answer: Union[Assessment, ItemOutcome]
    timings: Tuple[Tuple[str, float], ...] = field(default=())

    @property
    def assessment(self) -> Optional[Assessment]:
        return self.answer if isinstance(self.answer, Assessment) else None

    @property
    def outcome(self) -> ItemOutcome:
        if self.assessment is None:
            return self.answer
        change = self.answer.change
        return ItemOutcome(self.answer.positive, change and change.index)

    @property
    def verdict(self) -> Optional[Verdict]:
        return getattr(self.answer, "verdict", None)

    @property
    def did_estimate(self) -> Optional[float]:
        return getattr(self.answer, "did_estimate", None)

    @property
    def control(self) -> Optional[str]:
        """``"peers"`` or ``"history"`` when a DiD comparison ran."""
        return getattr(self.answer, "control", None)

    @property
    def positive(self) -> bool:
        return self.answer.positive
