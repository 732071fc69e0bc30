"""Common lightweight types shared across the repro packages.

The types here are deliberately dependency-free (NumPy and the leaf
:mod:`repro.exceptions` only) so that any
subpackage may import them without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "ChangeKind",
    "LaunchMode",
    "KpiCharacter",
    "Verdict",
    "DetectedChange",
    "Assessment",
    "as_float_array",
]


class ChangeKind(enum.Enum):
    """The two software-change types FUNNEL assesses (paper section 2.1)."""

    SOFTWARE_UPGRADE = "software_upgrade"
    CONFIG_CHANGE = "config_change"


class LaunchMode(enum.Enum):
    """How a software change is rolled out (paper sections 1 and 3.2.4)."""

    DARK = "dark"
    """Dark Launching: deployed to a subset of servers first, leaving
    cservers/cinstances available as a control group."""

    FULL = "full"
    """Full Launching: deployed to all servers at once; the control group
    must come from 30 days of historical measurements instead."""


class KpiCharacter(enum.Enum):
    """KPI archetypes used throughout the paper's evaluation (section 4.2.1)."""

    SEASONAL = "seasonal"
    STATIONARY = "stationary"
    VARIABLE = "variable"


class Verdict(enum.Enum):
    """Outcome of FUNNEL's per-item assessment (Fig. 3 terminal states)."""

    NO_CHANGE = "no_change"
    """No behaviour change was detected in the KPI."""

    CAUSED_BY_CHANGE = "caused_by_change"
    """A behaviour change was detected and attributed to the software
    change by the DiD comparison."""

    OTHER_REASONS = "other_reasons"
    """A behaviour change was detected but the control-group comparison
    attributed it to other factors (step 10 in Fig. 3)."""

    SEASONALITY = "seasonality"
    """A behaviour change was detected but the historical comparison
    attributed it to time-of-day / day-of-week effects (step 11)."""

    @property
    def positive(self) -> bool:
        """Whether this verdict reports a software-change-induced change."""
        return self is Verdict.CAUSED_BY_CHANGE


@dataclass(frozen=True)
class DetectedChange:
    """A behaviour change found by a change-point detector.

    Attributes:
        index: sample index (time-bin) at which the change was *declared*.
        start_index: estimated sample index at which the change *started*.
        score: the detector's change score at the declaring position —
            the value its threshold compared, the same live and offline.
        kind: ``"level_shift"`` or ``"ramp"`` (paper Fig. 2), or
            ``"unclassified"`` when the detector does not classify.
        direction: +1 for an increase, -1 for a decrease, 0 if unknown.
    """

    index: int
    start_index: int
    score: float
    kind: str = "unclassified"
    direction: int = 0

    def __post_init__(self) -> None:
        if self.start_index > self.index:
            raise ValueError(
                "change start %d cannot follow its detection at %d"
                % (self.start_index, self.index)
            )

    @property
    def delay(self) -> int:
        """Detection delay in time-bins (paper section 4.4)."""
        return self.index - self.start_index


@dataclass(frozen=True)
class Assessment:
    """FUNNEL's full answer for one (change, entity, KPI) item.

    Attributes:
        verdict: terminal state of the Fig. 3 decision flow.
        change: the underlying detection, if any behaviour change was found.
        did_estimate: the DiD impact estimator ``alpha`` (Eq. 16), when a
            control-group comparison ran; ``None`` otherwise.
        control: which control group was used: ``"peers"`` for
            cservers/cinstances, ``"history"`` for the 30-day baseline,
            ``None`` when no change was detected.
    """

    verdict: Verdict
    change: Optional[DetectedChange] = None
    did_estimate: Optional[float] = None
    control: Optional[str] = None
    notes: tuple = field(default=())

    @property
    def positive(self) -> bool:
        """Whether the item is reported as impacted by the software change."""
        return self.verdict.positive


def as_float_array(values: Sequence[float], name: str = "series") -> np.ndarray:
    """Coerce ``values`` to a contiguous 1-D float64 array.

    Raises:
        repro.exceptions.ParameterError: if the input is not 1-dimensional
            or contains non-finite entries.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ParameterError("%s must be 1-D, got shape %s" % (name, arr.shape))
    if arr.size and not np.isfinite(arr).all():
        raise ParameterError("%s contains NaN or infinite values" % name)
    return arr
