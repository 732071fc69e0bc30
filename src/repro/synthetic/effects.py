"""Injected behaviour changes and other-factor events.

The KPI changes FUNNEL targets (paper section 2.3, Fig. 2) are *level
shifts* and *ramp up/downs*; transient dips are the one-off events the
7-minute persistence rule must reject.  Every effect here is
a pure function of (bin index, current values): effects compose, and the
same effect object can be applied to treated units only (a software-
change impact) or to treated and control alike (an other-factor event
such as an attack or hardware failure, section 3.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ParameterError

__all__ = ["Effect", "LevelShift", "Ramp", "TransientDip", "apply_effects"]


class Effect:
    """Base class: an additive/multiplicative modification of a series."""

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Return a modified copy of ``values`` (never mutates input)."""
        raise NotImplementedError

    start: int


def _check_start(start: int) -> None:
    if start < 0:
        raise ParameterError("effect start must be >= 0, got %d" % start)


@dataclass(frozen=True)
class LevelShift(Effect):
    """A sudden persistent shift: ``values[start:] += magnitude``.

    ``magnitude`` may be negative (paper Fig. 6a: a negative NIC
    throughput shift) or positive (Fig. 6b).
    """

    start: int
    magnitude: float

    def __post_init__(self) -> None:
        _check_start(self.start)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=np.float64, copy=True)
        out[self.start:] += self.magnitude
        return out


@dataclass(frozen=True)
class Ramp(Effect):
    """A gradual drift: linear from 0 to ``magnitude`` over ``duration``
    bins starting at ``start``, then held (Fig. 2's ramp up/down)."""

    start: int
    magnitude: float
    duration: int

    def __post_init__(self) -> None:
        _check_start(self.start)
        if self.duration < 1:
            raise ParameterError("ramp duration must be >= 1 bin")

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=np.float64, copy=True)
        n = out.size
        if self.start >= n:
            return out
        ramp_end = min(self.start + self.duration, n)
        steps = np.arange(1, ramp_end - self.start + 1, dtype=np.float64)
        out[self.start:ramp_end] += self.magnitude * steps / self.duration
        out[ramp_end:] += self.magnitude
        return out


@dataclass(frozen=True)
class TransientDip(Effect):
    """A dip that recovers: shift down at ``start``, back up after
    ``duration`` bins.  Below the persistence threshold this must be
    rejected; above it, it is a genuine (temporary) change — Fig. 7's
    incident has exactly this shape at the 1.5 h scale."""

    start: int
    magnitude: float
    duration: int

    def __post_init__(self) -> None:
        _check_start(self.start)
        if self.duration < 1:
            raise ParameterError("dip duration must be >= 1 bin")
        if self.magnitude <= 0:
            raise ParameterError("dip magnitude must be positive "
                                 "(it is subtracted)")

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=np.float64, copy=True)
        out[self.start:self.start + self.duration] -= self.magnitude
        return out


def apply_effects(values: Sequence[float],
                  effects: Sequence[Effect]) -> np.ndarray:
    """Apply ``effects`` in order to a copy of ``values``."""
    out = np.array(values, dtype=np.float64, copy=True)
    for effect in effects:
        out = effect.apply(out)
    return out
