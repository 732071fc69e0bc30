"""A simulation clock quantised to collection bins.

All simulation time is integer seconds from an arbitrary epoch; the
clock advances in whole collection intervals (1 minute by default,
matching the paper's data collection interval) and hands out the bin
boundaries the agents and the deployment simulation synchronise on.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from ..telemetry.timeseries import MINUTE

__all__ = ["SimulationClock"]


class SimulationClock:
    """Monotonic bin-aligned clock.

    Example:
        >>> clock = SimulationClock(start=0)
        >>> clock.tick()
        60
        >>> clock.now
        60
        >>> clock.advance_minutes(10)
        660
    """

    def __init__(self, start: int = 0, bin_seconds: int = MINUTE) -> None:
        if bin_seconds <= 0:
            raise ParameterError("bin_seconds must be positive")
        if start % bin_seconds:
            raise ParameterError(
                "start %d is not aligned to %d-second bins"
                % (start, bin_seconds)
            )
        self._now = start
        self.bin_seconds = bin_seconds

    @property
    def now(self) -> int:
        return self._now

    def tick(self) -> int:
        """Advance one collection bin; returns the new time."""
        self._now += self.bin_seconds
        return self._now

    def advance_minutes(self, minutes: int) -> int:
        if minutes < 0:
            raise ParameterError("cannot advance a negative duration")
        self._now += minutes * MINUTE
        return self._now
