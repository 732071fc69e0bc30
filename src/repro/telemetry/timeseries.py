"""Time-binned KPI series.

Paper section 3.1: "A time-series is constructed for each KPI by dividing
the original event series into equal time-bins.  One min is used as the
time-bin in FUNNEL."  :class:`TimeSeries` is that object: a start time, a
bin width, and one value per bin, with the alignment and slicing
operations the detectors and the DiD panels need.

Timestamps are plain integers (seconds since an arbitrary epoch) —
simulation time, not wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError, TelemetryError
from ..types import as_float_array

__all__ = ["TimeSeries", "MINUTE", "DAY"]

#: One minute, in the integer time unit used throughout (seconds).
MINUTE = 60
#: One day, in seconds.
DAY = 24 * 60 * MINUTE


@dataclass(frozen=True)
class TimeSeries:
    """An equally-binned series: ``values[i]`` covers
    ``[start + i*bin_seconds, start + (i+1)*bin_seconds)``.

    Example:
        >>> ts = TimeSeries(start=0, bin_seconds=60, values=[1.0, 2.0, 3.0])
        >>> ts.end
        180
        >>> ts.slice_time(60, 180).values.tolist()
        [2.0, 3.0]
    """

    start: int
    bin_seconds: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ParameterError(
                "bin_seconds must be positive, got %d" % self.bin_seconds
            )
        object.__setattr__(self, "values", as_float_array(self.values))

    @classmethod
    def _of_row(cls, start: int, bin_seconds: int,
                values: np.ndarray) -> "TimeSeries":
        """Wrap a row of a block already validated whole, unchecked."""
        series = object.__new__(cls)
        series.__dict__.update(start=start, bin_seconds=bin_seconds,
                               values=values)
        return series

    # -- basic geometry ------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end(self) -> int:
        """One past the last covered timestamp."""
        return self.start + len(self) * self.bin_seconds

    # -- transforms ----------------------------------------------------------

    def slice_time(self, from_time: int, to_time: int) -> "TimeSeries":
        """The sub-series covering ``[from_time, to_time)``.

        Bounds are clamped to the series extent; the result may be empty.
        Bounds must be bin-aligned relative to ``start``.
        """
        for bound in (from_time, to_time):
            if (bound - self.start) % self.bin_seconds:
                raise TelemetryError(
                    "bound %d is not aligned to %d-second bins starting "
                    "at %d" % (bound, self.bin_seconds, self.start)
                )
        lo = max(0, (from_time - self.start) // self.bin_seconds)
        hi = min(len(self), (to_time - self.start) // self.bin_seconds)
        hi = max(lo, hi)
        return TimeSeries(
            start=self.start + lo * self.bin_seconds,
            bin_seconds=self.bin_seconds,
            values=self.values[lo:hi].copy(),
        )

    # -- arithmetic ------------------------------------------------------------

    def _check_aligned(self, other: "TimeSeries") -> None:
        if (self.start != other.start
                or self.bin_seconds != other.bin_seconds
                or len(self) != len(other)):
            raise TelemetryError(
                "series are not aligned: [%d,+%dx%d] vs [%d,+%dx%d]"
                % (self.start, len(self), self.bin_seconds,
                   other.start, len(other), other.bin_seconds)
            )

    def __add__(self, other: "TimeSeries") -> "TimeSeries":
        self._check_aligned(other)
        return TimeSeries(self.start, self.bin_seconds,
                          self.values + other.values)
