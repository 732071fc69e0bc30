"""Time-binned KPI series.

Paper section 3.1: "A time-series is constructed for each KPI by dividing
the original event series into equal time-bins.  One min is used as the
time-bin in FUNNEL."  :class:`TimeSeries` is that object: a start time, a
bin width, and one value per bin, with the alignment/slicing/resampling
operations the detectors and the DiD panels need.

Timestamps are plain integers (seconds since an arbitrary epoch) —
simulation time, not wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import ParameterError, TelemetryError
from ..types import as_float_array

__all__ = ["TimeSeries", "bin_events", "MINUTE", "DAY"]

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
        >>> ts.index_of(119)
        1
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

    def timestamps(self) -> np.ndarray:
        """The left edge of every bin."""
        return self.start + np.arange(len(self)) * self.bin_seconds

    def index_of(self, timestamp: int) -> int:
        """The bin index covering ``timestamp``.

        Raises:
            TelemetryError: when the timestamp is outside the series.
        """
        if not self.start <= timestamp < self.end:
            raise TelemetryError(
                "timestamp %d outside series [%d, %d)"
                % (timestamp, self.start, self.end)
            )
        return (timestamp - self.start) // self.bin_seconds

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

    def resample(self, factor: int) -> "TimeSeries":
        """Aggregate ``factor`` consecutive bins into one by averaging.

        Trailing bins that do not fill a block are dropped.
        """
        if factor < 1:
            raise ParameterError("factor must be >= 1, got %d" % factor)
        if factor == 1:
            # An owning copy, like every other transform: returning
            # ``self`` would alias the caller's buffer and re-open the
            # store-view corruption hazard for the factor-1 fast path.
            return TimeSeries(self.start, self.bin_seconds,
                              self.values.copy())
        usable = (len(self) // factor) * factor
        blocks = self.values[:usable].reshape(-1, factor)
        return TimeSeries(
            start=self.start,
            bin_seconds=self.bin_seconds * factor,
            values=blocks.mean(axis=1),
        )

    def shifted(self, seconds: int) -> "TimeSeries":
        """The same values relabelled ``seconds`` later (owning copy)."""
        return TimeSeries(self.start + seconds, self.bin_seconds,
                          self.values.copy())

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

    @staticmethod
    def average(series: Sequence["TimeSeries"]) -> "TimeSeries":
        """Pointwise mean of aligned series (service-KPI aggregation)."""
        series = list(series)
        if not series:
            raise TelemetryError("cannot average zero series")
        first = series[0]
        for other in series[1:]:
            first._check_aligned(other)
        stacked = np.vstack([s.values for s in series])
        return TimeSeries(first.start, first.bin_seconds,
                          stacked.mean(axis=0))


def bin_events(event_times: Iterable[int], start: int, end: int,
               bin_seconds: int = MINUTE,
               weights: Optional[Sequence[float]] = None) -> TimeSeries:
    """Divide an event stream into equal time-bins (paper section 3.1).

    Args:
        event_times: timestamps of individual events (e.g. page views).
        start, end: the covered interval ``[start, end)``; events outside
            it are dropped.
        bin_seconds: bin width (1 minute by default).
        weights: optional per-event weights (e.g. response delays); the
            result is then the per-bin weight *sum*, not the event count.

    Returns:
        A :class:`TimeSeries` of per-bin counts (or weight sums).
    """
    if end <= start:
        raise ParameterError("end must exceed start")
    if (end - start) % bin_seconds:
        raise ParameterError(
            "interval length %d is not a multiple of bin width %d"
            % (end - start, bin_seconds)
        )
    times = np.fromiter(event_times, dtype=np.int64)
    n_bins = (end - start) // bin_seconds
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != times.shape:
            raise ParameterError("weights must match event_times in length")
    keep = (times >= start) & (times < end)
    times = times[keep]
    bins = (times - start) // bin_seconds
    if weights is None:
        counts = np.bincount(bins, minlength=n_bins).astype(np.float64)
    else:
        counts = np.bincount(bins, weights=weights[keep], minlength=n_bins)
    return TimeSeries(start=start, bin_seconds=bin_seconds, values=counts)
