"""CSV interchange for KPI series.

Two layouts are supported, both with a header row:

* **long** — ``timestamp,value``: one series, one sample per row;
* **wide** — ``timestamp,<unit>,<unit>,...``: one column per
  server/instance, which is the natural export of a metrics system and
  maps directly onto the ``(units, bins)`` matrices the DiD panels use.

Timestamps must be integers (simulation seconds or epoch seconds),
strictly increasing and equally spaced — the loader infers the bin width
and refuses gaps, because silently resampling operational data is how
impact assessments go wrong.
"""

from __future__ import annotations

import csv
import pathlib
from typing import List, Sequence, TextIO, Tuple, Union

import numpy as np

from ..exceptions import TelemetryError
from ..telemetry.timeseries import TimeSeries

__all__ = ["read_series", "read_matrix", "write_matrix"]

PathOrFile = Union[str, pathlib.Path, TextIO]


def _open_for(source: PathOrFile, mode: str):
    if isinstance(source, (str, pathlib.Path)):
        return open(source, mode, newline=""), True
    return source, False


def _parse_timestamps(raw: List[str], where: str) -> np.ndarray:
    try:
        timestamps = np.asarray([int(v) for v in raw], dtype=np.int64)
    except ValueError as exc:
        raise TelemetryError("non-integer timestamp in %s: %s"
                             % (where, exc)) from None
    if timestamps.size < 2:
        raise TelemetryError("%s needs at least 2 samples" % where)
    steps = np.diff(timestamps)
    if steps.min() <= 0:
        raise TelemetryError("timestamps in %s are not strictly "
                             "increasing" % where)
    if steps.min() != steps.max():
        raise TelemetryError(
            "timestamps in %s are not equally spaced (bin widths %d..%d); "
            "resample before loading" % (where, steps.min(), steps.max())
        )
    return timestamps


def read_series(source: PathOrFile) -> TimeSeries:
    """Load a long-format ``timestamp,value`` CSV into a TimeSeries."""
    handle, owned = _open_for(source, "r")
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise TelemetryError("empty series CSV or missing header")
        raw_t, raw_v = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TelemetryError(
                    "line %d: expected 2 columns, got %d"
                    % (line_no, len(row))
                )
            raw_t.append(row[0])
            raw_v.append(row[1])
        timestamps = _parse_timestamps(raw_t, "series CSV")
        try:
            values = np.asarray([float(v) for v in raw_v])
        except ValueError as exc:
            raise TelemetryError("non-numeric value: %s" % exc) from None
        return TimeSeries(
            start=int(timestamps[0]),
            bin_seconds=int(timestamps[1] - timestamps[0]),
            values=values,
        )
    finally:
        if owned:
            handle.close()


def read_matrix(source: PathOrFile
                ) -> Tuple[np.ndarray, List[str], int, int]:
    """Load a wide-format CSV into a ``(units, bins)`` matrix.

    Returns:
        ``(matrix, unit_names, start, bin_seconds)`` — ``matrix[i]`` is
        the series of ``unit_names[i]``.
    """
    handle, owned = _open_for(source, "r")
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise TelemetryError("wide CSV needs timestamp + >=1 unit "
                                 "column")
        units = [name.strip() for name in header[1:]]
        if len(set(units)) != len(units):
            raise TelemetryError("duplicate unit columns in wide CSV")
        raw_t: List[str] = []
        rows: List[List[str]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TelemetryError(
                    "line %d: expected %d columns, got %d"
                    % (line_no, len(header), len(row))
                )
            raw_t.append(row[0])
            rows.append(row[1:])
        timestamps = _parse_timestamps(raw_t, "wide CSV")
        try:
            matrix = np.asarray(
                [[float(v) for v in row] for row in rows]
            ).T
        except ValueError as exc:
            raise TelemetryError("non-numeric value: %s" % exc) from None
        return (matrix, units, int(timestamps[0]),
                int(timestamps[1] - timestamps[0]))
    finally:
        if owned:
            handle.close()


def write_matrix(matrix: np.ndarray, units: Sequence[str], start: int,
                 bin_seconds: int, target: PathOrFile) -> None:
    """Write a ``(units, bins)`` matrix as a wide-format CSV."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(units):
        raise TelemetryError(
            "matrix shape %s does not match %d unit names"
            % (matrix.shape, len(units))
        )
    handle, owned = _open_for(target, "w")
    try:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", *units])
        for j in range(matrix.shape[1]):
            timestamp = start + j * bin_seconds
            writer.writerow([timestamp,
                             *(repr(float(v)) for v in matrix[:, j])])
    finally:
        if owned:
            handle.close()
