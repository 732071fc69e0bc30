"""Hankel (trajectory) matrices and implicit operations on them.

SST compares the dynamics of a time series before and after a point by
embedding short windows into Hankel matrices (paper Eq. 1 and 3):

    B(t) = [q(t - delta), ..., q(t - 1)],   q(t) = [x(t-w+1), ..., x(t)]^T
    A(t) = [r(t + rho), ..., r(t + rho + gamma - 1)]

``B(t)`` holds ``delta`` overlapping length-``w`` windows ending at ``t-1``;
``A(t)`` holds ``gamma`` windows starting ``rho`` points after ``t``.

Besides explicit construction this module provides the *implicit* products
used by the IKA fast path (paper section 3.2.3): ``C v = B B^T v`` is
computed without ever materialising ``C`` (the "matrix compression and
implicit inner product calculation" of the paper), reducing one product
from O(w^2 * delta) memory-bound work to two Hankel matvecs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import as_float_array

__all__ = [
    "hankel_matrix",
    "past_matrix",
    "future_matrix",
    "diagonal_average",
    "HankelOperator",
]


def _check_embedding(window: int, count: int) -> None:
    if window < 2:
        raise ParameterError("window length must be >= 2, got %d" % window)
    if count < 1:
        raise ParameterError("window count must be >= 1, got %d" % count)


def hankel_matrix(series: Sequence[float], window: int, count: int,
                  start: int = 0) -> np.ndarray:
    """Build a ``window x count`` Hankel matrix from ``series``.

    Column ``j`` is ``series[start + j : start + j + window]``; consecutive
    columns overlap by ``window - 1`` samples, which is exactly the
    trajectory-matrix embedding used by singular spectrum analysis.

    Args:
        series: the input samples.
        window: length ``w`` of each lag window (rows).
        count: number of overlapping windows (columns).
        start: index of the first sample of the first column.

    Raises:
        ParameterError: for invalid ``window``/``count``/``start``.
        InsufficientDataError: if the series does not cover the embedding.
    """
    x = as_float_array(series)
    _check_embedding(window, count)
    if start < 0:
        raise ParameterError("start must be non-negative, got %d" % start)
    needed = start + window + count - 1
    if x.size < needed:
        raise InsufficientDataError(
            "need %d samples for a %dx%d Hankel embedding starting at %d, "
            "have %d" % (needed, window, count, start, x.size)
        )
    # A strided view would be fastest but an explicit copy keeps the result
    # safe to mutate and contiguous for the downstream SVD.
    out = np.empty((window, count), dtype=np.float64)
    for j in range(count):
        out[:, j] = x[start + j:start + j + window]
    return out


def past_matrix(series: Sequence[float], t: int, window: int,
                count: int) -> np.ndarray:
    """The past Hankel matrix ``B(t)`` of paper Eq. 1.

    Columns are ``q(t - count), ..., q(t - 1)`` where ``q(i)`` ends at
    sample ``i`` inclusive, i.e. the latest sample used is ``x[t - 1]``.
    """
    start = t - count - window + 1
    if start < 0:
        raise InsufficientDataError(
            "past matrix at t=%d needs %d leading samples" % (t, -start)
        )
    return hankel_matrix(series, window, count, start=start)


def future_matrix(series: Sequence[float], t: int, window: int, count: int,
                  lag: int = 0) -> np.ndarray:
    """The future Hankel matrix ``A(t)`` of paper Eq. 3.

    Columns are ``r(t + lag), ..., r(t + lag + count - 1)`` where ``r(i)``
    starts at sample ``i``; with the paper's default ``rho = 0`` the first
    column starts at ``x[t]`` itself.
    """
    x = as_float_array(series)
    if t < 0:
        raise ParameterError("t must be non-negative, got %d" % t)
    if lag < 0:
        raise ParameterError("lag (rho) must be non-negative, got %d" % lag)
    return hankel_matrix(x, window, count, start=t + lag)


def diagonal_average(matrix: np.ndarray) -> np.ndarray:
    """Invert the Hankel embedding by averaging anti-diagonals.

    A ``w x d`` trajectory matrix built by :func:`hankel_matrix` places
    sample ``i`` of the underlying series at every cell ``(r, c)`` with
    ``r + c == i``.  Averaging those cells (the standard diagonal-averaging
    step of singular spectrum analysis) maps any matrix of the same shape
    back to a length ``w + d - 1`` series; for a true Hankel matrix the
    round trip is exact.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ParameterError(
            "matrix must be non-empty and 2-D, got shape %s" % (m.shape,)
        )
    rows, cols = m.shape
    length = rows + cols - 1
    sums = np.zeros(length, dtype=np.float64)
    counts = np.zeros(length, dtype=np.float64)
    for c in range(cols):
        sums[c:c + rows] += m[:, c]
        counts[c:c + rows] += 1.0
    return sums / counts


class HankelOperator:
    """Implicit linear operator for ``C = B B^T`` of a Hankel matrix ``B``.

    ``B`` is ``w x d`` and defined by a slice of the series; the operator
    applies ``C v = B (B^T v)`` using only the ``w + d - 1`` underlying
    samples.  This is the "matrix compression" of paper section 3.2.3: the
    Lanczos recursion needs nothing but this product, so the ``w x w``
    covariance is never formed.

    ``B^T v`` is a sliding dot product (correlation) of the sample slice
    with ``v``, and ``B u`` is the adjoint correlation; both are delegated
    to :func:`numpy.correlate`/:func:`numpy.convolve`, i.e. O(w*d) with a
    small constant instead of the O(w^2*d) cost of forming ``C``.
    """

    def __init__(self, series: Sequence[float], window: int, count: int,
                 start: int = 0) -> None:
        x = as_float_array(series)
        _check_embedding(window, count)
        if start < 0:
            raise ParameterError("start must be non-negative, got %d" % start)
        needed = start + window + count - 1
        if x.size < needed:
            raise InsufficientDataError(
                "need %d samples, have %d" % (needed, x.size)
            )
        self._slice = x[start:start + window + count - 1].copy()
        self.window = window
        self.count = count

    @classmethod
    def past(cls, series: Sequence[float], t: int, window: int,
             count: int) -> "HankelOperator":
        """Operator for ``B(t) B(t)^T`` (see :func:`past_matrix`)."""
        start = t - count - window + 1
        if start < 0:
            raise InsufficientDataError(
                "past operator at t=%d needs %d leading samples" % (t, -start)
            )
        return cls(series, window, count, start=start)

    def correlate(self, v: np.ndarray) -> np.ndarray:
        """``B^T v`` for a length-``window`` vector ``v``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.window,):
            raise ParameterError(
                "expected vector of length %d, got shape %s"
                % (self.window, v.shape)
            )
        # column j of B is slice[j : j + window]; (B^T v)[j] = <col_j, v>
        return np.correlate(self._slice, v, mode="valid")

    def expand(self, u: np.ndarray) -> np.ndarray:
        """``B u`` for a length-``count`` vector ``u``."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.count,):
            raise ParameterError(
                "expected vector of length %d, got shape %s"
                % (self.count, u.shape)
            )
        # (B u)[i] = sum_j slice[i + j] * u[j]  -- a correlation again.
        return np.correlate(self._slice, u, mode="valid")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``C v = B (B^T v)`` without forming ``C``."""
        return self.expand(self.correlate(v))
