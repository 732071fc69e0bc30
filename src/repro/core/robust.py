"""Robust summary statistics used by the improved SST and the baselines.

The paper (section 3.2.2) gates SST change scores with the median and the
median absolute deviation (MAD) of windows before and after the evaluated
point, because "the mean and standard deviation for Gaussian distribution
are not very robust in the presence of large changes or outliers".
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import as_float_array

__all__ = [
    "median_and_mad",
    "MAD_TO_SIGMA",
    "window_pair",
]

#: Scale factor that makes the MAD a consistent estimator of the standard
#: deviation for Gaussian data: sigma ~= 1.4826 * MAD.
MAD_TO_SIGMA = 1.4826022185056018


def _middle(srt: np.ndarray) -> np.ndarray:
    """Medians of sorted rows (the last axis): the mean of each row's two
    middles, bitwise ``np.median``'s value at a fifth of its cost."""
    lo, hi = (srt.shape[-1] - 1) // 2, srt.shape[-1] // 2
    return srt[..., lo] if lo == hi else (srt[..., lo] + srt[..., hi]) / 2.0


def _median_and_mad(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Median and MAD of each row (along the last axis) of finite,
    non-empty samples: one sort of the rows, one of their deviations."""
    srt = np.sort(rows, axis=-1)
    med = _middle(srt)
    return med, _middle(np.sort(np.abs(srt - med[..., None]), axis=-1))


def median_and_mad(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, MAD)``, the one-row :func:`_median_and_mad`.  With both
    ``-0.0`` and ``0.0`` present a zero median's sign is the sort's to
    choose: nothing may depend on it."""
    arr = as_float_array(values)
    if arr.size == 0:
        raise InsufficientDataError("statistics of an empty sequence")
    med, mad = _median_and_mad(arr)
    return float(med), float(mad)


def window_pair(series: Sequence[float], t: int,
                half_width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(2*omega - 1)``-point windows before and after index ``t``.

    The paper's Eq. 11 compares the median/MAD of the series over a window
    of length ``2*omega - 1`` ending just before ``x(t)`` with the same
    statistics over the window starting at ``x(t)``.

    Args:
        series: the input samples.
        t: the evaluated index.
        half_width: the window length ``2*omega - 1``.

    Returns:
        ``(before, after)`` arrays, each of length ``half_width``.
    """
    x = as_float_array(series)
    if half_width < 1:
        raise ParameterError("window length must be >= 1, got %d" % half_width)
    if t - half_width < 0 or t + half_width > x.size:
        raise InsufficientDataError(
            "index %d needs %d samples on each side, series has %d"
            % (t, half_width, x.size)
        )
    return x[t - half_width:t], x[t:t + half_width]
