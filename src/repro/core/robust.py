"""Robust summary statistics used by the improved SST and the baselines.

The paper (section 3.2.2) gates SST change scores with the median and the
median absolute deviation (MAD) of windows before and after the evaluated
point, because "the mean and standard deviation for Gaussian distribution
are not very robust in the presence of large changes or outliers".
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import as_float_array

__all__ = [
    "median",
    "mad",
    "median_and_mad",
    "robust_zscores",
    "MAD_TO_SIGMA",
    "window_pair",
]

#: Scale factor that makes the MAD a consistent estimator of the standard
#: deviation for Gaussian data: sigma ~= 1.4826 * MAD.
MAD_TO_SIGMA = 1.4826022185056018


def _middle(srt: np.ndarray) -> float:
    """Median of a sorted array — the mean of its two middles, bitwise
    ``np.median``'s value at a fifth of its per-call cost."""
    lo, hi = (srt.size - 1) // 2, srt.size // 2
    return float(srt[lo] if lo == hi else (srt[lo] + srt[hi]) / 2.0)


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (finite, 1-D)."""
    arr = as_float_array(values)
    if arr.size == 0:
        raise InsufficientDataError("median of an empty sequence")
    return _middle(np.sort(arr))


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (paper Eq. 12).

    Args:
        values: the samples.
        center: deviation reference; defaults to ``median(values)``.
    """
    arr = as_float_array(values)
    if arr.size == 0:
        raise InsufficientDataError("MAD of an empty sequence")
    if center is None:
        center = _middle(np.sort(arr))
    return _middle(np.sort(np.abs(arr - center)))


def median_and_mad(values: Sequence[float]) -> Tuple[float, float]:
    """Return ``(median, MAD)``: one sort of ``values``, one of their
    deviations.  With both ``-0.0`` and ``0.0`` present the sign of a
    zero median is the sort's to choose: nothing may depend on it."""
    arr = as_float_array(values)
    if arr.size == 0:
        raise InsufficientDataError("statistics of an empty sequence")
    srt = np.sort(arr)
    med = _middle(srt)
    return med, _middle(np.sort(np.abs(srt - med)))


def robust_zscores(values: Sequence[float]) -> np.ndarray:
    """Outlier scores ``(x - median) / (MAD_TO_SIGMA * MAD)``.

    When the MAD is zero (more than half the samples identical) the scores
    of the identical samples are 0 and any deviating sample gets ``inf``
    magnitude, which callers typically clip or threshold.
    """
    arr = as_float_array(values)
    med, scale = median_and_mad(arr)
    scale *= MAD_TO_SIGMA
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (arr - med) / scale
    if scale == 0.0:
        z = np.where(arr == med, 0.0, np.copysign(np.inf, arr - med))
    return z


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
