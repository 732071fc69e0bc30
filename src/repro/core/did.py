"""Difference-in-Difference impact estimation — paper sections 3.2.4-3.2.5.

A detected KPI change is only attributed to the software change if the
*treated* group (KPIs of tservers/tinstances) moved relative to a
*control* group that shares every other influence:

* under Dark Launching the control group is the cservers/cinstances of
  the same service (section 3.2.4) — load balancing makes peers
  statistically exchangeable, so seasonality, attacks and hardware events
  hit both groups alike;
* for affected services and Full Launching there are no peers, so the
  control group is the same clock window on each of the previous 30 days
  (section 3.2.5), which removes time-of-day / day-of-week effects and
  dilutes baseline contamination.

The estimator follows the linear model of Eq. 15::

    Y(i, t) = theta(t) + alpha * D(i, t) + xi(i) + upsilon(i, t)

whose unit fixed effects ``xi(i)`` are removed by first-differencing each
unit across the two periods, leaving the cross-sectional regression
``diff_i = dtheta + alpha * treated_i + noise`` — the OLS slope of which
is exactly the double difference of Eq. 16.

Panels of one shape are fitted as one stack: the unit means run along
the last axis and the pooled scale is one sort of the stack's rows, so
each panel's answer is bitwise what it gets alone (``docs/algorithms.md``
section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from .robust import MAD_TO_SIGMA, _median_and_mad

__all__ = ["DiDPanel", "DiDResult", "DiDEstimator"]


@dataclass(frozen=True)
class DiDPanel:
    """Measurements for two-period, two-group DiD comparisons.

    Each field is a ``(units, samples)`` array — one row per
    server/instance (or per historical day, for the seasonal control) —
    or a ``(panels, units, samples)`` stack of panels of one shape, as
    which it is held (one panel: a stack of one).

    ``treated_pre``/``treated_post`` are the treated group's measurements
    in the pre-/post-software-change period (``t = 0`` / ``t = 1`` in the
    paper); ``control_pre``/``control_post`` likewise for the control
    group.  Sample counts may differ between groups but must match within
    a group across periods (a unit is differenced against itself).
    """

    treated_pre: np.ndarray
    treated_post: np.ndarray
    control_pre: np.ndarray
    control_post: np.ndarray

    def __post_init__(self) -> None:
        for name in ("treated_pre", "treated_post", "control_pre",
                     "control_post"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not 1 <= arr.ndim <= 3:
                raise ParameterError("%s must be 1-D, 2-D or 3-D, got "
                                     "shape %s" % (name, arr.shape))
            if arr.size == 0:
                raise InsufficientDataError("%s is empty" % name)
            if not np.isfinite(arr).all():
                raise ParameterError("%s contains NaN or infinite values"
                                     % name)
            object.__setattr__(self, name, arr.reshape(
                (1,) * (3 - arr.ndim) + arr.shape))
        if self.treated_pre.shape[:2] != self.treated_post.shape[:2]:
            raise ParameterError("treated unit counts differ across periods")
        if self.control_pre.shape[:2] != self.control_post.shape[:2]:
            raise ParameterError("control unit counts differ across periods")
        if self.treated_pre.shape[0] != self.control_pre.shape[0]:
            raise ParameterError("treated and control panel counts differ")

    def unit_differences(self) -> tuple:
        """Per-panel, per-unit post-minus-pre mean differences for both
        groups: ``(panels, units)`` arrays."""
        treated = (self.treated_post.mean(axis=2)
                   - self.treated_pre.mean(axis=2))
        control = (self.control_post.mean(axis=2)
                   - self.control_pre.mean(axis=2))
        return treated, control

    def normalisation_scale(self) -> np.ndarray:
        """Per panel, the robust scale of the pre-period pooled across
        both groups: ``alpha`` over it is in units of the KPI's natural
        variability, so one threshold (the paper's 0.5 for
        change-sensitive services) works across heterogeneous KPIs."""
        panels = self.treated_pre.shape[0]
        _, scales = _median_and_mad(np.concatenate(
            [self.treated_pre.reshape(panels, -1),
             self.control_pre.reshape(panels, -1)], axis=1))
        return MAD_TO_SIGMA * scales + 1e-9


@dataclass(frozen=True)
class DiDResult:
    """Outcome of a DiD estimation.

    Attributes:
        alpha: the raw impact estimator of Eq. 16 (KPI units).
        normalised_alpha: ``alpha`` divided by the pooled pre-period
            robust scale; this is what FUNNEL thresholds.
    """

    alpha: float
    normalised_alpha: float

    def significant(self, threshold: float = 0.5) -> bool:
        """Is the impact attributable to the software change?

        ``threshold`` is the paper's empirically chosen bound on the
        (normalised) ``|alpha|`` — 0.5 for change-sensitive services such
        as advertising, larger otherwise.
        """
        return abs(self.normalised_alpha) > threshold


class DiDEstimator:
    """Fits the Eq. 15 model to every panel of a :class:`DiDPanel`.

    Example:
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> pre = rng.normal(10.0, 0.5, size=(8, 30))
        >>> post = pre + rng.normal(0.0, 0.5, size=(8, 30))
        >>> post[:4] += 5.0   # software change hits the first 4 units
        >>> panel = DiDPanel(pre[:4], post[:4], pre[4:], post[4:])
        >>> (result,) = DiDEstimator().fit(panel)
        >>> round(result.alpha, 0)
        5.0
        >>> result.significant(threshold=0.5)
        True
    """

    def fit(self, panel: DiDPanel) -> List[DiDResult]:
        """One result per panel of the stack: alpha is the slope of the
        OLS of its unit differences on ``[1, treated]``, one ``lstsq`` per
        panel (a multi-column solve is not bitwise the per-column one)."""
        treated, control = panel.unit_differences()
        diffs = np.concatenate([treated, control], axis=1)
        design = np.ones((diffs.shape[1], 2))   # [1, treated]
        design[treated.shape[1]:, 1] = 0.0
        results = []
        for row, scale in zip(diffs, panel.normalisation_scale().tolist()):
            alpha = float(np.linalg.lstsq(design, row, rcond=None)[0][1])
            results.append(DiDResult(alpha=alpha,
                                     normalised_alpha=alpha / scale))
        return results
