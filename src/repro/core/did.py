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
is exactly the double difference of Eq. 16, and which additionally yields
a standard error and significance level for ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from .robust import MAD_TO_SIGMA, median_and_mad

__all__ = [
    "DiDPanel",
    "DiDResult",
    "did_estimate",
    "DiDEstimator",
]


def _unit_period_matrix(values: Sequence[Sequence[float]],
                        name: str) -> np.ndarray:
    """Coerce per-unit period measurements to a 2-D (units, samples) array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ParameterError("%s must be 1-D or 2-D, got shape %s"
                             % (name, arr.shape))
    if arr.size == 0:
        raise InsufficientDataError("%s is empty" % name)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("%s contains NaN or infinite values" % name)
    return arr


@dataclass(frozen=True)
class DiDPanel:
    """Measurements for a two-period, two-group DiD comparison.

    Each field is a ``(units, samples)`` array: one row per
    server/instance (or per historical day, for the seasonal control),
    ``samples`` = the per-period window length ``omega``.

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
        object.__setattr__(self, "treated_pre",
                           _unit_period_matrix(self.treated_pre, "treated_pre"))
        object.__setattr__(self, "treated_post",
                           _unit_period_matrix(self.treated_post, "treated_post"))
        object.__setattr__(self, "control_pre",
                           _unit_period_matrix(self.control_pre, "control_pre"))
        object.__setattr__(self, "control_post",
                           _unit_period_matrix(self.control_post, "control_post"))
        if self.treated_pre.shape[0] != self.treated_post.shape[0]:
            raise ParameterError("treated unit counts differ across periods")
        if self.control_pre.shape[0] != self.control_post.shape[0]:
            raise ParameterError("control unit counts differ across periods")

    @property
    def n_treated(self) -> int:
        return self.treated_pre.shape[0]

    @property
    def n_control(self) -> int:
        return self.control_pre.shape[0]

    def unit_differences(self) -> tuple:
        """Per-unit post-minus-pre mean differences for both groups."""
        treated = self.treated_post.mean(axis=1) - self.treated_pre.mean(axis=1)
        control = self.control_post.mean(axis=1) - self.control_pre.mean(axis=1)
        return treated, control

    def normalisation_scale(self) -> float:
        """Robust scale of the pre-period pooled across both groups.

        Dividing ``alpha`` by this scale expresses the impact in units of
        the KPI's natural variability, so one threshold (the paper's 0.5
        for change-sensitive services) works across heterogeneous KPIs.
        """
        pooled = np.concatenate(
            [self.treated_pre.ravel(), self.control_pre.ravel()]
        )
        _, scale = median_and_mad(pooled)
        return MAD_TO_SIGMA * scale + 1e-9


@dataclass(frozen=True)
class DiDResult:
    """Outcome of a DiD estimation.

    Attributes:
        alpha: the raw impact estimator of Eq. 16 (KPI units).
        normalised_alpha: ``alpha`` divided by the pooled pre-period
            robust scale; this is what FUNNEL thresholds.
        std_error: OLS standard error of ``alpha`` (``nan`` when there are
            too few units to estimate residual variance).
        t_statistic / p_value: significance of ``alpha`` under the normal
            approximation (``nan`` when ``std_error`` is ``nan``).
    """

    alpha: float
    normalised_alpha: float
    std_error: float
    t_statistic: float
    p_value: float

    def significant(self, threshold: float = 0.5) -> bool:
        """Is the impact attributable to the software change?

        ``threshold`` is the paper's empirically chosen bound on the
        (normalised) ``|alpha|`` — 0.5 for change-sensitive services such
        as advertising, larger otherwise.
        """
        return abs(self.normalised_alpha) > threshold


def did_estimate(panel: DiDPanel) -> float:
    """The plain double difference of Eq. 16 (no standard errors)."""
    treated, control = panel.unit_differences()
    return float(treated.mean() - control.mean())


class DiDEstimator:
    """Fits the Eq. 15 model to a :class:`DiDPanel`.

    Example:
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> pre = rng.normal(10.0, 0.5, size=(8, 30))
        >>> post = pre + rng.normal(0.0, 0.5, size=(8, 30))
        >>> post[:4] += 5.0   # software change hits the first 4 units
        >>> panel = DiDPanel(pre[:4], post[:4], pre[4:], post[4:])
        >>> result = DiDEstimator().fit(panel)
        >>> round(result.alpha, 0)
        5.0
        >>> result.significant(threshold=0.5)
        True
    """

    def fit(self, panel: DiDPanel) -> DiDResult:
        treated_diff, control_diff = panel.unit_differences()
        diffs = np.concatenate([treated_diff, control_diff])
        indicator = np.concatenate([
            np.ones(panel.n_treated),
            np.zeros(panel.n_control),
        ])
        # OLS of diffs on [1, indicator]; the slope is alpha.
        design = np.column_stack([np.ones(diffs.size), indicator])
        coef, _, _, _ = np.linalg.lstsq(design, diffs, rcond=None)
        alpha = float(coef[1])

        dof = diffs.size - 2
        if dof > 0 and panel.n_treated >= 2 and panel.n_control >= 2:
            resid = diffs - design @ coef
            sigma2 = float(resid @ resid) / dof
            # Var(alpha) for a binary regressor: sigma^2 * (1/n1 + 1/n0).
            var_alpha = sigma2 * (1.0 / panel.n_treated
                                  + 1.0 / panel.n_control)
            se = math.sqrt(max(var_alpha, 0.0))
        else:
            se = float("nan")

        if se and math.isfinite(se) and se > 0.0:
            t_stat = alpha / se
            p_value = math.erfc(abs(t_stat) / math.sqrt(2.0))
        else:
            t_stat = float("nan")
            p_value = float("nan")

        scale = panel.normalisation_scale()
        return DiDResult(
            alpha=alpha,
            normalised_alpha=alpha / scale,
            std_error=se,
            t_statistic=t_stat,
            p_value=p_value,
        )
