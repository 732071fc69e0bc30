"""Baseline contamination — paper sections 1 and 3.2.

"The baseline used to compare the performance after software changes may
be contaminated by the impact of previous software changes and/or other
factors."  This module injects that contamination into historical
controls as partial-day outages.  FUNNEL counters contamination with a
long (30-day) baseline and the averaging over many control KPIs; the
evaluation corpus uses this injector to show what happens without those
counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError

__all__ = ["ContaminationConfig", "contaminate_history_panel"]


@dataclass(frozen=True)
class ContaminationConfig:
    """How dirty a historical baseline should be.

    Attributes:
        outage_fraction: probability that any historical day contains a
            partial outage (a dropped-to-near-zero stretch).
    """

    outage_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.outage_fraction <= 1:
            raise ParameterError("outage_fraction must be in [0, 1]")


def contaminate_history_panel(panel: np.ndarray,
                              config: ContaminationConfig,
                              rng: np.random.Generator) -> np.ndarray:
    """Contaminate a ``(days, bins)`` historical-control panel.

    Each day independently suffers an outage with probability
    ``outage_fraction``: a random stretch of the day is dragged towards
    zero, modelling the breakdowns and attacks that pollute history.
    """
    out = np.array(panel, dtype=np.float64, copy=True)
    if out.ndim != 2:
        raise ParameterError("panel must be 2-D, got shape %s" % (out.shape,))
    days, bins = out.shape
    for day in range(days):
        if rng.random() < config.outage_fraction:
            lo = int(rng.integers(0, bins))
            hi = int(rng.integers(lo + 1, bins + 1))
            out[day, lo:hi] *= rng.uniform(0.0, 0.2)
    return out
