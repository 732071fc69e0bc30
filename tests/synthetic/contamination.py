"""Baseline contamination for the resilience tests — paper sections 1
and 3.2.

"The baseline used to compare the performance after software changes may
be contaminated by the impact of previous software changes and/or other
factors."  This helper injects that contamination into historical
controls as partial-day outages; FUNNEL counters it with a long (30-day)
baseline and the averaging over many control KPIs.
"""

import numpy as np

from repro.exceptions import ParameterError


def contaminate_history_panel(panel, outage_fraction, rng):
    """Contaminate a ``(days, bins)`` historical-control panel.

    Each day independently suffers an outage with probability
    ``outage_fraction``: a random stretch of the day is dragged towards
    zero, modelling the breakdowns and attacks that pollute history.
    """
    if not 0 <= outage_fraction <= 1:
        raise ParameterError("outage_fraction must be in [0, 1]")
    out = np.array(panel, dtype=np.float64, copy=True)
    if out.ndim != 2:
        raise ParameterError("panel must be 2-D, got shape %s" % (out.shape,))
    days, bins = out.shape
    for day in range(days):
        if rng.random() < outage_fraction:
            lo = int(rng.integers(0, bins))
            hi = int(rng.integers(lo + 1, bins + 1))
            out[day, lo:hi] *= rng.uniform(0.0, 0.2)
    return out
