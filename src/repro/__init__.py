"""repro: a reproduction of FUNNEL (Zhang et al., CoNEXT 2015).

FUNNEL assesses the impact of software changes in large Internet-based
services: it identifies the impact set of each change, detects KPI
behaviour changes with a robust, IKA-accelerated Singular Spectrum
Transform, and attributes them to the change with a
difference-in-difference comparison against peer or historical control
groups.

Quickstart::

    import numpy as np
    from repro import Funnel

    rng = np.random.default_rng(0)
    series = 50 + rng.normal(0, 1, size=(16, 200))
    treated, control = series[:4].copy(), series[4:]
    treated[:, 100:] += 8.0                     # the change's impact
    print(Funnel().assess(treated, change_index=100,
                          control=control).verdict)
"""

from .core import Funnel, FunnelConfig, IkaSST, ImprovedSST, ImprovedSSTParams
from .types import (Assessment, ChangeKind, DetectedChange, KpiCharacter,
                    LaunchMode, Verdict)

__version__ = "1.0.0"

__all__ = [
    "Funnel", "FunnelConfig", "IkaSST", "ImprovedSST", "ImprovedSSTParams",
    "Assessment", "ChangeKind", "DetectedChange", "KpiCharacter",
    "LaunchMode", "Verdict",
    "__version__",
]
