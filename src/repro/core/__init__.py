"""FUNNEL's core algorithms: SST variants, DiD, and the Fig. 3 pipeline."""

from .did import DiDEstimator, DiDPanel, DiDResult
from .funnel import Funnel, FunnelConfig
from .ika import IkaSST
from .rsst import ImprovedSST, ImprovedSSTParams
from .scoring import (ChangeDeclarationPolicy, PERSISTENCE_MINUTES,
                      declare_changes, robust_normalise)

__all__ = [
    "DiDEstimator", "DiDPanel", "DiDResult",
    "Funnel", "FunnelConfig",
    "IkaSST",
    "ImprovedSST", "ImprovedSSTParams",
    "ChangeDeclarationPolicy", "PERSISTENCE_MINUTES",
    "declare_changes", "robust_normalise",
]
