"""Synthetic KPI traces, injected changes, and the evaluation corpus."""

from .dataset import CorpusSpec, EvaluationCorpus, EvaluationItem, ItemTruth
from .fleetgen import FleetSpec, generate_fleet
from .effects import LevelShift, Ramp, TransientDip, apply_effects
from .patterns import (SeasonalPattern, StationaryPattern, VariablePattern,
                       pattern_for_character)
from .workload import GroupTraceConfig, GroupTraces, generate_group

__all__ = ["CorpusSpec", "EvaluationCorpus", "EvaluationItem", "ItemTruth",
           "LevelShift", "Ramp", "TransientDip",
           "apply_effects",
           "SeasonalPattern", "StationaryPattern", "VariablePattern",
           "pattern_for_character",
           "GroupTraceConfig", "GroupTraces", "generate_group",
           "FleetSpec", "generate_fleet"]
