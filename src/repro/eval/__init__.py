"""Evaluation harness: metrics, delays, costs, and the experiment runner."""

from .confusion import ConfusionMatrix
from .cost import CostReport, cores_for_kpis, measure_method_costs
from .delay import DelayDistribution, ccdf
from .roc import RocCurve, roc_curve
from .runner import (CLEAN_SCALE_FACTOR, METHOD_NAMES, EvaluationResult,
                     evaluate_corpus, make_method)

__all__ = ["ConfusionMatrix", "CostReport", "cores_for_kpis",
           "measure_method_costs", "DelayDistribution", "ccdf",
           "CLEAN_SCALE_FACTOR", "METHOD_NAMES", "EvaluationResult",
           "evaluate_corpus", "make_method", "RocCurve", "roc_curve"]
