"""Confusion-matrix bookkeeping and the section 4.2 metrics.

Outcome labelling follows the paper exactly: an item is a true positive
when the method reports a software-change-induced KPI change and the
ground truth agrees; a false positive when the method reports one but
there was either no KPI change at all or the change was not induced by
the software change; a false negative when a genuine induced change is
missed; a true negative otherwise.

Metrics: ``Precision = TP/(TP+FP)``, ``Recall = TP/(TP+FN)``,
``TNR = TN/(TN+FP)``, ``Accuracy = (TP+TN)/total``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import EvaluationError

__all__ = ["ConfusionMatrix"]


@dataclass
class ConfusionMatrix:
    """Counts of TP/TN/FP/FN with the paper's derived metrics.

    Supports addition (merging strata) and integer scaling (the Table 1
    synthesis multiplies the clean half's counts by 86).
    """

    tp: float = 0
    tn: float = 0
    fp: float = 0
    fn: float = 0

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise EvaluationError("%s must be >= 0" % name)

    # -- accumulation ------------------------------------------------------------

    def record(self, predicted: bool, actual: bool) -> None:
        """Tally one item's outcome."""
        if predicted and actual:
            self.tp += 1
        elif predicted and not actual:
            self.fp += 1
        elif not predicted and actual:
            self.fn += 1
        else:
            self.tn += 1

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            tp=self.tp + other.tp, tn=self.tn + other.tn,
            fp=self.fp + other.fp, fn=self.fn + other.fn,
        )

    def scaled(self, factor: float) -> "ConfusionMatrix":
        """All counts multiplied by ``factor`` (paper's x86 synthesis)."""
        if factor < 0:
            raise EvaluationError("scale factor must be >= 0")
        return ConfusionMatrix(
            tp=self.tp * factor, tn=self.tn * factor,
            fp=self.fp * factor, fn=self.fn * factor,
        )

    # -- metrics ------------------------------------------------------------------

    @property
    def total(self) -> float:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def positives(self) -> float:
        return self.tp + self.fn

    @staticmethod
    def _ratio(numerator: float, denominator: float) -> float:
        """A rate, or ``nan`` when its denominator is empty."""
        if denominator == 0:
            return float("nan")
        return numerator / denominator

    @property
    def precision(self) -> float:
        return self._ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return self._ratio(self.tp, self.tp + self.fn)

    @property
    def tnr(self) -> float:
        return self._ratio(self.tn, self.tn + self.fp)

    @property
    def accuracy(self) -> float:
        return self._ratio(self.tp + self.tn, self.total)

    def as_row(self) -> dict:
        """The Table 1 row for this matrix."""
        return {
            "total": self.total,
            "precision": self.precision,
            "recall": self.recall,
            "tnr": self.tnr,
            "accuracy": self.accuracy,
        }
