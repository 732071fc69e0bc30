"""Tests for ROC curves and report rendering."""

import numpy as np
import pytest

from repro.eval.calibrate import ItemStatistic
from repro.eval.cost import CostReport
from repro.eval.report import (format_percent, format_table, render_ascii_series,
                               render_ccdf, render_table1, render_table2)
from repro.eval.roc import roc_curve
from repro.exceptions import EvaluationError


def stat(value, positive, weight=1.0):
    return ItemStatistic(statistic=value, positive=positive, weight=weight)


class TestRocCurve:
    def test_perfect_separation(self):
        stats = [stat(10.0, True), stat(9.0, True),
                 stat(1.0, False), stat(0.5, False)]
        curve = roc_curve(stats)
        assert curve.auc == pytest.approx(1.0)
        threshold, fpr, tpr = curve.operating_point(0.99)
        assert tpr == 1.0 and fpr == 0.0
        assert 1.0 <= threshold <= 10.0

    def test_random_statistic_auc_half(self, rng):
        stats = [stat(float(rng.normal()), bool(i % 2))
                 for i in range(2000)]
        curve = roc_curve(stats)
        assert curve.auc == pytest.approx(0.5, abs=0.05)

    def test_monotone_axes(self, rng):
        stats = [stat(float(rng.normal() + (2.0 if i % 3 == 0 else 0.0)),
                      i % 3 == 0) for i in range(300)]
        curve = roc_curve(stats)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == pytest.approx(1.0)
        assert curve.tpr[-1] == pytest.approx(1.0)

    def test_weights_shift_fpr(self):
        # One heavy negative FP between the positives drags FPR up fast.
        stats = [stat(10.0, True), stat(5.0, False, weight=86.0),
                 stat(4.0, True), stat(1.0, False)]
        curve = roc_curve(stats)
        # At threshold between 4 and 5, TPR=0.5 but FPR = 86/87.
        idx = np.where(curve.tpr >= 0.5)[0]
        assert curve.fpr[idx[1]] == pytest.approx(86 / 87.0)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            roc_curve([stat(1.0, True)])
        with pytest.raises(EvaluationError):
            roc_curve([])


class TestReportRendering:
    def test_format_percent(self):
        assert format_percent(0.9821).strip() == "98.21%"
        assert format_percent(float("nan")).strip() == "n/a"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table1(self):
        rows = [{"method": "funnel", "type": "seasonal", "total": 100,
                 "precision": 1.0, "recall": 0.5, "tnr": 0.99,
                 "accuracy": 0.991}]
        out = render_table1(rows)
        assert "funnel" in out and "99.10%" in out

    def test_render_table2(self):
        reports = {
            "funnel": CostReport("funnel", 25e-6, 100),
            "cusum": CostReport("cusum", 1.2e-3, 100),
            "mrls": CostReport("mrls", 2.5, 100),
        }
        out = render_table2(reports)
        assert "25.0 us" in out
        assert "1.200 ms" in out
        assert "2.500 s" in out

    def test_render_ccdf(self):
        curves = {"funnel": (np.arange(0.0, 61.0),
                             np.linspace(100, 0, 61))}
        out = render_ccdf(curves)
        assert "funnel" in out
        assert "0 min" in out and "60 min" in out

    def test_render_ascii_series_shape(self):
        out = render_ascii_series(np.sin(np.linspace(0, 6, 200)),
                                  height=8, title="wave")
        lines = out.splitlines()
        assert lines[0] == "wave"
        assert len(lines) == 9
        assert any("*" in line for line in lines[1:])

    def test_render_ascii_constant(self):
        out = render_ascii_series(np.ones(10))
        assert "*" in out

    def test_render_ascii_empty(self):
        assert "empty" in render_ascii_series([])
