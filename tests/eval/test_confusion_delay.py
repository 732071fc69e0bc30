"""Tests for the evaluation metrics (confusion, delay, cost)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.confusion import ConfusionMatrix
from repro.eval.cost import CostReport, cores_for_kpis, time_callable
from repro.eval.delay import DelayDistribution, ccdf
from repro.exceptions import EvaluationError


class TestConfusionMatrix:
    def test_record_all_quadrants(self):
        m = ConfusionMatrix()
        m.record(True, True)       # TP
        m.record(True, False)      # FP
        m.record(False, True)      # FN
        m.record(False, False)     # TN
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
        assert m.accuracy == 0.5
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.tnr == 0.5

    def test_paper_metric_definitions(self):
        m = ConfusionMatrix(tp=90, tn=900, fp=10, fn=10)
        assert m.precision == pytest.approx(0.9)
        assert m.recall == pytest.approx(0.9)
        assert m.tnr == pytest.approx(900 / 910)
        assert m.accuracy == pytest.approx(990 / 1010)

    def test_nan_when_denominator_empty(self):
        m = ConfusionMatrix(tn=10)
        assert math.isnan(m.precision)
        assert math.isnan(m.recall)
        assert m.tnr == 1.0

    def test_addition(self):
        total = ConfusionMatrix(tp=1) + ConfusionMatrix(fp=2)
        assert total.tp == 1 and total.fp == 2

    def test_scaling_matches_paper_synthesis(self):
        """Scaling by 86 reproduces the section 4.2.1 construction."""
        clean = ConfusionMatrix(tn=70, fp=2)
        scaled = clean.scaled(86)
        assert scaled.tn == 70 * 86
        assert scaled.fp == 2 * 86
        assert scaled.tnr == pytest.approx(clean.tnr)

    def test_negative_counts_rejected(self):
        with pytest.raises(EvaluationError):
            ConfusionMatrix(tp=-1)
        with pytest.raises(EvaluationError):
            ConfusionMatrix().scaled(-2)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100),
           st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_rates_bounded_property(self, tp, tn, fp, fn):
        m = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
        for value in (m.precision, m.recall, m.tnr, m.accuracy):
            assert math.isnan(value) or 0.0 <= value <= 1.0

    def test_as_row(self):
        row = ConfusionMatrix(tp=1, tn=1).as_row()
        assert set(row) == {"total", "precision", "recall", "tnr",
                            "accuracy"}


class TestDelay:
    def test_median_and_percentiles(self):
        d = DelayDistribution("m")
        for v in (5, 10, 15, 20, 25):
            d.record(v)
        assert d.median == 15
        assert d.mean == 15
        assert d.percentile(100) == 25

    def test_negative_delay_rejected(self):
        with pytest.raises(EvaluationError):
            DelayDistribution("m").record(-1)

    def test_empty_stats_nan(self):
        d = DelayDistribution("m")
        assert math.isnan(d.median)

    def test_reduction_vs(self):
        """The paper's headline: FUNNEL's median 13.2 is 38.02% below
        MRLS's 21.3 and 64.99% below CUSUM's 37.7."""
        funnel = DelayDistribution("funnel", [13.2])
        mrls = DelayDistribution("mrls", [21.3])
        cusum = DelayDistribution("cusum", [37.7])
        assert funnel.reduction_vs(mrls) == pytest.approx(38.02, abs=0.1)
        assert funnel.reduction_vs(cusum) == pytest.approx(64.99, abs=0.1)

    def test_ccdf_monotone_decreasing(self):
        grid, fractions = ccdf([1, 5, 5, 20, 40])
        assert np.all(np.diff(fractions) <= 0)
        assert fractions[0] <= 100.0

    def test_ccdf_values(self):
        grid, fractions = ccdf([10, 20, 30], grid=[0, 15, 25, 35])
        np.testing.assert_allclose(fractions,
                                   [100.0, 200 / 3.0, 100 / 3.0, 0.0])

    def test_ccdf_empty_raises(self):
        with pytest.raises(EvaluationError):
            ccdf([])


class TestCost:
    def test_cores_formula_matches_table2(self):
        """The paper's own Table 2 rows validate the capacity formula:
        401.8 us/window -> 7 cores, 1.846 ms -> 31 cores for 1M KPIs."""
        assert cores_for_kpis(401.8e-6) == 7
        assert cores_for_kpis(1.846e-3) == 31
        # MRLS at 2.852 s/window lands within rounding of the paper's
        # 47526 (they rounded the per-window time before scaling).
        assert abs(cores_for_kpis(2.852) - 47526) < 20

    def test_cores_ceil(self):
        # 1M KPIs x 60us = 60 s of work per 60 s interval: exactly 1 core.
        assert cores_for_kpis(60e-6) == 1
        # Any more and a second core is needed (ceiling, not rounding).
        assert cores_for_kpis(60.1e-6) == 2

    def test_invalid_runtime(self):
        with pytest.raises(EvaluationError):
            cores_for_kpis(0.0)

    def test_time_callable(self):
        report = time_callable(lambda: 10, min_seconds=0.01)
        assert report.windows_timed >= 10
        assert report.seconds_per_window > 0

    def test_time_callable_zero_windows(self):
        with pytest.raises(EvaluationError):
            time_callable(lambda: 0, min_seconds=0.01)

    def test_cost_report_units(self):
        report = CostReport("m", seconds_per_window=4e-4, windows_timed=10)
        assert report.microseconds_per_window == pytest.approx(400.0)
        assert report.cores_for() == pytest.approx(
            math.ceil(1e6 * 4e-4 / 60.0))
