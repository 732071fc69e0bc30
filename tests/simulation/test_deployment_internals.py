"""Focused tests for the deployment simulation's internals."""

import math

import pytest

from repro.simulation.deployment import (DeploymentDay, DeploymentReport,
                                         DeploymentSpec, _day_corpus,
                                         PAPER_DAILY_CHANGES,
                                         PAPER_DAILY_IMPACTFUL,
                                         PAPER_DAILY_KPIS)


class TestSpecDerivedRates:
    def test_paper_rates(self):
        """A day holds the paper's share of impactful changes: 268 of
        24,119, so 3 of the 241 changes a day at scale 0.01."""
        spec = DeploymentSpec(scale=0.01)
        assert round(spec.changes_per_day * PAPER_DAILY_IMPACTFUL
                     / PAPER_DAILY_CHANGES) == 3
        assert _day_corpus(spec, 0).spec.n_changes == 3

    def test_changes_per_day_scales(self):
        assert DeploymentSpec(scale=1.0).changes_per_day == \
            PAPER_DAILY_CHANGES
        assert DeploymentSpec(scale=0.01).changes_per_day == \
            pytest.approx(241, abs=1)

    def test_minimum_volume(self):
        assert DeploymentSpec(scale=1e-6).changes_per_day >= 10


class TestDayCorpus:
    def test_different_days_differ(self):
        spec = DeploymentSpec(scale=0.0005, seed=3)
        day0 = _day_corpus(spec, 0)
        day1 = _day_corpus(spec, 1)
        item0 = next(iter(day0))
        item1 = next(iter(day1))
        assert (item0.treated != item1.treated).any()

    def test_same_day_reproducible(self):
        spec = DeploymentSpec(scale=0.0005, seed=3)
        a = next(iter(_day_corpus(spec, 2)))
        b = next(iter(_day_corpus(spec, 2)))
        assert (a.treated == b.treated).all()

    def test_volume_tracks_spec(self):
        spec = DeploymentSpec(scale=0.0005)
        corpus = _day_corpus(spec, 0)
        expected = (spec.changes_per_day * PAPER_DAILY_KPIS
                    / PAPER_DAILY_CHANGES)
        assert len(corpus) == pytest.approx(expected, rel=0.35)


class TestReportAggregation:
    def _report(self):
        report = DeploymentReport()
        report.days.append(DeploymentDay(
            day=0, changes=100, impactful_changes=2, kpis=1000,
            detections=50, true_detections=49, missed_impacted_kpis=5))
        report.days.append(DeploymentDay(
            day=1, changes=100, impactful_changes=1, kpis=1000,
            detections=30, true_detections=30, missed_impacted_kpis=2))
        return report

    def test_daily_averages(self):
        report = self._report()
        assert report.daily_changes == 100
        assert report.daily_kpis == 1000
        assert report.daily_detections == 40

    def test_week_precision_pools_counts(self):
        report = self._report()
        assert report.precision == pytest.approx(79 / 80)
        assert report.recall == pytest.approx(79 / 86)

    def test_empty_report_nan(self):
        report = DeploymentReport()
        assert math.isnan(report.precision)
        assert math.isnan(report.recall)

    def test_table3_row_keys(self):
        row = self._report().as_table3_row()
        assert set(row) == {
            "software_changes_per_day", "impactful_changes_per_day",
            "kpis_per_day", "kpi_changes_per_day", "precision", "recall",
        }
