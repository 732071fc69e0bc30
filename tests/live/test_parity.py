"""The ISSUE's acceptance gate: live verdicts == offline verdicts.

Live and offline must agree on the full record set
``(change_id, entity_type, entity, metric, verdict, declaration_bin)``
for the same scenario.  Of the declared change behind a record only
``kind`` is outside the contract — offline classifies with samples after
the declaration bin; ``score`` is the declaring position's on both sides
(``test_incremental_detector.py``).
"""

import pytest

from repro.engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from repro.live import (offline_verdict_records, parity_live_config,
                        replay_scenario)

from .oracle import sorted_documents, standalone_verdict_documents

SPEC = FleetScenarioSpec(n_services=3, n_servers=12, n_changes=4,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=11)


@pytest.fixture(scope="module")
def offline_records():
    return offline_verdict_records(SyntheticFleetSource(SPEC))


class TestParity:
    def test_live_equals_offline(self, offline_records):
        report = replay_scenario(SPEC)
        assert report.live_records() == offline_records

    def test_parity_survives_fragment_batching(self, offline_records):
        report = replay_scenario(SPEC, flush_bins=5)
        assert report.live_records() == offline_records

    def test_parity_survives_score_chunking(self, offline_records):
        config = parity_live_config(SPEC, score_chunk_bins=7)
        report = replay_scenario(SPEC, live_config=config)
        assert report.live_records() == offline_records

    def test_check_offline_flag_agrees(self):
        report = replay_scenario(SPEC, check_offline=True)
        assert report.parity_ok is True
        assert report.parity["live_only"] == []
        assert report.parity["offline_only"] == []

    def test_verdict_count_matches_job_count(self, offline_records):
        report = replay_scenario(SPEC)
        assert len(report.verdicts) == len(offline_records)


class TestPooledScoringParity:
    """Pooled (stacked cross-detector) scoring is the service's one
    scoring path; detectors that score on their own inside ``extend``
    are the oracle it must agree with — field for field, not merely as
    parity records."""

    def test_pooled_verdicts_bit_identical_to_per_detector(self):
        """Same verdict *documents* — every field including emitted_at
        and did_estimate — as one standalone detector per KPI fed the
        same bins on the same ticks; only intra-tick bus order is free
        (the pool emits after the drain, in pool order)."""
        report = replay_scenario(SPEC)
        assert sorted_documents(report.verdicts) == \
            standalone_verdict_documents(SPEC)

    def test_pooled_composes_with_chunking_and_batching(self,
                                                        offline_records):
        config = parity_live_config(SPEC, score_chunk_bins=7)
        report = replay_scenario(SPEC, live_config=config, flush_bins=5)
        assert report.live_records() == offline_records
        assert sorted_documents(report.verdicts) == \
            standalone_verdict_documents(SPEC, config, flush_bins=5)

    def test_pool_actually_stacks(self):
        from repro.live.pool import (POOLED_BATCHES_METRIC,
                                     POOLED_SERIES_METRIC)
        report = replay_scenario(SPEC)
        counters = report.service_report["counters"]
        batches = counters[POOLED_BATCHES_METRIC]
        series = counters[POOLED_SERIES_METRIC]
        assert batches > 0
        # The whole point: many detector segments per scoring call.
        assert series / batches > 1.0
