"""The batched detect stage: parity, planning, counters.

The executor's one route restructures execution — stacked detect, then
per-item attribution for declared funnel jobs only — but the contract is
that stacking changes throughput, never results.  These tests pin
``execute_jobs`` bit-identically to the core pipeline on each job alone
(``tests/engine/oracle.py``: ``Funnel.assess`` for ``funnel``,
``Funnel.detect`` for ``improved_sst``, ``run_job`` for the baselines),
the batch planner's grouping rules, and the batching counters.
"""

import numpy as np
import pytest

from repro.engine import (BATCHABLE_DETECTORS, EngineConfig,
                          FleetScenarioSpec, SyntheticFleetSource,
                          execute_jobs, plan_detect_batches,
                          reset_shared_cache, spec_for_method)
from repro.engine.batching import (BATCHED_BATCHES_METRIC,
                                   BATCHED_CAPACITY_METRIC,
                                   BATCHED_JOBS_METRIC)
from repro.obs import ObsContext

from .oracle import assert_identical, oracle_results

#: Multi-treated scenario: every change dark-launches onto >= 2 servers,
#: so per-entity series repeat across a change's jobs.
SPEC = FleetScenarioSpec(n_services=3, n_servers=18, n_changes=3,
                         history_days=1, seed=13)


@pytest.fixture(scope="module")
def mixed_jobs():
    """Batchable (funnel, improved_sst) plus passthrough (cusum) jobs."""
    source = SyntheticFleetSource(SPEC)
    specs = tuple(spec_for_method(m)
                  for m in ("funnel", "improved_sst", "cusum"))
    return list(source.plan_jobs(specs))


@pytest.fixture(autouse=True)
def _cold_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


def _run(jobs, **config):
    reset_shared_cache()
    return execute_jobs(jobs, config=EngineConfig(**config))


def _oracle(jobs):
    """Every job on its own through the core pipeline."""
    reset_shared_cache()
    return oracle_results(jobs)


class TestBatchedParity:
    def test_serial_batched_equals_per_item(self, mixed_jobs):
        batched = _run(mixed_jobs, batch_size=8)
        assert_identical(_oracle(mixed_jobs), batched)

    def test_batch_size_does_not_matter(self, mixed_jobs):
        small = _run(mixed_jobs, batch_size=2)
        large = _run(mixed_jobs, batch_size=64)
        assert_identical(small, large)


class TestBatchPlanning:
    def test_groups_by_detector_and_length(self, mixed_jobs):
        batches, passthrough = plan_detect_batches(mixed_jobs, batch_size=8)
        batched_positions = [p for b in batches for p in b.positions]
        assert sorted(batched_positions + passthrough) == \
            list(range(len(mixed_jobs)))
        for batch in batches:
            assert batch.size <= 8
            assert batch.spec.name in BATCHABLE_DETECTORS
            assert batch.stack.shape == (batch.size,
                                         batch.stack.shape[1])
            assert batch.stack.flags["C_CONTIGUOUS"]
            for position, row in zip(batch.positions, batch.stack):
                np.testing.assert_array_equal(
                    row, mixed_jobs[position].treated_aggregate)
        for position in passthrough:
            assert mixed_jobs[position].detector.name \
                not in BATCHABLE_DETECTORS

    def test_passthrough_is_exactly_the_baselines(self, mixed_jobs):
        _, passthrough = plan_detect_batches(mixed_jobs, batch_size=8)
        expected = [i for i, job in enumerate(mixed_jobs)
                    if job.detector.name == "cusum"]
        assert passthrough == expected


class TestBatchedCounters:
    def _observed(self, jobs, **config):
        reset_shared_cache()
        obs = ObsContext()
        execute_jobs(jobs, config=EngineConfig(**config), obs=obs)
        snap = obs.metrics.snapshot()["counters"]
        return {name: sum(entry["value"] for entry in doc["values"])
                for name, doc in snap.items()}

    def test_batched_run_counts_batches_jobs_capacity(self, mixed_jobs):
        totals = self._observed(mixed_jobs, batch_size=8)
        batchable = sum(1 for job in mixed_jobs
                        if job.detector.name in BATCHABLE_DETECTORS)
        assert totals[BATCHED_JOBS_METRIC] == batchable
        assert totals[BATCHED_BATCHES_METRIC] >= 1
        # Fill ratio: planned capacity bounds the jobs from above.
        assert totals[BATCHED_JOBS_METRIC] <= \
            totals[BATCHED_CAPACITY_METRIC]

    def test_per_item_run_has_no_batched_counters(self, mixed_jobs):
        """The baselines are the jobs that still run per item: they have
        no stacked detect stage, pass through ``run_job`` and leave the
        batching counters untouched."""
        baselines = [job for job in mixed_jobs
                     if job.detector.name not in BATCHABLE_DETECTORS]
        totals = self._observed(baselines, batch_size=8)
        assert totals["repro_engine_jobs_total"] == len(baselines)
        assert BATCHED_BATCHES_METRIC not in totals
        assert BATCHED_JOBS_METRIC not in totals
        assert not totals.get(BATCHED_CAPACITY_METRIC)
