"""The batched detect stage: parity, planning, packing, counters.

The executor's one route restructures execution — stacked detect, then
per-item attribution for declared funnel jobs only — but the contract is
that stacking changes throughput, never results.  These tests pin
``execute_jobs`` == ``run_job`` per job (the retained oracle: one job,
its detector's full ``assess``) bit-identically, inline and pooled, the
batch planner's grouping rules, the packed-payload round trip and its
dedup win on a fleet whose changes treat several servers, and the
batching counters.
"""

import pickle

import numpy as np
import pytest

from repro.engine import (BATCHABLE_DETECTORS, EngineConfig,
                          FleetScenarioSpec, SyntheticFleetSource,
                          execute_jobs, pack_jobs, plan_detect_batches,
                          reset_shared_cache, run_job, spec_for_method,
                          unpack_jobs)
from repro.engine.batching import (BATCHED_BATCHES_METRIC,
                                   BATCHED_CAPACITY_METRIC,
                                   BATCHED_JOBS_METRIC)
from repro.obs import ObsContext

#: Multi-treated scenario: every change dark-launches onto >= 2 servers,
#: so per-entity series repeat across a change's jobs (see dedup test).
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
    """Every job on its own through its detector's full pipeline."""
    reset_shared_cache()
    return [run_job(job) for job in jobs]


def _assert_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.job_id == right.job_id
        assert left.detector == right.detector
        assert left.outcome == right.outcome
        assert left.verdict == right.verdict
        assert left.did_estimate == right.did_estimate


class TestBatchedParity:
    def test_serial_batched_equals_per_item(self, mixed_jobs):
        batched = _run(mixed_jobs, workers=0, batch_size=8)
        _assert_identical(_oracle(mixed_jobs), batched)

    def test_pooled_batched_equals_serial_per_item(self, mixed_jobs):
        pooled = _run(mixed_jobs, workers=2, batch_size=8)
        _assert_identical(_oracle(mixed_jobs), pooled)

    def test_batch_size_does_not_matter(self, mixed_jobs):
        small = _run(mixed_jobs, workers=0, batch_size=2)
        large = _run(mixed_jobs, workers=0, batch_size=64)
        _assert_identical(small, large)


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


class TestPackedPayloads:
    def test_round_trip_is_content_identical(self, mixed_jobs):
        packed = pack_jobs(mixed_jobs)
        restored = unpack_jobs(packed)
        assert len(restored) == len(mixed_jobs)
        for original, back in zip(mixed_jobs, restored):
            assert back.job_id == original.job_id
            np.testing.assert_array_equal(back.treated, original.treated)
            for field in ("control", "history"):
                left = getattr(original, field)
                right = getattr(back, field)
                if left is None:
                    assert right is None
                else:
                    np.testing.assert_array_equal(right, left)

    def test_dedup_ships_each_distinct_row_once(self, mixed_jobs):
        """Every change here treats >= 2 servers, so control matrices
        repeat rows across the change's jobs — packing must pickle
        strictly fewer rows than the jobs reference."""
        packed = pack_jobs(mixed_jobs)
        assert 0 < len(packed.rows) < packed.total_rows
        assert len(pickle.dumps(packed)) < len(pickle.dumps(mixed_jobs))

    def test_survives_pickle(self, mixed_jobs):
        packed = pack_jobs(mixed_jobs[:6])
        clone = pickle.loads(pickle.dumps(packed))
        for original, back in zip(mixed_jobs[:6], unpack_jobs(clone)):
            np.testing.assert_array_equal(back.treated, original.treated)


class TestBatchedCounters:
    def _observed(self, jobs, **config):
        reset_shared_cache()
        obs = ObsContext()
        execute_jobs(jobs, config=EngineConfig(**config), obs=obs)
        snap = obs.metrics.snapshot()["counters"]
        return {name: sum(entry["value"] for entry in doc["values"])
                for name, doc in snap.items()}

    def test_batched_run_counts_batches_jobs_capacity(self, mixed_jobs):
        totals = self._observed(mixed_jobs, workers=0, batch_size=8)
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
        totals = self._observed(baselines, workers=0, batch_size=8)
        assert totals["repro_engine_jobs_total"] == len(baselines)
        assert BATCHED_BATCHES_METRIC not in totals
        assert BATCHED_JOBS_METRIC not in totals
        assert not totals.get(BATCHED_CAPACITY_METRIC)
