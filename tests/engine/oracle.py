"""The engine's reference answers, one job at a time, off the stacked route.

``execute_jobs`` scores FUNNEL-family jobs in stacks and attributes only
the ones that declared.  The reference for that route is the core
pipeline on the job alone: :meth:`Funnel.assess` for ``funnel``,
``Funnel.detect(first_only=True)`` for ``improved_sst``.  No baseline
cache is consulted, so a cached row must also match what its own
normalisation gives.  The baselines have one route, ``run_job``, and it
is their reference.
"""

from repro.core import Funnel
from repro.engine import ItemOutcome, JobResult, run_job


def oracle_result(job) -> JobResult:
    """One job's answer from the core pipeline (or ``run_job``)."""
    name = job.detector.name
    if name not in ("funnel", "improved_sst"):
        return run_job(job)
    funnel = Funnel(job.detector.option("funnel_config"))
    if name == "improved_sst":
        changes = funnel.detect(job.treated_aggregate, job.change_index,
                                first_only=True)
        outcome = (ItemOutcome(positive=True,
                               detection_index=changes[0].index)
                   if changes else ItemOutcome(positive=False))
        return JobResult(job_id=job.job_id, detector=name, outcome=outcome)
    assessment = funnel.assess(job.treated, job.change_index,
                               control=job.control, history=job.history)
    # A detect negative carries the NO_CHANGE verdict assess gives it.
    index = assessment.change.index if assessment.change else None
    return JobResult(
        job_id=job.job_id, detector=name,
        outcome=ItemOutcome(positive=assessment.positive,
                            detection_index=index),
        verdict=assessment.verdict, did_estimate=assessment.did_estimate)


def oracle_results(jobs):
    return [oracle_result(job) for job in jobs]


def assert_identical(a, b):
    """Same jobs, detectors, outcomes, verdicts and DiD estimates, bit
    for bit (timings aside)."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.job_id == right.job_id
        assert left.detector == right.detector
        assert left.outcome == right.outcome
        assert left.verdict == right.verdict
        assert left.did_estimate == right.did_estimate
