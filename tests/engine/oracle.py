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
    """One job's answer from the core pipeline (or ``run_job``): a
    ``funnel`` job's is ``Funnel.assess``'s whole ``Assessment``."""
    name = job.detector.name
    if name not in ("funnel", "improved_sst"):
        return run_job(job)
    funnel = Funnel(job.detector.option("funnel_config"))
    if name == "funnel":
        answer = funnel.assess(job.treated, job.change_index,
                           control=job.control, history=job.history)
    else:
        answer = ItemOutcome.of(funnel.detect(
            job.treated_aggregate, job.change_index, first_only=True))
    return JobResult(job_id=job.job_id, detector=name, answer=answer)


def oracle_results(jobs):
    return [oracle_result(job) for job in jobs]


def assert_identical(a, b):
    """Same jobs, detectors and answers, bit for bit (timings aside): a
    ``funnel`` job's whole ``Assessment`` — verdict, declared change,
    DiD estimate, control kind and notes — any other job's outcome."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.job_id == right.job_id
        assert left.detector == right.detector
        assert left.control == right.control
        assert left.assessment == right.assessment
        assert left.outcome == right.outcome
