"""Cross-commit pin: the engine's results on one small fixed scenario.

The engine's other parity tests compare two routes *inside one commit*
(``execute_jobs`` against the core pipeline per job in
``tests/engine/oracle.py``, small against large stacks), so a change to
the declaration rule that moves both sides together passes them all.  ``tests/live/test_golden_digest.py`` pins the live plane, but
its replay never runs the engine.  The values below were recorded at
commit 83747e2 (PR 19), **before** the declaration pass learned to stop
at a row's first reportable change, by running this module there; engine
and declaration refactors are held to byte identity with that commit,
not only with themselves.

A value may change only in a PR whose purpose is to change verdicts;
such a PR re-records it and says so in CHANGES.md.  (Recorded on
CPython 3.11 / NumPy 2.4: ``did_estimate`` and ``score`` are floats, so
if another LAPACK moves a last digit, check out 83747e2 on that stack
and compare there before blaming the change.)
"""

import hashlib

import numpy as np
import pytest

from repro.core.funnel import Funnel
from repro.engine import (AssessmentEngine, FleetScenarioSpec,
                          SyntheticFleetSource, reset_shared_cache)
from repro.types import Verdict

#: the live golden test's fleet, assessed offline
SPEC = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=3,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=23)
DETECTORS = ("funnel", "improved_sst")

RESULTS_SHA = (
    "219bd83a1c330751b4b67cb3aef480419d36a0b8488364e5678dcdee702f6f5e")
JOBS = 48
POSITIVES = 12

#: ``Funnel().detect`` on :func:`two_shift_series`: every declared change
#: (``score`` as its ``repr``: the declaring position's — positions 117
#: and 317 of the eager score array — re-recorded when it stopped being
#: the stretch peak, 2.689473708311063 for the first), not only the first
TWO_SHIFT_CHANGES = [
    (133, 120, "2.6822248967544446", "level_shift", 1),
    (333, 320, "0.7407457652199485", "level_shift", -1),
]


def results_sha(results) -> str:
    """sha256 over everything a job's result says except its timings.

    A ``no_change`` verdict is written as no verdict, as at the recording
    commit: the engine attached none to a funnel job that declared
    nothing then, and no declared change ever gets ``no_change``, so the
    two encodings say the same (``test_engine.py`` pins the verdict)."""
    lines = ["%d|%s|%s|%s|%s|%r" % (
        r.job_id, r.detector,
        None if r.verdict in (None, Verdict.NO_CHANGE) else r.verdict.value,
        r.outcome.positive, r.outcome.detection_index, r.did_estimate)
        for r in results]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def two_shift_series() -> np.ndarray:
    """Noise with an 8-sigma step up at bin 120 and a step down at 320
    (late enough for the raised level to be the prefix median by then)."""
    x = np.random.default_rng(20).normal(50.0, 1.0, size=420)
    x[120:] += 8.0
    x[320:] -= 14.0
    return x


@pytest.fixture(autouse=True)
def _fresh_baseline_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


class TestGoldenEngineDigest:
    def test_fleet_results(self):
        engine = AssessmentEngine(detectors=DETECTORS)
        jobs = SyntheticFleetSource(SPEC).plan_jobs(engine.specs)
        results = engine.run(jobs)
        assert len(results) == JOBS
        assert sum(r.positive for r in results) == POSITIVES
        assert results_sha(results) == RESULTS_SHA

    def test_every_change_of_a_two_shift_series(self):
        changes = Funnel().detect(two_shift_series(), 100)
        assert [(c.index, c.start_index, repr(c.score), c.kind, c.direction)
                for c in changes] == TWO_SHIFT_CHANGES
