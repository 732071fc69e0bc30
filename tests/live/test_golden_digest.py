"""Cross-commit pin: the verdict documents of one small fixed scenario.

Every other parity test in this directory compares two paths *inside one
commit* (live vs offline, pooled vs standalone, resumed vs uninterrupted), so
a refactor that moves both sides together passes them all.  The digests
below were recorded at commit 788f7f7 (PR 13), **before** the columnar
ingest rewrite touched any source file, by running this scenario there;
ingest-plane refactors are held to byte identity with that commit, not
only with themselves.

A digest may change only in a PR whose purpose is to change verdicts;
such a PR re-records it and says so in CHANGES.md.  (Recorded on
CPython 3.11 / NumPy 2.4: ``did_estimate`` is a float, so if another
LAPACK moves its last digit, check out 788f7f7 on that stack and compare
there before blaming the change.)
"""

import hashlib
import json

import pytest

from repro.engine import reset_shared_cache
from repro.engine.fleet import FleetScenarioSpec
from repro.faults import DELAY, preset_plan
from repro.faults.injector import FAULTS_INJECTED_METRIC
from repro.live import parity_live_config, replay_scenario, verdict_sort_key
from repro.telemetry.timeseries import MINUTE

SPEC = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=3,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=23)
#: KPI streams of SPEC's fleet (one fragment per stream per tick)
STREAMS = 26

#: flush_bins -> digest (``emitted_at`` moves with the tick cadence)
CLEAN_SHA = {
    1: "d63bb9cd9849403ed565685d7ed6daf2dcc9a8bcc925708a1874ee002de72659",
    5: "a0521e8ec053531718d4e2b3898af7bc51733970aed6ab26864be1d996b065c3",
}
#: preset -> (digest, faults injected)
CHAOS = {
    "all": ("7f17b47fc8fdc37e795ec67ac5fda8a98705d2a43b17ef0c934eb4c1ce50211b",
            1475),
    "drop-delay-dup": (
        "3b8ac4fcb18d33de2abf9b77e16d565a7c845b4b36291f8e3c18052c161aadf0",
        1580),
}


def verdicts_sha(report) -> str:
    """sha256 over the verdict documents in the bus's canonical order,
    :func:`verdict_sort_key` (intra-tick bus order is the one thing
    ingest may permute)."""
    documents = [v.as_dict()
                 for v in sorted(report.verdicts, key=verdict_sort_key)]
    blob = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def _fresh_baseline_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


class TestGoldenVerdictDigest:
    @pytest.mark.parametrize("flush_bins", sorted(CLEAN_SHA))
    def test_clean_replay(self, flush_bins):
        report = replay_scenario(SPEC, flush_bins=flush_bins)
        assert len(report.verdicts) == 24
        assert report.ticks == 360 // flush_bins
        assert report.fragments_streamed == report.ticks * STREAMS
        assert verdicts_sha(report) == CLEAN_SHA[flush_bins]

    @pytest.mark.parametrize("preset", sorted(CHAOS))
    def test_chaos_replay(self, preset):
        """Under a fault plan every key rolls its own ingest and push
        fault; digest and injection count pin the per-key rolls."""
        digest, injected = CHAOS[preset]
        plan = preset_plan(preset, seed=11, lead_time=SPEC.lead_bins * MINUTE)
        grace = max(rule.delay_bins for rule in plan.rules
                    if rule.kind == DELAY) * MINUTE
        config = parity_live_config(SPEC, repair_from_store=True,
                                    close_grace_seconds=grace)
        report = replay_scenario(SPEC, live_config=config, fault_plan=plan)
        counters = report.service_report["counters"]
        assert counters[FAULTS_INJECTED_METRIC] == injected
        assert verdicts_sha(report) == digest
