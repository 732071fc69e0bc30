"""Run the library's docstring examples as tests.

Every public-API docstring example must actually work — a reproduction
whose README/examples drift from the code is worse than none.
"""

import doctest

import pytest

import repro.core.did
import repro.core.funnel
import repro.core.ika
import repro.core.scoring
import repro.core.sst
import repro.simulation.clock
import repro.simulation.scenario
import repro.telemetry.agent
import repro.telemetry.store
import repro.telemetry.timeseries
import repro.topology.entities

MODULES = [
    repro.core.did,
    repro.core.funnel,
    repro.core.ika,
    repro.core.scoring,
    repro.core.sst,
    repro.simulation.clock,
    repro.simulation.scenario,
    repro.telemetry.agent,
    repro.telemetry.store,
    repro.telemetry.timeseries,
    repro.topology.entities,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    results = doctest.testmod(module, verbose=False,
                              optionflags=doctest.ELLIPSIS)
    assert results.failed == 0, (
        "%d doctest failure(s) in %s" % (results.failed, module.__name__))
    # Make sure the modules we chose actually contain examples.
    if module in (repro.core.funnel, repro.telemetry.timeseries):
        assert results.attempted > 0
