"""The per-server monitoring agent.

Paper section 2.2: "The operations team deploys an agent on each server
to monitor the status of each instance and collect the KPIs of all
instances continuously ... by analyzing server log files ... the agent is
able to periodically collect server KPIs."  In this reproduction the
agent pulls per-bin samples from *collectors* (callables supplied by the
synthetic workload) and delivers them to the
:class:`~repro.telemetry.store.MetricStore` — the paper's 1-minute
collection interval with sub-second delivery.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..exceptions import TelemetryError
from .kpi import KpiKey
from .store import MetricStore
from .timeseries import MINUTE, TimeSeries

__all__ = ["Agent"]

#: A collector returns the metric value for the bin starting at ``t``.
Collector = Callable[[int], float]


class Agent:
    """Collects server and instance KPIs on one host and ships them.

    Example:
        >>> store = MetricStore()
        >>> agent = Agent("web-1", store)
        >>> key = agent.add_server_collector("memory_utilization",
        ...                                  lambda t: 42.0)
        >>> agent.collect(0)
        >>> store.series(KpiKey("server", "web-1",
        ...               "memory_utilization")).values.tolist()
        [42.0]
    """

    def __init__(self, hostname: str, store: MetricStore,
                 bin_seconds: int = MINUTE) -> None:
        if not hostname:
            raise TelemetryError("agent hostname must be non-empty")
        self.hostname = hostname
        self.store = store
        self.bin_seconds = bin_seconds
        self._collectors: Dict[KpiKey, Collector] = {}
        self._next_time: Dict[KpiKey, int] = {}

    # -- registration -----------------------------------------------------------

    def add_server_collector(self, metric: str, collector: Collector) -> KpiKey:
        key = KpiKey("server", self.hostname, metric)
        return self._register(key, collector)

    def _register(self, key: KpiKey, collector: Collector) -> KpiKey:
        if key in self._collectors:
            raise TelemetryError("collector already registered for %s" % (key,))
        self._collectors[key] = collector
        return key

    @property
    def monitored(self) -> List[KpiKey]:
        return sorted(self._collectors, key=str)

    # -- collection ---------------------------------------------------------------

    def collect(self, at_time: int) -> None:
        """Sample every collector for the bin starting at ``at_time``.

        Collection rounds must advance monotonically per KPI; a repeated
        or out-of-order round is an error, mirroring the append-only
        store contract.
        """
        for key, collector in self._collectors.items():
            expected = self._next_time.get(key)
            if expected is not None and at_time != expected:
                raise TelemetryError(
                    "collection for %s at %d, expected %d"
                    % (key, at_time, expected)
                )
            value = float(collector(at_time))
            if not np.isfinite(value):
                raise TelemetryError(
                    "collector for %s returned a non-finite value" % (key,)
                )
            fragment = TimeSeries(at_time, self.bin_seconds, [value])
            self.store.append(key, fragment)
            self._next_time[key] = at_time + self.bin_seconds
