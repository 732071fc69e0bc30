"""Service-KPI aggregation — paper section 2.2.

"A service KPI is an aggregation of all instance KPIs in the service."
Counts (page views, failures) aggregate by sum; intensities (response
delay, utilisation) by mean.  The aggregation rule lives on the
:class:`~repro.telemetry.kpi.KpiSpec`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..exceptions import TelemetryError
from .kpi import KpiCatalog, KpiKey
from .store import MetricStore
from .timeseries import TimeSeries

__all__ = ["aggregate_series", "aggregate_service_kpi", "ServiceAggregator"]


def aggregate_series(series: Sequence[TimeSeries],
                     how: str = "mean") -> TimeSeries:
    """Pointwise sum or mean of aligned series."""
    series = list(series)
    if not series:
        raise TelemetryError("cannot aggregate zero series")
    if how not in ("mean", "sum"):
        raise TelemetryError("invalid aggregation %r" % how)
    total = series[0]
    for fragment in series[1:]:
        total = total + fragment
    if how == "mean":
        return TimeSeries(total.start, total.bin_seconds,
                          total.values / len(series))
    return total


def aggregate_service_kpi(store: MetricStore, catalog: KpiCatalog,
                          service: str, instance_names: Iterable[str],
                          metric: str, from_time: int,
                          to_time: int) -> TimeSeries:
    """Roll instance measurements up into the service KPI for a range."""
    spec = catalog.get(metric)
    fragments = [
        store.range(KpiKey("instance", name, metric), from_time, to_time)
        for name in instance_names
    ]
    return aggregate_series(fragments, how=spec.aggregation)


class ServiceAggregator:
    """Keeps a store's service KPIs in sync with its instance KPIs.

    The centralised database "stores the service KPIs aggregated based on
    the KPIs of the instances"; in this reproduction the aggregator is
    invoked by the simulation after each collection round.
    """

    def __init__(self, store: MetricStore, catalog: KpiCatalog) -> None:
        self.store = store
        self.catalog = catalog

    def publish(self, service: str, instance_names: Sequence[str],
                metric: str, from_time: int, to_time: int) -> KpiKey:
        """Aggregate a range and append it under the service's key."""
        aggregated = aggregate_service_kpi(
            self.store, self.catalog, service, instance_names, metric,
            from_time, to_time,
        )
        key = KpiKey("service", service, metric)
        self.store.append(key, aggregated)
        return key
