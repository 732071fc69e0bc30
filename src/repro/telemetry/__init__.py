"""KPI telemetry: time series, agents, the metric store, aggregation."""

from .agent import Agent
from .aggregation import ServiceAggregator, aggregate_series
from .kpi import KpiCatalog, KpiKey, KpiSpec, standard_server_kpis
from .store import MetricStore, Subscription
from .timeseries import DAY, MINUTE, TimeSeries, bin_events

__all__ = ["Agent", "ServiceAggregator", "aggregate_series",
           "KpiCatalog", "KpiKey", "KpiSpec", "standard_server_kpis",
           "MetricStore", "Subscription",
           "DAY", "MINUTE", "TimeSeries", "bin_events"]
