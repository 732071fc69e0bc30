"""KPI telemetry: time series, KPI catalogue and keys, the metric store."""

from .kpi import KpiCatalog, KpiKey, KpiSpec, standard_server_kpis
from .store import Block, MetricStore, Subscription
from .timeseries import DAY, MINUTE, TimeSeries

__all__ = ["KpiCatalog", "KpiKey", "KpiSpec", "standard_server_kpis",
           "Block", "MetricStore", "Subscription",
           "DAY", "MINUTE", "TimeSeries"]
