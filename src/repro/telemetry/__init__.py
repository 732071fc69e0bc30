"""KPI telemetry: time series, KPI keys, the metric store."""

from .kpi import KpiKey
from .store import Block, MetricStore, Subscription
from .timeseries import DAY, MINUTE, TimeSeries

__all__ = ["KpiKey", "Block", "MetricStore", "Subscription",
           "DAY", "MINUTE", "TimeSeries"]
