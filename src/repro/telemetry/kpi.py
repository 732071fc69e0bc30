"""KPI keys: the address of one concrete KPI series.

Paper section 2.2 distinguishes three KPI levels:

* **server KPIs** — read from the OS by the per-server agent: CPU
  utilisation, CPU context switch count, memory utilisation, NIC
  throughput;
* **instance KPIs** — emitted by the service process: page view count,
  page view response delay, access failure count, ...;
* **service KPIs** — the aggregation of a service's instance KPIs.
"""

from __future__ import annotations

from typing import NamedTuple

from ..exceptions import TelemetryError

__all__ = ["KpiKey"]


class KpiKey(NamedTuple("_KpiKeyFields", [
        ("entity_type", str), ("entity", str), ("metric", str)])):
    """Addresses one concrete KPI series: (entity type, entity name, metric).

    ``entity_type`` is ``"server"``, ``"instance"`` or ``"service"``;
    ``entity`` a hostname, ``service@host`` instance name, or service
    name; ``metric`` a metric name.  A validated tuple: it hashes in C,
    equals the 3-tuple of its fields and orders like one.
    """

    __slots__ = ()

    def __new__(cls, entity_type: str, entity: str, metric: str) -> "KpiKey":
        if entity_type not in ("server", "instance", "service"):
            raise TelemetryError("invalid entity type %r" % (entity_type,))
        if not entity or not metric:
            raise TelemetryError("entity and metric must be non-empty")
        return tuple.__new__(cls, (entity_type, entity, metric))

    def __str__(self) -> str:
        return "%s:%s:%s" % self
