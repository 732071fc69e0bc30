"""KPI definitions and the catalog that types them.

Paper section 2.2 distinguishes three KPI levels:

* **server KPIs** — read from the OS by the per-server agent: CPU
  utilisation, CPU context switch count, memory utilisation, NIC
  throughput;
* **instance KPIs** — emitted by the service process: page view count,
  page view response delay, access failure count, ...;
* **service KPIs** — the aggregation of a service's instance KPIs.

The evaluation additionally characterises each KPI as *seasonal*,
*stationary* or *variable* (section 4.2.1), which drives both the
synthetic generators and the per-type accuracy breakdown of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

from ..exceptions import TelemetryError
from ..types import KpiCharacter

__all__ = ["KpiSpec", "KpiCatalog", "standard_server_kpis", "KpiKey"]


@dataclass(frozen=True)
class KpiSpec:
    """Static description of one KPI metric.

    Attributes:
        name: identifier, e.g. ``"memory_utilization"``.
        level: ``"server"``, ``"instance"`` or ``"service"``.
        character: the archetype of its normal behaviour.
        unit: free-form unit label for reports.
    """

    name: str
    level: str
    character: KpiCharacter
    unit: str = ""

    def __post_init__(self) -> None:
        if self.level not in ("server", "instance", "service"):
            raise TelemetryError("invalid KPI level %r" % self.level)


class KpiKey(NamedTuple("_KpiKeyFields", [
        ("entity_type", str), ("entity", str), ("metric", str)])):
    """Addresses one concrete KPI series: (entity type, entity name, metric).

    ``entity_type`` is ``"server"``, ``"instance"`` or ``"service"``;
    ``entity`` a hostname, ``service@host`` instance name, or service
    name; ``metric`` a :class:`KpiSpec` name.  A validated tuple: it
    hashes in C, equals the 3-tuple of its fields and orders like one.
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


class KpiCatalog:
    """Registry of :class:`KpiSpec` by name.

    The operations team defines service/instance KPIs per service (paper
    section 4.1); the catalog lets the rest of the library look up a
    metric's character.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, KpiSpec] = {}

    def register(self, spec: KpiSpec) -> KpiSpec:
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise TelemetryError(
                "KPI %r already registered with a different spec" % spec.name
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> KpiSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise TelemetryError("unknown KPI %r" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


def standard_server_kpis(catalog: Optional[KpiCatalog] = None) -> KpiCatalog:
    """Register the server KPIs the paper's evaluation uses (section 4.1).

    "We used the CPU context switch count and the memory utilization as
    the KPIs of all the servers": context switches are the canonical
    *variable* KPI, memory utilisation the canonical *stationary* one.
    NIC throughput appears in the Redis case study (Fig. 6).
    """
    catalog = catalog or KpiCatalog()
    catalog.register(KpiSpec(
        name="cpu_context_switch_count", level="server",
        character=KpiCharacter.VARIABLE, unit="1/min",
    ))
    catalog.register(KpiSpec(
        name="memory_utilization", level="server",
        character=KpiCharacter.STATIONARY, unit="%",
    ))
    catalog.register(KpiSpec(
        name="nic_throughput", level="server",
        character=KpiCharacter.VARIABLE, unit="MB/s",
    ))
    catalog.register(KpiSpec(
        name="cpu_utilization", level="server",
        character=KpiCharacter.STATIONARY, unit="%",
    ))
    return catalog
