"""Services, servers, instances and the fleet that contains them.

Paper section 2.2 and Fig. 1: a *service* runs as one *instance*
(process) per *server*; an agent on each server collects server KPIs
(CPU context switch count, memory utilisation, NIC throughput, ...) and
instance KPIs (page view count, response delay, ...); a *service KPI* is
the aggregation of the service's instance KPIs.

The :class:`Fleet` is the registry the rest of the library works
against: impact-set identification queries it for a service's servers
and its relationships; the synthetic workload generators populate it; the
deployment simulation mutates it as rollouts progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import TopologyError
from .graph import ServiceGraph
from .naming import derive_relationships, validate_service_name

__all__ = ["Server", "Instance", "Service", "Fleet"]


@dataclass(frozen=True)
class Server:
    """A physical/virtual machine.

    In the studied environment a server is dedicated to one service
    (section 1: "a server is usually dedicated to a specific service in
    our context").
    """

    hostname: str
    service: str

    def __post_init__(self) -> None:
        if not self.hostname:
            raise TopologyError("server hostname must be non-empty")
        validate_service_name(self.service)


@dataclass(frozen=True)
class Instance:
    """A process of a specific service on a specific server."""

    service: str
    hostname: str

    def __post_init__(self) -> None:
        validate_service_name(self.service)
        if not self.hostname:
            raise TopologyError("instance hostname must be non-empty")

    @property
    def name(self) -> str:
        return "%s@%s" % (self.service, self.hostname)


@dataclass
class Service:
    """A named service and the hostnames it is deployed on."""

    name: str
    hostnames: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        validate_service_name(self.name)


class Fleet:
    """Registry of services, servers and instances with their relationships.

    Example:
        >>> fleet = Fleet()
        >>> _ = fleet.add_service("search.frontend", ["fe-1", "fe-2"])
        >>> _ = fleet.add_service("search.backend", ["be-1"])
        >>> fleet.relationships.reachable("search.backend")
        {'search.frontend'}
        >>> fleet.service("search.frontend").hostnames
        ['fe-1', 'fe-2']
    """

    def __init__(self) -> None:
        self._services: Dict[str, Service] = {}
        self._servers: Dict[str, Server] = {}
        self._explicit_edges: List[Tuple[str, str]] = []
        self._relationships: Optional[ServiceGraph] = None

    # -- mutation ----------------------------------------------------------

    def add_service(self, name: str, hostnames: Iterable[str]) -> Service:
        """Register a service deployed on ``hostnames``.

        Each hostname becomes a :class:`Server` dedicated to the service;
        a hostname already owned by a different service is an error.
        """
        validate_service_name(name)
        if name in self._services:
            raise TopologyError("service %r already registered" % name)
        hostnames = list(hostnames)
        if len(set(hostnames)) != len(hostnames):
            raise TopologyError("duplicate hostnames for service %r" % name)
        for host in hostnames:
            owner = self._servers.get(host)
            if owner is not None and owner.service != name:
                raise TopologyError(
                    "server %r already dedicated to %r" % (host, owner.service)
                )
        service = Service(name, hostnames)
        self._services[name] = service
        for host in hostnames:
            self._servers[host] = Server(host, name)
        self._relationships = None      # invalidate cache
        return service

    def add_relationship(self, source: str, target: str) -> None:
        """Record an explicit service relationship (request/response flow)."""
        for name in (source, target):
            if name not in self._services:
                raise TopologyError("unknown service %r" % name)
        self._explicit_edges.append((source, target))
        self._relationships = None

    # -- queries ------------------------------------------------------------

    @property
    def service_names(self) -> List[str]:
        return sorted(self._services)

    def service(self, name: str) -> Service:
        try:
            return self._services[name]
        except KeyError:
            raise TopologyError("unknown service %r" % name) from None

    def __contains__(self, service_name: str) -> bool:
        return service_name in self._services

    def __len__(self) -> int:
        return len(self._services)

    @property
    def relationships(self) -> ServiceGraph:
        """The relationship graph (naming-derived + explicit), cached."""
        if self._relationships is None:
            self._relationships = derive_relationships(
                self.service_names, self._explicit_edges
            )
        return self._relationships
