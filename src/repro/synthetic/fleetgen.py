"""Fleet generation — the section 4.1 environment.

The paper's evaluation drew from "19 moderate-sized services over a
2-day period" with 6277 software changes and 931 servers.  This module
generates that fleet's shape: a realistic naming hierarchy (a few
product families, each with frontend/backend/cache/... tiers), servers
distributed across services, and explicit cross-family relationship
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..exceptions import ParameterError
from ..topology.entities import Fleet

__all__ = ["FleetSpec", "generate_fleet"]

_FAMILIES = ("search", "ads", "mail", "shop", "feed", "video", "map")
_TIERS = ("frontend", "backend", "cache", "index", "api", "store")
#: Servers every service gets before the skewed split of the rest.
MIN_SERVERS_PER_SERVICE = 4
#: Cross-family request/response edges drawn (e.g. search.frontend calls
#: ads.api), in addition to the naming-derived ones.
CROSS_FAMILY_EDGES = 6


@dataclass(frozen=True)
class FleetSpec:
    """Shape of the generated fleet.

    Defaults reproduce the section 4.1 environment: 19 services over
    931 servers.
    """

    n_services: int = 19
    n_servers: int = 931
    seed: int = 4

    def __post_init__(self) -> None:
        if self.n_services < 1:
            raise ParameterError("n_services must be >= 1")
        if self.n_servers < self.n_services * MIN_SERVERS_PER_SERVICE:
            raise ParameterError(
                "%d servers cannot give %d services at least %d each"
                % (self.n_servers, self.n_services, MIN_SERVERS_PER_SERVICE)
            )


def _service_names(n: int, rng: np.random.Generator) -> List[str]:
    """``family.tier`` names, family by family.

    Past the ``len(_FAMILIES) * len(_TIERS)`` distinct pairs the walk
    starts over with a numeric tier suffix (``search.frontend2``), so
    any fleet size gets unique names and small fleets keep theirs.
    """
    names: List[str] = []
    for i in range(n):
        lap, slot = divmod(i, len(_FAMILIES) * len(_TIERS))
        family, tier = divmod(slot, len(_TIERS))
        names.append("%s.%s%s" % (_FAMILIES[family], _TIERS[tier],
                                  lap + 1 if lap else ""))
    return names


def generate_fleet(spec: Optional[FleetSpec] = None) -> Fleet:
    """Generate a fleet with the section 4.1 shape.

    Server counts per service follow a skewed (geometric-ish) split so a
    few services are large and most are moderate — matching how real
    deployments look and exercising both ends of the control-group-size
    spectrum.
    """
    spec = spec or FleetSpec()
    rng = np.random.default_rng(spec.seed)
    names = _service_names(spec.n_services, rng)

    weights = rng.pareto(2.0, size=spec.n_services) + 1.0
    weights = weights / weights.sum()
    spare = spec.n_servers - spec.n_services * MIN_SERVERS_PER_SERVICE
    extra = np.floor(weights * spare).astype(int)
    # Distribute the rounding remainder to the largest services.
    remainder = spare - int(extra.sum())
    for i in np.argsort(-weights)[:remainder]:
        extra[i] += 1
    counts = MIN_SERVERS_PER_SERVICE + extra

    fleet = Fleet()
    host_id = 0
    for name, count in zip(names, counts):
        hostnames = []
        prefix = name.replace(".", "-")
        for _ in range(int(count)):
            host_id += 1
            hostnames.append("%s-%04d" % (prefix, host_id))
        fleet.add_service(name, hostnames)

    # A one-service fleet has no pair to draw.
    edges = CROSS_FAMILY_EDGES if spec.n_services >= 2 else 0
    for _ in range(edges):
        a, b = rng.choice(spec.n_services, size=2, replace=False)
        source, target = names[int(a)], names[int(b)]
        if source.split(".")[0] != target.split(".")[0]:
            fleet.add_relationship(source, target)
    return fleet
