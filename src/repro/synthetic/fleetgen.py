"""Fleet and change-workload generation — the section 4.1 environment.

The paper's evaluation drew from "19 moderate-sized services over a
2-day period" with 6277 software changes and 931 servers.  This module
generates that shape: a fleet with a realistic naming hierarchy (a few
product families, each with frontend/backend/cache/... tiers), servers
distributed across services, explicit cross-family relationship edges,
and a day's stream of software changes following the operational
practices the paper describes (mostly dark launches, no two concurrent
changes per service).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..changes.change import SoftwareChange
from ..changes.log import ChangeLog
from ..changes.rollout import RolloutPolicy, plan_rollout
from ..exceptions import ParameterError
from ..telemetry.timeseries import DAY, MINUTE
from ..topology.entities import Fleet
from ..types import ChangeKind, LaunchMode

__all__ = ["FleetSpec", "generate_fleet", "ChangeWorkloadSpec",
           "generate_change_workload"]

_FAMILIES = ("search", "ads", "mail", "shop", "feed", "video", "map")
_TIERS = ("frontend", "backend", "cache", "index", "api", "store")


@dataclass(frozen=True)
class FleetSpec:
    """Shape of the generated fleet.

    Defaults reproduce the section 4.1 environment: 19 services over
    931 servers.
    """

    n_services: int = 19
    n_servers: int = 931
    min_servers_per_service: int = 4
    cross_family_edges: int = 6
    seed: int = 4

    def __post_init__(self) -> None:
        if self.n_services < 1:
            raise ParameterError("n_services must be >= 1")
        if self.n_servers < self.n_services * self.min_servers_per_service:
            raise ParameterError(
                "%d servers cannot give %d services at least %d each"
                % (self.n_servers, self.n_services,
                   self.min_servers_per_service)
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
    spare = spec.n_servers - spec.n_services * spec.min_servers_per_service
    extra = np.floor(weights * spare).astype(int)
    # Distribute the rounding remainder to the largest services.
    remainder = spare - int(extra.sum())
    for i in np.argsort(-weights)[:remainder]:
        extra[i] += 1
    counts = spec.min_servers_per_service + extra

    fleet = Fleet()
    host_id = 0
    for name, count in zip(names, counts):
        hostnames = []
        prefix = name.replace(".", "-")
        for _ in range(int(count)):
            host_id += 1
            hostnames.append("%s-%04d" % (prefix, host_id))
        fleet.add_service(name, hostnames)

    # Cross-family request/response edges (e.g. search.frontend calls
    # ads.api), in addition to the naming-derived ones.  A one-service
    # fleet has no pair to draw.
    edges = spec.cross_family_edges if spec.n_services >= 2 else 0
    for _ in range(edges):
        a, b = rng.choice(spec.n_services, size=2, replace=False)
        source, target = names[int(a)], names[int(b)]
        if source.split(".")[0] != target.split(".")[0]:
            fleet.add_relationship(source, target)
    return fleet


@dataclass(frozen=True)
class ChangeWorkloadSpec:
    """Shape of one day's software-change stream.

    Defaults approximate section 4.1's 6277 changes over 2 days across
    19 services (~165 changes per service-day, i.e. busy services).
    """

    changes_per_day: int = 3138
    dark_fraction: float = 0.75
    upgrade_fraction: float = 0.4
    treated_fraction: float = 0.25
    start_time: int = 0
    seed: int = 9

    def __post_init__(self) -> None:
        if self.changes_per_day < 1:
            raise ParameterError("changes_per_day must be >= 1")
        for name in ("dark_fraction", "upgrade_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError("%s must be in [0, 1]" % name)


def generate_change_workload(fleet: Fleet,
                             spec: Optional[ChangeWorkloadSpec] = None,
                             guard_seconds: int = 3600
                             ) -> Tuple[ChangeLog, List[SoftwareChange]]:
    """Generate one day of software changes against ``fleet``.

    Changes are spread uniformly over the day; per service they respect
    the no-concurrent-changes guard (a slot that would violate it is
    re-assigned to the least recently changed service).  Returns the
    populated :class:`~repro.changes.log.ChangeLog` plus the time-ordered
    change list.
    """
    spec = spec or ChangeWorkloadSpec()
    rng = np.random.default_rng(spec.seed)
    log = ChangeLog(concurrency_guard_seconds=guard_seconds)
    services = fleet.service_names
    last_change_at = {name: -guard_seconds for name in services}
    changes: List[SoftwareChange] = []

    slot_times = np.sort(rng.integers(0, DAY // MINUTE,
                                      size=spec.changes_per_day)) * MINUTE
    for at in slot_times:
        at = int(at) + spec.start_time
        candidates = [s for s in services
                      if at - last_change_at[s] >= guard_seconds]
        if not candidates:
            continue           # every service busy; skip the slot
        service = candidates[int(rng.integers(0, len(candidates)))]
        hostnames = fleet.service(service).hostnames
        dark = (rng.random() < spec.dark_fraction) and len(hostnames) >= 2
        policy = RolloutPolicy(
            mode=LaunchMode.DARK if dark else LaunchMode.FULL,
            treated_fraction=spec.treated_fraction,
            seed=int(rng.integers(0, 2 ** 31)),
        )
        plan = plan_rollout(hostnames, policy)
        kind = (ChangeKind.SOFTWARE_UPGRADE
                if rng.random() < spec.upgrade_fraction
                else ChangeKind.CONFIG_CHANGE)
        change = plan.to_change(service, kind, at_time=at)
        log.record(change)
        last_change_at[service] = at
        changes.append(change)
    return log, changes
