"""Software-change records — paper section 2.1.

FUNNEL assesses two change types: *software upgrades* (new features, bug
fixes, performance work — assessed as a whole, not per feature) and
*configuration changes* (OS/infrastructure configuration, service
configuration, deployment scale, data source).  A change is identified
by the service it targets, the servers it was deployed on, and its
timestamp; whether it was Dark or Full launched follows from comparing
the deployed servers with the service's full deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import ChangeLogError
from ..types import ChangeKind

__all__ = ["SoftwareChange", "ConfigScope"]


class ConfigScope:
    """The configuration-change scopes enumerated in section 2.1."""

    OS = "os"
    INFRASTRUCTURE = "infrastructure"
    SERVICE = "service"
    DEPLOYMENT_SCALE = "deployment_scale"
    DATA_SOURCE = "data_source"

    ALL = (OS, INFRASTRUCTURE, SERVICE, DEPLOYMENT_SCALE, DATA_SOURCE)


@dataclass(frozen=True)
class SoftwareChange:
    """One software change as recorded in the change deployment logs.

    Attributes:
        change_id: unique identifier.
        kind: upgrade or configuration change.
        service: the changed service's name.
        hostnames: servers the change was deployed on (the tservers).
        at_time: deployment timestamp (simulation seconds).
        description: operator-facing summary.
        config_scope: for configuration changes, one of
            :class:`ConfigScope`; ``None`` for upgrades.
    """

    change_id: str
    kind: ChangeKind
    service: str
    hostnames: Tuple[str, ...]
    at_time: int
    description: str = ""
    config_scope: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.change_id:
            raise ChangeLogError("change_id must be non-empty")
        if not self.service:
            raise ChangeLogError("change %s names no service" % self.change_id)
        hostnames = tuple(self.hostnames)
        if not hostnames:
            raise ChangeLogError(
                "change %s deployed on no servers" % self.change_id
            )
        if len(set(hostnames)) != len(hostnames):
            raise ChangeLogError(
                "change %s lists duplicate servers" % self.change_id
            )
        object.__setattr__(self, "hostnames", hostnames)
        if self.kind is ChangeKind.CONFIG_CHANGE:
            if (self.config_scope is not None
                    and self.config_scope not in ConfigScope.ALL):
                raise ChangeLogError(
                    "invalid config scope %r" % self.config_scope
                )
        elif self.config_scope is not None:
            raise ChangeLogError(
                "software upgrades carry no config scope"
            )
