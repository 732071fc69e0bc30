"""Rollout policies: Dark Launching and Full Launching.

Paper section 1: instead of rolling a change out to all servers at once,
the operations team "deploys the software change on a subset of servers
at the beginning and continuously monitors a predefined list of KPIs"
(Dark Launching).  The rollout policy decides the treated subset; the
remainder become the control group FUNNEL's DiD stage compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ChangeLogError, ParameterError
from ..types import LaunchMode

__all__ = ["RolloutPolicy", "RolloutPlan", "plan_rollout"]

#: Share of a service's servers a Dark launch treats in its first stage.
TREATED_FRACTION = 0.25


@dataclass(frozen=True)
class RolloutPolicy:
    """How a change is deployed across a service's servers.

    Attributes:
        mode: Dark or Full launching.
        seed: RNG seed for choosing the treated subset.
    """

    mode: LaunchMode = LaunchMode.DARK
    seed: Optional[int] = None


@dataclass(frozen=True)
class RolloutPlan:
    """The concrete treated/control split for one change."""

    treated: Tuple[str, ...]
    control: Tuple[str, ...]
    mode: LaunchMode

    def __post_init__(self) -> None:
        overlap = set(self.treated) & set(self.control)
        if overlap:
            raise ChangeLogError(
                "servers in both treated and control groups: %s"
                % sorted(overlap)
            )
        if not self.treated:
            raise ChangeLogError("rollout plan treats no servers")
        if self.mode is LaunchMode.DARK and not self.control:
            raise ChangeLogError("dark launch with an empty control group")
        if self.mode is LaunchMode.FULL and self.control:
            raise ChangeLogError("full launch with a control group")


def plan_rollout(hostnames: Sequence[str],
                 policy: Optional[RolloutPolicy] = None) -> RolloutPlan:
    """Split a service's servers into treated and control groups.

    For Dark launches picks ``ceil(n * TREATED_FRACTION)`` servers (at
    least one, and at least one left as control); Full launches treat
    all.

    Raises:
        ParameterError: for an empty server list, or a single-server
            service asked to dark-launch (no control group possible).
    """
    hosts: List[str] = list(dict.fromkeys(hostnames))
    if not hosts:
        raise ParameterError("cannot plan a rollout over zero servers")
    policy = policy or RolloutPolicy()

    if policy.mode is LaunchMode.FULL:
        return RolloutPlan(treated=tuple(hosts), control=(),
                           mode=LaunchMode.FULL)

    if len(hosts) < 2:
        raise ParameterError(
            "dark launching needs at least 2 servers, got %d" % len(hosts)
        )
    count = int(np.ceil(len(hosts) * TREATED_FRACTION))
    rng = np.random.default_rng(policy.seed)
    treated_idx = rng.choice(len(hosts), size=count, replace=False)
    treated = tuple(hosts[i] for i in sorted(treated_idx))
    control = tuple(h for h in hosts if h not in set(treated))
    return RolloutPlan(treated=treated, control=control, mode=LaunchMode.DARK)
