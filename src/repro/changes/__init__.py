"""Software changes: records, the change log, rollout policies."""

from .change import ConfigScope, SoftwareChange
from .log import ChangeLog
from .rollout import RolloutPlan, RolloutPolicy, plan_rollout

__all__ = ["ConfigScope", "SoftwareChange", "ChangeLog",
           "RolloutPlan", "RolloutPolicy", "plan_rollout"]
