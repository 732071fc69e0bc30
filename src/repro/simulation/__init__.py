"""End-to-end simulations: the deployment week and the case studies."""

from .cases import (AdvertisingCaseResult, RedisCaseResult,
                    advertising_case, redis_case)
from .clock import SimulationClock
from .deployment import (DeploymentReport, DeploymentSpec, simulate_week)

__all__ = ["AdvertisingCaseResult", "RedisCaseResult", "advertising_case",
           "redis_case", "SimulationClock", "DeploymentReport",
           "DeploymentSpec", "simulate_week"]
