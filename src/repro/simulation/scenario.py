"""End-to-end service scenario: fleet + telemetry + changes + FUNNEL.

This is the integration substrate the examples and the deployment
simulation build on.  A :class:`ServiceScenario`

* owns a :class:`~repro.topology.entities.Fleet` and a
  :class:`~repro.telemetry.store.MetricStore`;
* attaches KPI behaviours (a pattern per (service, metric)) and
  materialises correlated per-unit series into the store;
* deploys software changes through a rollout policy, recording them in
  the :class:`~repro.changes.log.ChangeLog` and applying their injected
  effects to the treated units' series; and
* assesses any recorded change with FUNNEL over its identified impact
  set, returning one :class:`~repro.types.Assessment` per monitored KPI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..changes.change import SoftwareChange
from ..changes.log import ChangeLog
from ..changes.rollout import RolloutPolicy, plan_rollout
from ..core.funnel import Funnel, FunnelConfig
from ..exceptions import ParameterError, TelemetryError
from ..synthetic.effects import Effect, apply_effects
from ..synthetic.patterns import Pattern
from ..telemetry.kpi import KpiCatalog, KpiKey, standard_server_kpis
from ..telemetry.store import MetricStore
from ..telemetry.timeseries import MINUTE, TimeSeries
from ..topology.entities import Fleet
from ..topology.impact import ImpactSet, identify_impact_set
from ..types import Assessment, ChangeKind, LaunchMode

__all__ = ["KpiBehaviour", "ChangeAssessment", "ServiceScenario"]


@dataclass
class KpiBehaviour:
    """How one (service, metric) behaves across the service's units."""

    metric: str
    pattern: Pattern
    idiosyncratic_sigma: float = 1.0


@dataclass(frozen=True)
class ChangeAssessment:
    """FUNNEL's output for one software change over its impact set."""

    change: SoftwareChange
    impact_set: ImpactSet
    results: Tuple[Tuple[KpiKey, Assessment], ...]

    @property
    def flagged(self) -> List[KpiKey]:
        """KPIs whose change FUNNEL attributed to the software change."""
        return [key for key, result in self.results if result.positive]

    @property
    def kpi_count(self) -> int:
        return len(self.results)


class ServiceScenario:
    """A miniature Internet service under FUNNEL's watch.

    Example:
        >>> scenario = ServiceScenario(seed=1)
        >>> _ = scenario.add_service("shop.cart", n_servers=6)
        >>> scenario.run(minutes=240)
        >>> change = scenario.deploy_change(
        ...     "shop.cart", ChangeKind.CONFIG_CHANGE,
        ...     effect_sigmas=6.0, metric="memory_utilization")
        >>> scenario.run(minutes=120)
        >>> assessment = scenario.assess(change)
        >>> len(assessment.flagged) > 0
        True
    """

    def __init__(self, start_time: int = 0, bin_seconds: int = MINUTE,
                 seed: int = 0, funnel_config: Optional[FunnelConfig] = None,
                 history_days: int = 0) -> None:
        self.fleet = Fleet()
        self.store = MetricStore(bin_seconds)
        self.catalog = standard_server_kpis(KpiCatalog())
        self.change_log = ChangeLog()
        self.funnel = Funnel(funnel_config)
        self.bin_seconds = bin_seconds
        self.start_time = start_time
        self.now = start_time
        self.history_days = history_days
        self._rng = np.random.default_rng(seed)
        self._behaviours: Dict[str, List[KpiBehaviour]] = {}
        self._unit_offsets: Dict[Tuple[str, str, str], float] = {}
        self._pending_effects: Dict[KpiKey, List[Effect]] = {}
        self._host_counter = 0

    # -- construction ------------------------------------------------------------

    def add_service(self, name: str, n_servers: int,
                    hostnames: Optional[Sequence[str]] = None) -> List[str]:
        """Register a service with ``n_servers`` dedicated servers.

        Its behaviours are the two standard server KPIs of the paper's
        evaluation: a stationary memory utilisation and a variable CPU
        context switch count.
        """
        if hostnames is None:
            hostnames = []
            for _ in range(n_servers):
                self._host_counter += 1
                hostnames.append("host-%04d" % self._host_counter)
        self.fleet.add_service(name, hostnames)
        self._behaviours[name] = self._default_behaviours()
        return list(hostnames)

    def _default_behaviours(self) -> List[KpiBehaviour]:
        from ..synthetic.patterns import StationaryPattern, VariablePattern
        return [
            KpiBehaviour(
                metric="memory_utilization",
                pattern=StationaryPattern(
                    level=float(self._rng.uniform(40.0, 70.0)),
                    noise_sigma=0.8,
                ),
                idiosyncratic_sigma=0.5,
            ),
            KpiBehaviour(
                metric="cpu_context_switch_count",
                pattern=VariablePattern(
                    level=float(self._rng.uniform(30.0, 120.0)),
                ),
                idiosyncratic_sigma=0.0,
            ),
        ]

    # -- time & telemetry ------------------------------------------------------------

    def run(self, minutes: int) -> None:
        """Generate and store ``minutes`` of measurements for every KPI."""
        if minutes <= 0:
            raise ParameterError("minutes must be positive")
        from_time = self.now
        n_bins = minutes
        timestamps = from_time + np.arange(n_bins, dtype=np.int64) \
            * self.bin_seconds
        for service, behaviours in self._behaviours.items():
            hostnames = self.fleet.service(service).hostnames
            for behaviour in behaviours:
                shared = behaviour.pattern.sample(timestamps, self._rng)
                for host in hostnames:
                    key = KpiKey("server", host, behaviour.metric)
                    offset = self._offset_for(service, host, behaviour)
                    noise = self._rng.normal(
                        0.0, behaviour.idiosyncratic_sigma, size=n_bins)
                    values = shared + offset + noise
                    effects = self._pending_effects.get(key, ())
                    if effects:
                        local = [self._rebase_effect(e, from_time)
                                 for e in effects]
                        values = apply_effects(values,
                                               [e for e in local
                                                if e is not None])
                    self.store.append(key, TimeSeries(
                        start=from_time, bin_seconds=self.bin_seconds,
                        values=values,
                    ))
        self.now = from_time + n_bins * self.bin_seconds

    def _rebase_effect(self, effect: Effect, from_time: int):
        """Translate an absolute-time effect into fragment-local bins."""
        local_start = (effect.start - from_time) // self.bin_seconds
        if local_start < 0:
            local_start = 0
        import dataclasses
        try:
            return dataclasses.replace(effect, start=int(local_start))
        except TypeError:
            return None

    def _offset_for(self, service: str, host: str,
                    behaviour: KpiBehaviour) -> float:
        key = (service, host, behaviour.metric)
        if key not in self._unit_offsets:
            self._unit_offsets[key] = float(
                self._rng.normal(0.0, 0.5))
        return self._unit_offsets[key]

    # -- changes ------------------------------------------------------------

    def deploy_change(self, service: str, kind: ChangeKind,
                      policy: Optional[RolloutPolicy] = None,
                      effect_sigmas: float = 0.0,
                      metric: Optional[str] = None,
                      description: str = "") -> SoftwareChange:
        """Deploy a change now; optionally inject its KPI impact.

        Args:
            service: the changed service.
            kind: upgrade or configuration change.
            policy: rollout policy (dark launch on 25% by default).
            effect_sigmas: when non-zero, inject a level shift of this
                many pattern-sigmas on ``metric`` for every treated unit
                starting now (a simple common case).
            metric: the metric ``effect_sigmas`` applies to.
        """
        hostnames = self.fleet.service(service).hostnames
        if policy is None:
            policy = RolloutPolicy(seed=int(self._rng.integers(0, 2 ** 31)))
            if len(hostnames) < 2:
                policy = RolloutPolicy(mode=LaunchMode.FULL)
        plan = plan_rollout(hostnames, policy)
        change = plan.to_change(service, kind, at_time=self.now,
                                description=description)
        self.change_log.record(change)

        if effect_sigmas and metric:
            behaviour = self._behaviour(service, metric)
            from ..synthetic.effects import LevelShift
            shift = LevelShift(start=self.now, magnitude=effect_sigmas
                               * behaviour.pattern.typical_scale())
            for host in plan.treated:
                self._pending_effects.setdefault(
                    KpiKey("server", host, metric), []).append(shift)
        return change

    def _behaviour(self, service: str, metric: str) -> KpiBehaviour:
        for behaviour in self._behaviours.get(service, ()):
            if behaviour.metric == metric:
                return behaviour
        raise TelemetryError(
            "service %r has no behaviour for metric %r" % (service, metric)
        )

    # -- assessment ------------------------------------------------------------

    def assess(self, change: SoftwareChange,
               pre_minutes: int = 60) -> ChangeAssessment:
        """Run FUNNEL over the change's impact set using stored data."""
        impact = identify_impact_set(self.fleet, change.service,
                                     change.hostnames)
        from_time = max(self.start_time,
                        change.at_time - pre_minutes * self.bin_seconds)
        to_time = self.now
        change_index = (change.at_time - from_time) // self.bin_seconds

        results: List[Tuple[KpiKey, Assessment]] = []
        for behaviour in self._behaviours[change.service]:
            control_keys = [
                KpiKey("server", s.hostname, behaviour.metric)
                for s in impact.cservers
            ]
            control = None
            if control_keys:
                control = self.store.window_matrix(control_keys, from_time,
                                                   to_time)
            for server in impact.tservers:
                key = KpiKey("server", server.hostname, behaviour.metric)
                treated = self.store.window_matrix([key], from_time, to_time)
                result = self.funnel.assess(
                    treated, change_index, control=control,
                )
                results.append((key, result))

        # Affected services: no cservers/cinstances exist (section
        # 3.2.4), so their aggregate service KPIs are assessed against
        # the historical control where enough history was simulated.
        for affected in sorted(impact.affected_services):
            for behaviour in self._behaviours.get(affected, ()):
                unit_keys = [
                    KpiKey("server", host, behaviour.metric)
                    for host in self.fleet.service(affected).hostnames
                ]
                matrix = self.store.window_matrix(unit_keys, from_time,
                                                  to_time)
                aggregate = matrix.mean(axis=0)
                history = self._history_matrix(unit_keys, from_time,
                                               to_time)
                key = KpiKey("service", affected, behaviour.metric)
                result = self.funnel.assess(
                    aggregate, change_index, history=history,
                )
                results.append((key, result))
        return ChangeAssessment(
            change=change, impact_set=impact, results=tuple(results),
        )

    def _history_matrix(self, unit_keys: Sequence[KpiKey], from_time: int,
                        to_time: int) -> Optional[np.ndarray]:
        """Same clock window on previous days, aggregated across units.

        Returns ``None`` when the simulation has not run long enough to
        cover a single full historical day (FUNNEL then reports without
        exclusion, as in deployment before history accumulates).
        """
        from ..telemetry.timeseries import DAY
        rows = []
        for day in range(1, self.history_days + 1 if self.history_days
                         else 31):
            lo = from_time - day * DAY
            hi = to_time - day * DAY
            if lo < self.start_time:
                break
            matrix = self.store.window_matrix(unit_keys, lo, hi)
            rows.append(matrix.mean(axis=0))
        if not rows:
            return None
        return np.vstack(rows)
