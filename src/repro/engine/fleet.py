"""A synthetic fleet scenario: the `repro assess-fleet` data source.

:class:`SyntheticFleetSource` is a self-contained *series provider*
(see :mod:`repro.engine.planner`): it generates a fleet topology, a
stream of dark/full-launched software changes against it, and — lazily,
per entity and KPI — the measurement windows the planner fetches.
A configurable fraction of the changes genuinely impact their treated
entities (a level shift injected at the change bin), giving the engine
report a ground truth to score precision/recall against.

Determinism: every entity's base series derives from a CRC of
``(scenario seed, entity type, entity, metric)`` and each change owns a
disjoint window of the timeline, so any window can be regenerated
identically in any process, in any order — the property the executor's
bit-identical parallelism relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..changes.change import SoftwareChange
from ..changes.rollout import RolloutPolicy, plan_rollout
from ..exceptions import EngineError
from ..obs import ObsContext
from ..synthetic.fleetgen import FleetSpec, generate_fleet
from ..topology.impact import ImpactSet, identify_impact_set
from ..types import ChangeKind, LaunchMode
from .jobs import AssessmentJob, DetectorSpec
from .planner import FetchedWindow, plan_change_jobs

__all__ = ["FleetScenarioSpec", "SyntheticFleetSource"]

#: Bins per synthetic day (1-minute bins).
DAY_BINS = 24 * 60

#: (level, noise sigma) per KPI; page views additionally get a daily cycle.
_METRIC_MODELS: Dict[str, Tuple[float, float]] = {
    "memory_utilization": (55.0, 1.6),
    "cpu_context_switch_count": (5200.0, 320.0),
    "page_view_count": (1200.0, 35.0),
}

#: Injected level shifts, in noise-sigma units of the entity's KPI.
_IMPACT_SIGMAS = 8.0


@dataclass(frozen=True)
class FleetScenarioSpec:
    """Shape of one synthetic fleet-assessment scenario.

    Attributes:
        n_services / n_servers: fleet topology size.
        n_changes: software changes to assess (each owns a disjoint
            window of the timeline).
        impact_fraction: fraction of changes that genuinely shift their
            treated entities' KPIs.
        dark_fraction: fraction of changes rolled out as dark launches
            (the rest are full launches, exercising the historical
            control path).
        history_days: days of lead telemetry before the first change —
            the historical control depth.
        window_bins: bins per change window.
        change_offset: bin of the software change inside its window.
        max_control_units: cap on peer-control rows per job (large
            services would otherwise dominate fetch cost).
        seed: scenario seed; every derived series is a pure function of
            it.
    """

    n_services: int = 6
    n_servers: int = 48
    n_changes: int = 8
    impact_fraction: float = 0.5
    dark_fraction: float = 0.75
    history_days: int = 2
    window_bins: int = 240
    change_offset: int = 80
    max_control_units: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_changes < 1:
            raise EngineError("n_changes must be >= 1")
        if not 0.0 <= self.impact_fraction <= 1.0:
            raise EngineError("impact_fraction must be in [0, 1]")
        if not 0.0 <= self.dark_fraction <= 1.0:
            raise EngineError("dark_fraction must be in [0, 1]")
        if self.history_days < 1:
            raise EngineError("history_days must be >= 1")
        if self.window_bins < 60:
            raise EngineError("window_bins must be >= 60")
        if not 30 <= self.change_offset <= self.window_bins - 30:
            raise EngineError(
                "change_offset must leave >= 30 bins on each side of the "
                "window"
            )
        if self.max_control_units < 1:
            raise EngineError("max_control_units must be >= 1")

    @property
    def lead_bins(self) -> int:
        return self.history_days * DAY_BINS

    @property
    def total_bins(self) -> int:
        return self.lead_bins + self.n_changes * self.window_bins


def _stable_seed(*parts: object) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode("utf-8"))


class SyntheticFleetSource:
    """Fleet topology + change stream + lazily generated series windows."""

    def __init__(self, spec: Optional[FleetScenarioSpec] = None) -> None:
        self.spec = spec or FleetScenarioSpec()
        self.fleet = generate_fleet(FleetSpec(
            n_services=self.spec.n_services,
            n_servers=self.spec.n_servers,
            seed=self.spec.seed,
        ))
        self._series: Dict[Tuple[str, str, str], np.ndarray] = {}
        self._impact_sets: Dict[str, ImpactSet] = {}
        self._build_changes()

    # -- change stream ---------------------------------------------------------

    def _build_changes(self) -> None:
        spec = self.spec
        rng = np.random.default_rng(_stable_seed(spec.seed, "changes"))
        services = self.fleet.service_names
        self.changes: List[SoftwareChange] = []
        self._ordinal: Dict[str, int] = {}
        self._impactful: Dict[str, bool] = {}
        self._direction: Dict[str, int] = {}
        for k in range(spec.n_changes):
            service = services[int(rng.integers(0, len(services)))]
            hostnames = self.fleet.service(service).hostnames
            dark = (rng.random() < spec.dark_fraction) and len(hostnames) >= 2
            plan = plan_rollout(hostnames, RolloutPolicy(
                mode=LaunchMode.DARK if dark else LaunchMode.FULL,
                seed=int(rng.integers(0, 2 ** 31)),
            ))
            change = SoftwareChange(
                change_id="chg-%04d" % k,
                kind=(ChangeKind.SOFTWARE_UPGRADE if rng.random() < 0.5
                      else ChangeKind.CONFIG_CHANGE),
                service=service,
                hostnames=plan.treated,
                at_time=(spec.lead_bins + k * spec.window_bins
                         + spec.change_offset) * 60,
            )
            self.changes.append(change)
            self._ordinal[change.change_id] = k
            self._impactful[change.change_id] = bool(
                rng.random() < spec.impact_fraction)
            self._direction[change.change_id] = 1 if rng.random() < 0.5 else -1

    def _impact_set(self, change: SoftwareChange) -> ImpactSet:
        cached = self._impact_sets.get(change.change_id)
        if cached is None:
            cached = identify_impact_set(self.fleet, change.service,
                                         change.hostnames)
            self._impact_sets[change.change_id] = cached
        return cached

    # -- series generation -----------------------------------------------------

    def _base_series(self, entity_type: str, entity: str,
                     metric: str) -> np.ndarray:
        """The entity's full-timeline series, before any injected impact."""
        key = (entity_type, entity, metric)
        series = self._series.get(key)
        if series is not None:
            return series
        level, sigma = _METRIC_MODELS[metric]
        rng = np.random.default_rng(
            _stable_seed(self.spec.seed, entity_type, entity, metric))
        t = np.arange(self.spec.total_bins, dtype=np.float64)
        series = level * (0.8 + 0.4 * rng.random()) \
            + rng.normal(0.0, sigma, size=t.size)
        if metric == "page_view_count":
            amplitude = level * (0.25 + 0.15 * rng.random())
            phase = rng.random() * 2.0 * np.pi
            series = series + amplitude * np.sin(
                2.0 * np.pi * t / DAY_BINS + phase)
        self._series[key] = series
        return series

    def _is_treated(self, change: SoftwareChange, entity_type: str,
                    entity: str) -> bool:
        if entity_type == "server":
            return entity in change.hostnames
        if entity_type == "instance":
            return any(entity == "%s@%s" % (change.service, host)
                       for host in change.hostnames)
        return False

    def _window(self, change: SoftwareChange, entity_type: str, entity: str,
                metric: str) -> np.ndarray:
        """The entity's window for ``change``, impact injected if treated."""
        k = self._ordinal[change.change_id]
        start = self.spec.lead_bins + k * self.spec.window_bins
        window = self._base_series(entity_type, entity,
                                   metric)[start:start
                                           + self.spec.window_bins].copy()
        if (self._impactful[change.change_id]
                and self._is_treated(change, entity_type, entity)):
            _, sigma = _METRIC_MODELS[metric]
            shift = self._direction[change.change_id] * _IMPACT_SIGMAS * sigma
            window[self.spec.change_offset:] += shift
        return window

    # -- the provider protocol -------------------------------------------------

    def fetch(self, change: SoftwareChange, entity_type: str, entity: str,
              metric: str) -> FetchedWindow:
        """Materialise one (entity, KPI) window for ``change``."""
        treated = np.atleast_2d(self._window(change, entity_type, entity,
                                             metric))
        impact = self._impact_set(change)
        control = None
        if entity_type in ("server", "instance") and impact.dark_launched:
            peers = (impact.control_hostnames if entity_type == "server"
                     else tuple(i.name for i in impact.cinstances))
            peers = peers[:self.spec.max_control_units]
            control = np.vstack([
                self._window(change, entity_type, peer, metric)
                for peer in peers
            ]) if peers else None
        history = None
        if control is None:
            history = self._history(change, entity_type, entity, metric)
        change_index = self.spec.change_offset
        return FetchedWindow(treated=treated, control=control,
                             history=history, change_index=change_index)

    def _history(self, change: SoftwareChange, entity_type: str, entity: str,
                 metric: str) -> np.ndarray:
        """Same clock window on each of the ``history_days`` previous days."""
        k = self._ordinal[change.change_id]
        start = self.spec.lead_bins + k * self.spec.window_bins
        base = self._base_series(entity_type, entity, metric)
        rows = [base[start - d * DAY_BINS:
                     start - d * DAY_BINS + self.spec.window_bins]
                for d in range(1, self.spec.history_days + 1)]
        return np.vstack(rows)

    def observed_series(self, entity_type: str, entity: str,
                        metric: str) -> np.ndarray:
        """The full timeline as the fleet's agents would measure it.

        The base series plus every impactful change's injected level
        shift inside that change's own window — i.e. exactly the
        concatenation of the per-change :meth:`fetch` windows (windows
        are disjoint by construction).  This is what the live replay
        driver streams into a metric store bin by bin.
        """
        series = self._base_series(entity_type, entity, metric).copy()
        for change in self.changes:
            if not (self._impactful[change.change_id]
                    and self._is_treated(change, entity_type, entity)):
                continue
            k = self._ordinal[change.change_id]
            start = self.spec.lead_bins + k * self.spec.window_bins
            _, sigma = _METRIC_MODELS[metric]
            shift = self._direction[change.change_id] * _IMPACT_SIGMAS * sigma
            series[start + self.spec.change_offset:
                   start + self.spec.window_bins] += shift
        return series

    def history(self, change: SoftwareChange, entity_type: str, entity: str,
                metric: str) -> np.ndarray:
        """Public historical control (the rows :meth:`fetch` would use).

        The replay driver passes this as the live pipeline's history
        provider: the store's own recent past contains the impacts
        earlier changes injected, whereas these rows are clean.
        """
        return self._history(change, entity_type, entity, metric)

    def truth(self, change: SoftwareChange, entity_type: str, entity: str,
              metric: str) -> bool:
        """Ground truth: did ``change`` impact this entity's KPI?"""
        return (self._impactful[change.change_id]
                and self._is_treated(change, entity_type, entity))

    # -- planning --------------------------------------------------------------

    def plan_jobs(self, specs: Sequence[DetectorSpec],
                  obs: Optional[ObsContext] = None
                  ) -> Iterator[AssessmentJob]:
        """All jobs for the scenario: every change x entity x KPI x spec."""
        job_id = 0
        for change in self.changes:
            for spec in specs:
                for job in plan_change_jobs(self.fleet, change, self, spec,
                                            start_id=job_id, obs=obs):
                    job_id = job.job_id + 1
                    yield job
