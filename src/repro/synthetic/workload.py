"""Correlated multi-unit KPI trace generation.

The DiD stage works because "instances and servers that belong to the
same service exhibit high-level spatial correlation or statistic
dependency ... thanks to load balancing" (paper section 3.2.4).  This
module generates exactly that structure: a *shared* service-level
realisation from a :class:`~repro.synthetic.patterns.Pattern`, plus
per-unit offsets and idiosyncratic noise, with software-change effects
applied to treated units only and other-factor events applied to all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..telemetry.timeseries import MINUTE
from .effects import Effect, apply_effects
from .patterns import Pattern

__all__ = ["GroupTraceConfig", "GroupTraces", "generate_group"]


@dataclass(frozen=True)
class GroupTraceConfig:
    """Parameters for one correlated treated/control trace set.

    Attributes:
        pattern: the shared service-level behaviour.
        n_treated / n_control: unit counts in each group.
        n_bins: series length in time-bins.
        start_time: timestamp of the first bin (drives seasonality phase).
        bin_seconds: bin width.
        unit_offset_sigma: spread of constant per-unit offsets (machines
            differ slightly in level).
        idiosyncratic_sigma: per-unit, per-bin noise on top of the shared
            component.
        treated_effects: applied to treated units only (the software
            change's impact).
        shared_effects: applied to the shared component, i.e. to both
            groups (seasonal surprises, attacks, hardware events).
        hotspot_fraction: fraction of units (in both groups) that behave
            as datacenter hotspots — extra load offset and noise
            (section 3.2.4, observation 4: <3% of servers are hotspots).
    """

    pattern: Pattern
    n_treated: int = 4
    n_control: int = 12
    n_bins: int = 180
    start_time: int = 0
    bin_seconds: int = MINUTE
    unit_offset_sigma: float = 0.5
    idiosyncratic_sigma: float = 1.0
    treated_effects: Tuple[Effect, ...] = ()
    shared_effects: Tuple[Effect, ...] = ()
    hotspot_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_treated < 1:
            raise ParameterError("n_treated must be >= 1")
        if self.n_control < 0:
            raise ParameterError("n_control must be >= 0")
        if self.n_bins < 8:
            raise ParameterError("n_bins must be >= 8")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ParameterError("hotspot_fraction must be in [0, 1]")


@dataclass(frozen=True)
class GroupTraces:
    """Generated treated/control matrices plus provenance.

    ``treated`` is ``(n_treated, n_bins)``; ``control`` is
    ``(n_control, n_bins)`` (possibly 0 rows for Full Launching).
    ``shared`` is the latent service-level component both were built
    from — available to tests that verify the correlation structure.
    """

    treated: np.ndarray
    control: np.ndarray
    shared: np.ndarray
    timestamps: np.ndarray


def generate_group(config: GroupTraceConfig,
                   rng: np.random.Generator) -> GroupTraces:
    """Generate one correlated treated/control trace set."""
    timestamps = (config.start_time
                  + np.arange(config.n_bins, dtype=np.int64)
                  * config.bin_seconds)
    shared = config.pattern.sample(timestamps, rng)
    shared = apply_effects(shared, config.shared_effects)

    total_units = config.n_treated + config.n_control
    offsets = rng.normal(0.0, config.unit_offset_sigma, size=total_units)
    hotspots = rng.random(total_units) < config.hotspot_fraction

    rows: List[np.ndarray] = []
    scale = max(config.pattern.typical_scale(), 1e-9)
    for unit in range(total_units):
        noise_sigma = config.idiosyncratic_sigma
        level_offset = offsets[unit]
        if hotspots[unit]:
            level_offset += 3.0 * scale
            noise_sigma *= 2.0
        noise = rng.normal(0.0, noise_sigma, size=config.n_bins)
        rows.append(shared + level_offset + noise)

    treated = np.vstack(rows[:config.n_treated])
    if config.n_control:
        control = np.vstack(rows[config.n_treated:])
    else:
        control = np.empty((0, config.n_bins), dtype=np.float64)

    if config.treated_effects:
        treated = np.vstack([
            apply_effects(row, config.treated_effects) for row in treated
        ])
    return GroupTraces(treated=treated, control=control, shared=shared,
                       timestamps=timestamps)
