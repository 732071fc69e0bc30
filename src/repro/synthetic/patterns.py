"""Base KPI behaviour generators.

Paper section 1: "KPIs in Internet-based services are quite diverse
intrinsically, exhibiting various characteristics including strong
seasonality (e.g., Web page view count), high variability (e.g., server
CPU context switch count), and stationarity (e.g., server memory
utilization)."  One generator per archetype:

* :class:`SeasonalPattern` — a smooth diurnal profile (two harmonics,
  peaking mid-day) with a day-of-week factor and Gaussian noise;
* :class:`StationaryPattern` — an AR(1) process around a fixed level;
* :class:`VariablePattern` — heavy-tailed (log-normal) multiplicative
  noise with occasional benign spikes, like context-switch counts.

Each pattern generates the *shared* service-level component; per-unit
series add idiosyncratic noise on top (see
:func:`repro.synthetic.workload.generate_group`), giving the high
spatial correlation between same-service units that the DiD control
groups rely on (section 3.2.4, observation 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ParameterError
from ..telemetry.timeseries import DAY
from ..types import KpiCharacter

__all__ = [
    "Pattern",
    "SeasonalPattern",
    "StationaryPattern",
    "VariablePattern",
    "pattern_for_character",
]


class Pattern:
    """Base class: a pattern maps bin timestamps to KPI values."""

    character: KpiCharacter

    def sample(self, timestamps: Sequence[int],
               rng: np.random.Generator) -> np.ndarray:
        """Generate one realisation over ``timestamps`` (seconds)."""
        raise NotImplementedError

    def typical_scale(self) -> float:
        """The pattern's noise scale, used to size injected effects."""
        raise NotImplementedError


@dataclass
class SeasonalPattern(Pattern):
    """Diurnal + weekly profile with additive Gaussian noise.

    The deterministic profile is ``base * (1 + daily(t)) * weekly(t)``
    where ``daily`` blends two harmonics so traffic troughs at night and
    peaks in the afternoon, and ``weekly`` damps weekends.

    On top of the smooth profile, ``daily_events`` model the sharp
    recurring intraday transitions real traffic KPIs show (market open,
    scheduled batch jobs, prime-time surges): each ``(start_second,
    end_second, relative_magnitude)`` multiplies the profile by
    ``1 + relative_magnitude`` inside that time-of-day interval, with a
    near-instant edge.  These edges look exactly like level shifts to a
    raw change detector — they recur every day, so FUNNEL's historical
    DiD cancels them while DiD-less detectors false-positive (the
    mechanism behind Table 1's seasonal-KPI precision gap).

    Attributes:
        base: mean level.
        daily_amplitude: relative swing of the diurnal cycle (0.6 means
            peak ~1.6x and trough ~0.4x of base).
        weekend_factor: weekend level relative to weekdays.
        noise_sigma: additive Gaussian noise, in absolute units.
        daily_events: ``(start_second, end_second, magnitude)`` sharp
            recurring intraday steps.
    """

    base: float = 100.0
    daily_amplitude: float = 0.6
    weekend_factor: float = 0.7
    noise_sigma: float = 2.0
    phase_seconds: int = 0
    daily_events: tuple = ()

    character = KpiCharacter.SEASONAL

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ParameterError("base must be positive")
        if not 0.0 <= self.daily_amplitude < 1.0:
            raise ParameterError("daily_amplitude must be in [0, 1)")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        for event in self.daily_events:
            start_second, end_second, magnitude = event
            if not 0 <= start_second < end_second <= DAY:
                raise ParameterError(
                    "daily event %r must satisfy 0 <= start < end <= 1 day"
                    % (event,)
                )
            if magnitude <= -1.0:
                raise ParameterError(
                    "daily event magnitude must exceed -1, got %g" % magnitude
                )

    def profile(self, timestamps: Sequence[int]) -> np.ndarray:
        """The noise-free seasonal profile."""
        t = np.asarray(timestamps, dtype=np.float64) + self.phase_seconds
        day_angle = 2.0 * np.pi * (t % DAY) / DAY
        # Peak around 14:00, trough around 04:00; the second harmonic
        # sharpens the daytime plateau.
        daily = (0.75 * np.sin(day_angle - 2.0 * np.pi * 8.0 / 24.0)
                 + 0.25 * np.sin(2.0 * day_angle - 2.0 * np.pi * 5.0 / 24.0))
        day_index = (t // DAY).astype(np.int64)
        weekend = np.where(day_index % 7 >= 5, self.weekend_factor, 1.0)
        profile = self.base * (1.0 + self.daily_amplitude * daily) * weekend
        seconds_of_day = t % DAY
        for start_second, end_second, magnitude in self.daily_events:
            inside = (seconds_of_day >= start_second) & \
                (seconds_of_day < end_second)
            profile = np.where(inside, profile * (1.0 + magnitude), profile)
        return profile

    def sample(self, timestamps: Sequence[int],
               rng: np.random.Generator) -> np.ndarray:
        values = self.profile(timestamps)
        return values + rng.normal(0.0, self.noise_sigma, size=values.shape)

    def typical_scale(self) -> float:
        return self.noise_sigma


@dataclass
class StationaryPattern(Pattern):
    """AR(1) process around a level — memory utilisation and friends.

    ``x_t = level + ar_coefficient * (x_{t-1} - level) + eps_t`` with
    Gaussian innovations; the process is started from its stationary
    distribution so there is no burn-in transient.
    """

    level: float = 60.0
    ar_coefficient: float = 0.6
    noise_sigma: float = 0.8

    character = KpiCharacter.STATIONARY

    def __post_init__(self) -> None:
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise ParameterError("ar_coefficient must be in [0, 1)")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")

    def sample(self, timestamps: Sequence[int],
               rng: np.random.Generator) -> np.ndarray:
        n = len(timestamps)
        phi = self.ar_coefficient
        stationary_sigma = self.noise_sigma / np.sqrt(1.0 - phi ** 2)
        out = np.empty(n, dtype=np.float64)
        deviation = rng.normal(0.0, stationary_sigma)
        innovations = rng.normal(0.0, self.noise_sigma, size=n)
        for i in range(n):
            deviation = phi * deviation + innovations[i]
            out[i] = self.level + deviation
        return out

    def typical_scale(self) -> float:
        return self.noise_sigma / np.sqrt(1.0 - self.ar_coefficient ** 2)


@dataclass
class VariablePattern(Pattern):
    """Heavy-tailed, spiky behaviour — CPU context switches, NIC bursts.

    Values are ``level * lognormal(sigma)``, plus benign spikes arriving
    as a Bernoulli process: each spike multiplies one bin by
    ``1 + spike_magnitude``.  These spikes are *normal behaviour* for
    this KPI class — precisely what fools spike-sensitive detectors on
    variable KPIs (Table 1, MRLS row).
    """

    level: float = 50.0
    lognormal_sigma: float = 0.25
    spike_rate: float = 0.01
    spike_magnitude: float = 2.0

    character = KpiCharacter.VARIABLE

    def __post_init__(self) -> None:
        if self.level <= 0:
            raise ParameterError("level must be positive")
        if self.lognormal_sigma <= 0:
            raise ParameterError("lognormal_sigma must be positive")
        if not 0.0 <= self.spike_rate < 1.0:
            raise ParameterError("spike_rate must be in [0, 1)")

    def sample(self, timestamps: Sequence[int],
               rng: np.random.Generator) -> np.ndarray:
        n = len(timestamps)
        body = self.level * rng.lognormal(
            mean=-0.5 * self.lognormal_sigma ** 2,
            sigma=self.lognormal_sigma, size=n,
        )
        spikes = rng.random(n) < self.spike_rate
        body[spikes] *= 1.0 + self.spike_magnitude * rng.random(spikes.sum())
        return body

    def typical_scale(self) -> float:
        # MAD-based scale of the log-normal body.
        return self.level * self.lognormal_sigma


def pattern_for_character(character: KpiCharacter, scale: float = 1.0,
                          **overrides) -> Pattern:
    """A default pattern instance for a KPI archetype.

    ``scale`` multiplies the pattern's base level, letting callers vary
    magnitudes across KPIs without re-specifying every parameter.
    """
    if character is KpiCharacter.SEASONAL:
        pattern = SeasonalPattern(**overrides)
        pattern.base *= scale
        pattern.noise_sigma *= scale
        return pattern
    if character is KpiCharacter.STATIONARY:
        pattern = StationaryPattern(**overrides)
        pattern.level *= scale
        pattern.noise_sigma *= scale
        return pattern
    if character is KpiCharacter.VARIABLE:
        pattern = VariablePattern(**overrides)
        pattern.level *= scale
        return pattern
    raise ParameterError("unknown KPI character %r" % (character,))
