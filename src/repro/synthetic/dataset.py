"""The labelled evaluation corpus — paper section 4.1, reproduced in shape.

The paper's ground truth: 19 services over 2 days, 6277 software changes,
of which 144 were evaluated — 72 that induced KPI changes and 72 that did
not; 9982 (change, entity, KPI) *items* over 931 servers; 968 items
labelled as having software-change-induced KPI changes; 108 changes Dark
Launched, 36 Full Launched; per-type item counts derived from the
paper's numbers (see DESIGN.md):

=============  ==================  =============  ======
KPI type       change-inducing 72  clean 72       total
=============  ==================  =============  ======
seasonal       378                 327            705
stationary     2147                1486           3633
variable       3177                2467           5644
total          5702                4280           9982
=============  ==================  =============  ======

Every item is generated from a per-item seed, so the corpus is fully
reproducible and can be streamed (at full scale the series data would
occupy hundreds of MB if materialised at once).

Each item carries exactly what each method is allowed to see:

* the treated series (1 unit for server/instance items, the aggregated
  tinstances for service items) over 1 h before + 1 h after the change;
* the peer control matrix (cservers/cinstances) for dark-launched,
  non-affected-service items;
* the 30-day historical panel (same clock window on previous days) for
  full launches and affected services;
* the ground-truth label: whether a software-change-induced KPI change
  exists, its start bin and its kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..telemetry.timeseries import DAY, MINUTE
from ..types import KpiCharacter, LaunchMode
from .effects import Effect, LevelShift, Ramp
from .patterns import (Pattern, SeasonalPattern, StationaryPattern,
                       VariablePattern)
from .workload import GroupTraceConfig, generate_group

__all__ = ["ItemTruth", "EvaluationItem", "CorpusSpec", "EvaluationCorpus"]

#: Assessment horizon around the change: 1 h + 1 h at 1-minute bins.
PRE_BINS = 60
POST_BINS = 60
#: Fraction of service items that belong to affected services
#: (history-controlled even under dark launching).
AFFECTED_FRACTION = 0.15
#: Fraction of positive impacts that are ramps rather than level shifts.
RAMP_FRACTION = 0.3
#: (min, max) magnitude of an injected level shift or ramp, in units of
#: the pattern's typical scale.
EFFECT_SIGMAS = (4.0, 9.0)
#: Probability that a negative item carries an other-factor event (hits
#: treated AND control).
OTHER_FACTOR_RATE = 0.05


@dataclass(frozen=True)
class ItemTruth:
    """Ground truth for one item (the operations team's manual label)."""

    positive: bool
    start_index: Optional[int] = None
    kind: str = ""

    def __post_init__(self) -> None:
        if self.positive and self.start_index is None:
            raise ParameterError("positive items need a start index")


@dataclass(frozen=True)
class EvaluationItem:
    """One (software change, entity, KPI) evaluation unit.

    ``half`` is ``"inducing"`` for items belonging to the 72 changes that
    induced KPI changes and ``"clean"`` otherwise — the Table 1 synthesis
    scales the clean half's confusion counts by 86 (= 6194/72).
    """

    item_id: int
    change_id: int
    half: str
    character: KpiCharacter
    entity_type: str
    metric: str
    launch_mode: LaunchMode
    affected_service: bool
    change_index: int
    treated: np.ndarray
    control: Optional[np.ndarray]
    history: Optional[np.ndarray]
    truth: ItemTruth

    @property
    def treated_aggregate(self) -> np.ndarray:
        return self.treated.mean(axis=0)


# Derived per-type counts (see module docstring and DESIGN.md).
_INDUCING_COUNTS = {
    KpiCharacter.SEASONAL: 378,
    KpiCharacter.STATIONARY: 2147,
    KpiCharacter.VARIABLE: 3177,
}
_CLEAN_COUNTS = {
    KpiCharacter.SEASONAL: 327,
    KpiCharacter.STATIONARY: 1486,
    KpiCharacter.VARIABLE: 2467,
}
_POSITIVE_TOTAL = 968

_METRICS = {
    KpiCharacter.SEASONAL: ("page_view_count", "service"),
    KpiCharacter.STATIONARY: ("memory_utilization", "server"),
    KpiCharacter.VARIABLE: ("cpu_context_switch_count", "server"),
}


@dataclass(frozen=True)
class CorpusSpec:
    """Size and difficulty knobs for the generated corpus.

    ``scale`` shrinks every section-4.1 count proportionally (``1.0``
    reproduces the full 9982-item corpus; tests use 0.02-0.05).

    Difficulty parameters control how hard the detection problem is:

    Attributes:
        scale: corpus size multiplier.
        n_changes: evaluated software changes per half at scale 1.0.
        dark_fraction: fraction of changes Dark Launched (108/144).
        history_days: historical-control depth (30).
        ramp_duration: bins a ramp impact takes to reach its level.
        seed: corpus master seed.

    Every item spans ``PRE_BINS`` before and ``POST_BINS`` after its
    change.
    """

    scale: float = 1.0
    n_changes: int = 72
    dark_fraction: float = 0.75
    history_days: int = 30
    ramp_duration: int = 20
    seed: int = 20151201       # CoNEXT'15 conference date

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ParameterError("scale must be in (0, 1]")

    def counts(self, half: str) -> dict:
        base = _INDUCING_COUNTS if half == "inducing" else _CLEAN_COUNTS
        return {k: max(1, int(round(v * self.scale)))
                for k, v in base.items()}

    def positives(self) -> int:
        return max(1, int(round(_POSITIVE_TOTAL * self.scale)))


class EvaluationCorpus:
    """Streamed generator of :class:`EvaluationItem` per a :class:`CorpusSpec`.

    Example:
        >>> corpus = EvaluationCorpus(CorpusSpec(scale=0.01))
        >>> items = list(corpus)
        >>> sum(item.truth.positive for item in items) > 0
        True
    """

    def __init__(self, spec: Optional[CorpusSpec] = None) -> None:
        self.spec = spec or CorpusSpec()

    # -- composition ------------------------------------------------------------

    def _plan(self) -> List[dict]:
        """The per-item generation plan (cheap; no series data)."""
        spec = self.spec
        plan: List[dict] = []
        n_changes = max(2, int(round(spec.n_changes * max(spec.scale, 0.03))))

        master = np.random.default_rng(spec.seed)
        item_id = 0
        for half in ("inducing", "clean"):
            counts = self.spec.counts(half)
            half_total = sum(counts.values())
            if half == "inducing":
                n_positive = min(self.spec.positives(), half_total)
            else:
                n_positive = 0
            entries: List[dict] = []
            for character, count in sorted(counts.items(),
                                           key=lambda kv: kv[0].value):
                for _ in range(count):
                    entries.append({"character": character})
            # Deterministic positive assignment, proportional by type.
            positive_idx = set(
                master.choice(len(entries), size=n_positive, replace=False)
            ) if n_positive else set()
            # 108 of the paper's 144 changes were dark-launched; keep at
            # least one change in each mode whenever there are >= 2.
            n_dark = int(round(n_changes * spec.dark_fraction))
            if n_changes >= 2:
                n_dark = min(n_changes - 1, max(1, n_dark))
            for i, entry in enumerate(entries):
                change_ordinal = i % n_changes
                change_id = (change_ordinal if half == "inducing"
                             else n_changes + change_ordinal)
                dark = change_ordinal < n_dark
                metric, entity_type = _METRICS[entry["character"]]
                is_service = entity_type == "service"
                affected = (is_service and dark
                            and master.random() < AFFECTED_FRACTION)
                entry.update({
                    "item_id": item_id,
                    "change_id": change_id,
                    "half": half,
                    "positive": i in positive_idx,
                    "launch_mode": (LaunchMode.DARK if dark
                                    else LaunchMode.FULL),
                    "affected_service": affected,
                    "metric": metric,
                    "entity_type": entity_type,
                    "seed": int(master.integers(0, 2 ** 63 - 1)),
                })
                item_id += 1
            plan.extend(entries)
        return plan

    def __iter__(self) -> Iterator[EvaluationItem]:
        for entry in self._plan():
            yield self._generate_item(entry)

    def __len__(self) -> int:
        return (sum(self.spec.counts("inducing").values())
                + sum(self.spec.counts("clean").values()))

    # -- per-item generation ------------------------------------------------------

    def _pattern_for(self, character: KpiCharacter,
                     rng: np.random.Generator) -> Pattern:
        if character is KpiCharacter.SEASONAL:
            # A steep smooth diurnal cycle: during the morning climb the
            # profile drifts by tens of noise-sigmas per hour.  Raw
            # detectors read that drift as a behaviour change (CUSUM
            # accumulates it; SST fires on the curvature transitions)
            # while the historical/peer DiD cancels it — the mechanism
            # behind Table 1's seasonal-KPI precision gap.
            # Steep smooth diurnal cycle plus sharp recurring intraday
            # events (scheduled jobs, prime-time surges).  Both recur
            # every day, so the historical/peer DiD cancels them while
            # raw detectors read the drift and the event edges as
            # behaviour changes — Table 1's seasonal precision gap.
            event_start = int(rng.integers(8 * 3600, 10 * 3600))
            event_length = int(rng.integers(1800, 3 * 3600))
            return SeasonalPattern(
                base=float(rng.uniform(80.0, 400.0)),
                daily_amplitude=float(rng.uniform(0.45, 0.7)),
                noise_sigma=float(rng.uniform(1.5, 4.0)),
                daily_events=(
                    (event_start, event_start + event_length,
                     float(rng.uniform(0.15, 0.4))),
                ),
                # Mild weekday/weekend difference: the 30-day historical
                # control mixes weekdays and weekends, so a strong
                # multiplicative weekly factor would mostly measure
                # calendar mismatch rather than the methods' behaviour.
                weekend_factor=float(rng.uniform(0.85, 1.0)),
            )
        if character is KpiCharacter.STATIONARY:
            return StationaryPattern(
                level=float(rng.uniform(30.0, 80.0)),
                ar_coefficient=float(rng.uniform(0.2, 0.5)),
                noise_sigma=float(rng.uniform(0.4, 1.2)),
            )
        return VariablePattern(
            level=float(rng.uniform(20.0, 200.0)),
            lognormal_sigma=float(rng.uniform(0.15, 0.35)),
            spike_rate=float(rng.uniform(0.005, 0.03)),
            spike_magnitude=float(rng.uniform(1.5, 3.0)),
        )

    def _start_time(self, character: KpiCharacter,
                    rng: np.random.Generator) -> int:
        """Pick the wall-clock start of the 2-hour assessment window.

        Seasonal items start so that the change lands shortly before one
        of the recurring intraday event edges (the hard case for raw
        detectors); other items land anywhere in the day.
        """
        day = int(rng.integers(40, 400)) * DAY      # leave room for history
        if character is KpiCharacter.SEASONAL:
            # Land the assessment window on the steep morning climb:
            # change between 07:00 and 09:30.
            change_second = int(rng.integers(7 * 3600, 9 * 3600 + 1800))
            change_second -= change_second % MINUTE
            return day + change_second - PRE_BINS * MINUTE
        return day + int(rng.integers(0, DAY // MINUTE)) * MINUTE

    def _treated_effects(self, entry: dict, pattern: Pattern,
                         rng: np.random.Generator) -> Tuple[Effect, ...]:
        if not entry["positive"]:
            return ()
        spec = self.spec
        if isinstance(pattern, SeasonalPattern):
            # Incidents on traffic-like KPIs move a *fraction of the
            # level* (Fig. 7: effective clicks dropped ~60%), which is
            # what stays visible against a diurnal swing of many
            # noise-sigmas per hour.
            magnitude = float(rng.uniform(0.2, 0.5)) * pattern.base
        else:
            magnitude = float(rng.uniform(*EFFECT_SIGMAS)) * \
                pattern.typical_scale()
        if rng.random() < 0.5:
            magnitude = -magnitude
        if rng.random() < RAMP_FRACTION:
            return (Ramp(start=PRE_BINS, magnitude=magnitude,
                         duration=spec.ramp_duration),)
        return (LevelShift(start=PRE_BINS, magnitude=magnitude),)

    def _shared_effects(self, entry: dict, pattern: Pattern,
                        rng: np.random.Generator) -> Tuple[Effect, ...]:
        if entry["positive"]:
            return ()
        # Other-factor events land mostly on dark-launched items (where
        # the peer control group can — and in the paper's design must —
        # cancel them); for history-controlled items only seasonality can
        # be excluded, so confounding events there are kept an order of
        # magnitude rarer, as they are in practice within the one-hour
        # assessment horizon.
        rate = OTHER_FACTOR_RATE
        dark = entry["launch_mode"] is LaunchMode.DARK
        if not (dark and not entry["affected_service"]):
            rate *= 0.1
        if rng.random() >= rate:
            return ()
        # An other-factor event: a level shift hitting the whole service
        # (both groups) somewhere in the post-change hour.
        scale = pattern.typical_scale()
        magnitude = float(rng.uniform(*EFFECT_SIGMAS)) * scale
        if rng.random() < 0.5:
            magnitude = -magnitude
        at = PRE_BINS + int(rng.integers(0, POST_BINS // 2))
        return (LevelShift(start=at, magnitude=magnitude),)

    def _history_panel(self, pattern: Pattern, start_time: int,
                       shared_effects: Tuple[Effect, ...],
                       rng: np.random.Generator) -> np.ndarray:
        """Same clock window on each of the previous ``history_days``."""
        rows = []
        for day in range(1, self.spec.history_days + 1):
            ts = (start_time - day * DAY
                  + np.arange(PRE_BINS + POST_BINS, dtype=np.int64) * MINUTE)
            rows.append(pattern.sample(ts, rng))
        return np.vstack(rows)

    def _generate_item(self, entry: dict) -> EvaluationItem:
        rng = np.random.default_rng(entry["seed"])
        character: KpiCharacter = entry["character"]
        pattern = self._pattern_for(character, rng)
        start_time = self._start_time(character, rng)
        treated_effects = self._treated_effects(entry, pattern, rng)
        shared_effects = self._shared_effects(entry, pattern, rng)

        dark = entry["launch_mode"] is LaunchMode.DARK
        use_peer_control = dark and not entry["affected_service"]
        n_treated = 1 if entry["entity_type"] == "server" else \
            int(rng.integers(2, 5))
        n_control = int(rng.integers(4, 13)) if use_peer_control else 0

        scale = max(pattern.typical_scale(), 1e-9)
        traces = generate_group(GroupTraceConfig(
            pattern=pattern,
            n_treated=n_treated,
            n_control=n_control,
            n_bins=PRE_BINS + POST_BINS,
            start_time=start_time,
            unit_offset_sigma=0.5 * scale,
            idiosyncratic_sigma=0.6 * scale,
            treated_effects=treated_effects,
            shared_effects=shared_effects,
            hotspot_fraction=0.03,
        ), rng)

        history = None
        if not use_peer_control:
            history = self._history_panel(pattern, start_time,
                                          shared_effects, rng)

        if entry["positive"]:
            truth = ItemTruth(
                positive=True,
                start_index=PRE_BINS,
                kind=("ramp" if isinstance(treated_effects[0], Ramp)
                      else "level_shift"),
            )
        else:
            truth = ItemTruth(positive=False)

        return EvaluationItem(
            item_id=entry["item_id"],
            change_id=entry["change_id"],
            half=entry["half"],
            character=character,
            entity_type=entry["entity_type"],
            metric=entry["metric"],
            launch_mode=entry["launch_mode"],
            affected_service=entry["affected_service"],
            change_index=PRE_BINS,
            treated=traces.treated,
            control=traces.control if use_peer_control else None,
            history=history,
            truth=truth,
        )
