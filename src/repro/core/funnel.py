"""The FUNNEL assessment pipeline — paper Fig. 3.

For one item (software change, entity, KPI) the pipeline:

1. aggregates the treated units' series and robustly normalises it
   against its pre-change baseline;
2. declares behaviour changes
   (:func:`~repro.core.scoring.declare_changes`): the 7-minute
   persistence rule is tabled stretch by stretch and the improved SST
   (:class:`~repro.core.ika.IkaSST` — the IKA fast path) scores the
   positions where it confirms — the paper's conjunction, cheap half
   first, stopping at the first change when that is all the caller
   reads;
3. if a change is declared at/after the software change, attributes it:

   * with a **peer control group** (cservers/cinstances, available when
     the KPI is not an affected service's and the change was Dark
     Launched) the DiD estimator compares treated vs. control across the
     change (section 3.2.4) — verdict ``CAUSED_BY_CHANGE`` when the
     normalised impact exceeds the threshold, ``OTHER_REASONS`` otherwise;
   * with a **historical control group** (same clock window on previous
     days; used for affected services and Full Launching, section 3.2.5)
     the same estimator separates genuine impact from seasonality —
     verdict ``SEASONALITY`` when the double difference vanishes;
   * with no control at all the detection is reported as caused by the
     change, with a note that other factors could not be excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..types import Assessment, DetectedChange, Verdict, as_float_array
from .did import DiDEstimator, DiDPanel, DiDResult
from .ika import IkaSST
from .rsst import ImprovedSSTParams
from .scoring import (ChangeDeclarationPolicy, _per_row, declare_changes,
                      robust_normalise_batch)

__all__ = ["FunnelConfig", "Funnel"]


@dataclass(frozen=True)
class FunnelConfig:
    """End-to-end FUNNEL parameters (paper defaults throughout).

    Attributes:
        sst: improved-SST parameters (omega = 9 gives the evaluation's
            W = 34 sliding window; use 5 for quick mitigation and 15 for
            precise assessment, section 3.2.3).
        policy: change-declaration thresholds (7-minute persistence).
        did_threshold: bound on the normalised DiD estimator ``alpha``
            below which a change is attributed to other factors
            (section 3.2.4 suggests 0.5 for change-sensitive services).

    Each DiD period holds the gate window's ``2*omega - 1`` samples.
    """

    sst: ImprovedSSTParams = field(default_factory=ImprovedSSTParams)
    policy: ChangeDeclarationPolicy = field(
        default_factory=ChangeDeclarationPolicy)
    did_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.did_threshold <= 0:
            raise ParameterError("did_threshold must be positive")


class Funnel:
    """FUNNEL detector + determiner for offline or online assessment.

    Example (dark launch, treated-only impact):
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> shared = 50 + rng.normal(0, 1, size=(16, 200))
        >>> treated, control = shared[:4].copy(), shared[4:]
        >>> treated[:, 100:] += 8.0                  # the change's impact
        >>> funnel = Funnel()
        >>> result = funnel.assess(treated, change_index=100,
        ...                        control=control)
        >>> result.verdict.value
        'caused_by_change'
    """

    def __init__(self, config: Optional[FunnelConfig] = None) -> None:
        self.config = config or FunnelConfig()
        self.scorer = IkaSST(self.config.sst)
        self.estimator = DiDEstimator()

    # -- detection ------------------------------------------------------------

    def detect(self, series: Sequence[float], change_index: int,
               first_only: bool = False) -> List[DetectedChange]:
        """Declared behaviour changes starting at/after ``change_index``.

        The one-row case of :meth:`detect_batch`.
        """
        return self.detect_batch(as_float_array(series)[None, :],
                                 [change_index], first_only=first_only)[0]

    def detect_batch(
        self, stacked, change_indices: Sequence[int],
        baseline_stats: Optional[
            Sequence[Optional[Tuple[float, float]]]] = None,
        first_only: bool = False,
    ) -> List[List[DetectedChange]]:
        """:meth:`detect` for a stack of same-length series at once.

        One batched normalisation and one
        :func:`~repro.core.scoring.declare_changes` cover every row:
        its gating tables decide persistence stretch by stretch, and
        :meth:`IkaSST.scores_batch` is asked — through its ``where=``
        mask — only for the positions that confirm, so a quiet row costs
        no kernel time, and under ``first_only`` a row that has declared
        costs nothing more.  Each row's declared changes are what the
        row alone would give.

        Args:
            stacked: ``(n_series, T)`` treated aggregates.
            change_indices: per-row software-change bin index; changes
                that started before it are pre-existing, not reported.
            baseline_stats: optional per-row cached ``(median, MAD)``.
            first_only: return each row's first change only — all a
                verdict reads — and stop deciding the row there.
        """
        stack = np.ascontiguousarray(
            np.atleast_2d(np.asarray(stacked, dtype=np.float64)))
        n_series, width = stack.shape
        indices = _per_row("change_indices", change_indices, n_series,
                           0, width - 1)
        normalised = robust_normalise_batch(
            stack, baselines=np.maximum(indices, 1), stats=baseline_stats)
        lengths = [width] * n_series
        if n_series:        # too short to score: refused up front, since
            self.scorer._score_range(width)     # a quiet stack never asks
        # The score at position t consumes samples through t + 2w - 2,
        # so in deployment it is computable that many bins later — the
        # declaration index must reflect that wall-clock reality or the
        # section 4.4 delay comparison would favour FUNNEL unfairly.
        return declare_changes(
            normalised,
            lambda where: self.scorer.scores_batch(normalised, lengths,
                                                   where=where),
            self.config.policy, first_only, self.config.sst.lookahead - 1,
            since=indices)

    # -- attribution ------------------------------------------------------------

    def _attributed(self, result: DiDResult,
                    change: DetectedChange) -> bool:
        """Does the DiD estimate attribute ``change`` to the software change?

        Beyond the magnitude threshold, the impact estimator must *agree
        in direction* with the detected change: a positive level shift
        explained by a negative relative movement of the treated group
        (or vice versa) is control-group noise, not impact.
        """
        if not result.significant(self.config.did_threshold):
            return False
        if change.direction and result.normalised_alpha:
            return (change.direction > 0) == (result.normalised_alpha > 0)
        return True

    # -- full assessment ----------------------------------------------------------

    def assess(self, treated, change_index: int, control=None,
               history=None) -> Assessment:
        """Assess one item end-to-end (Fig. 3): the earliest declared
        change is attributed.

        Args:
            treated: treated-group measurements, ``(units, bins)`` or a
                single series; aggregated by mean for detection.
            change_index: bin index of the software change.
            control: peer control group ``(units, bins)`` — pass the
                cservers'/cinstances' series under Dark Launching when
                the KPI is not an affected service's; ``None`` otherwise.
            history: historical control ``(days, bins)``, each row the
                same clock window on a previous day — used when
                ``control`` is absent (affected services, Full
                Launching).

        Returns:
            The :class:`~repro.types.Assessment` with verdict, detection
            and DiD estimate.
        """
        treated = np.atleast_2d(np.asarray(treated, dtype=np.float64))
        aggregate = treated.mean(axis=0)
        changes = self.detect(aggregate, change_index, first_only=True)
        if not changes:
            return Assessment(verdict=Verdict.NO_CHANGE)
        return self.attribute(treated, changes[0], change_index,
                              control=control, history=history)

    def attribute(self, treated, change: DetectedChange, change_index: int,
                  control=None, history=None) -> Assessment:
        """Attribute one detected change (Fig. 3 steps 7-11).

        This is the second half of :meth:`assess`, split out so the
        engine can time and report detection and attribution as separate
        stages.  ``treated`` is the same matrix (or single series) that
        produced ``change``.  The one-item case of
        :meth:`attribute_batch`.
        """
        return self.attribute_batch(
            [(treated, change, change_index, control, history)])[0]

    def attribute_batch(self, items: Sequence[tuple]) -> List[Assessment]:
        """:meth:`attribute` for many declared changes at once.

        ``items`` holds ``(treated, change, change_index, control,
        history)`` tuples, :meth:`attribute`'s arguments.  Peers are
        compared unit by unit, history with the treated aggregate; each
        period holds up to ``2*omega - 1`` bins, the pre-period ending at
        the change and the post-period at the declaration.  Panels of one
        shape are fitted as one stacked :class:`DiDPanel`, each item's
        answer bitwise what it gets alone.
        """
        w = 2 * self.config.sst.omega - 1
        out: List[Optional[Assessment]] = [None] * len(items)
        groups: dict = {}
        for position, (treated, change, change_index, control,
                       history) in enumerate(items):
            treated = np.atleast_2d(np.asarray(treated, dtype=np.float64))
            if control is not None and np.asarray(control).size:
                kind = "peers"
                control = np.atleast_2d(np.asarray(control, dtype=np.float64))
            elif history is not None and np.asarray(history).size:
                kind, treated = "history", treated.mean(axis=0)[None, :]
                control = np.atleast_2d(np.asarray(history, dtype=np.float64))
            else:
                out[position] = Assessment(
                    verdict=Verdict.CAUSED_BY_CHANGE, change=change,
                    did_estimate=None, control=None,
                    notes=("no control group available; other factors "
                           "were not excluded",))
                continue
            pre_lo = max(0, change_index - w)
            post_hi = min(treated.shape[1], change.index + 1)
            post_lo = max(change_index, post_hi - w)
            fields = (treated[:, pre_lo:change_index], treated[:, post_lo:post_hi],
                      control[:, pre_lo:change_index], control[:, post_lo:post_hi])
            key = (kind, fields[0].shape, fields[1].shape, fields[2].shape,
                   fields[3].shape)
            groups.setdefault(key, []).append((position, change, fields))
        for (kind, *_), members in groups.items():
            if len(members) == 1:
                stacks = [field[None] for field in members[0][2]]
            else:
                stacks = [np.stack(column) for column
                          in zip(*(fields for _, _, fields in members))]
            for (position, change, _), result in zip(
                    members, self.estimator.fit(DiDPanel(*stacks))):
                caused = self._attributed(result, change)
                out[position] = Assessment(
                    verdict=(Verdict.CAUSED_BY_CHANGE if caused
                             else Verdict.OTHER_REASONS if kind == "peers"
                             else Verdict.SEASONALITY),
                    change=change,
                    did_estimate=result.normalised_alpha,
                    control=kind,
                )
        return out
