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
        did_window: per-period sample count for the DiD panels; defaults
            to the gate window ``2*omega - 1``.
        did_threshold: bound on the normalised DiD estimator ``alpha``
            below which a change is attributed to other factors
            (section 3.2.4 suggests 0.5 for change-sensitive services).
        did_p_value: optional significance requirement on ``alpha``.
    """

    sst: ImprovedSSTParams = field(default_factory=ImprovedSSTParams)
    policy: ChangeDeclarationPolicy = field(
        default_factory=ChangeDeclarationPolicy)
    did_window: int = 0
    did_threshold: float = 0.5
    did_p_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.did_window < 0:
            raise ParameterError("did_window must be >= 0")
        if self.did_threshold <= 0:
            raise ParameterError("did_threshold must be positive")

    @property
    def effective_did_window(self) -> int:
        return self.did_window or (2 * self.sst.omega - 1)


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
               baseline_stats: Optional[Tuple[float, float]] = None,
               first_only: bool = False) -> List[DetectedChange]:
        """Declared behaviour changes starting at/after ``change_index``.

        ``baseline_stats`` optionally carries the precomputed
        ``(median, MAD)`` of the pre-change baseline (the engine's
        per-entity cache) so repeated windows skip the recomputation.
        The one-row case of :meth:`detect_batch`.
        """
        return self.detect_batch(as_float_array(series)[None, :],
                                 [change_index], [baseline_stats],
                                 first_only)[0]

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

    def _did_from_panel(self, panel: DiDPanel) -> DiDResult:
        return self.estimator.fit(panel)

    def _attributed(self, result: DiDResult,
                    change: DetectedChange) -> bool:
        """Does the DiD estimate attribute ``change`` to the software change?

        Beyond the magnitude threshold, the impact estimator must *agree
        in direction* with the detected change: a positive level shift
        explained by a negative relative movement of the treated group
        (or vice versa) is control-group noise, not impact.
        """
        if not result.significant(self.config.did_threshold,
                                  self.config.did_p_value):
            return False
        if change.direction and result.normalised_alpha:
            return (change.direction > 0) == (result.normalised_alpha > 0)
        return True

    def _peer_panel(self, treated: np.ndarray, control: np.ndarray,
                    change_index: int, detection_index: int) -> DiDPanel:
        w = self.config.effective_did_window
        pre_lo = max(0, change_index - w)
        post_hi = min(treated.shape[1], detection_index + 1)
        post_lo = max(change_index, post_hi - w)
        return DiDPanel(
            treated_pre=treated[:, pre_lo:change_index],
            treated_post=treated[:, post_lo:post_hi],
            control_pre=control[:, pre_lo:change_index],
            control_post=control[:, post_lo:post_hi],
        )

    def _history_panel(self, series: np.ndarray, history: np.ndarray,
                       change_index: int, detection_index: int) -> DiDPanel:
        w = self.config.effective_did_window
        pre_lo = max(0, change_index - w)
        post_hi = min(series.size, detection_index + 1)
        post_lo = max(change_index, post_hi - w)
        return DiDPanel(
            treated_pre=series[pre_lo:change_index].reshape(1, -1),
            treated_post=series[post_lo:post_hi].reshape(1, -1),
            control_pre=history[:, pre_lo:change_index],
            control_post=history[:, post_lo:post_hi],
        )

    # -- full assessment ----------------------------------------------------------

    def assess(self, treated, change_index: int, control=None,
               history=None, first_change_only: bool = True,
               baseline_stats: Optional[Tuple[float, float]] = None
               ) -> Assessment:
        """Assess one item end-to-end (Fig. 3).

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
            first_change_only: assess only the earliest declared change.
            baseline_stats: precomputed baseline ``(median, MAD)``,
                forwarded to :meth:`detect`.

        Returns:
            The :class:`~repro.types.Assessment` with verdict, detection
            and DiD estimate.
        """
        treated = np.atleast_2d(np.asarray(treated, dtype=np.float64))
        aggregate = treated.mean(axis=0)
        changes = self.detect(aggregate, change_index,
                              baseline_stats=baseline_stats,
                              first_only=first_change_only)
        if not changes:
            return Assessment(verdict=Verdict.NO_CHANGE)
        change = changes[0] if first_change_only else changes[-1]
        return self.attribute(treated, change, change_index,
                              control=control, history=history)

    def attribute(self, treated, change: DetectedChange, change_index: int,
                  control=None, history=None) -> Assessment:
        """Attribute one detected change (Fig. 3 steps 7-11).

        This is the second half of :meth:`assess`, split out so the
        engine can time and report detection and attribution as separate
        stages.  ``treated`` is the same matrix (or single series) that
        produced ``change``.
        """
        treated = np.atleast_2d(np.asarray(treated, dtype=np.float64))
        aggregate = treated.mean(axis=0)

        if control is not None and np.asarray(control).size:
            control = np.atleast_2d(np.asarray(control, dtype=np.float64))
            panel = self._peer_panel(treated, control, change_index,
                                     change.index)
            result = self._did_from_panel(panel)
            caused = self._attributed(result, change)
            return Assessment(
                verdict=(Verdict.CAUSED_BY_CHANGE if caused
                         else Verdict.OTHER_REASONS),
                change=change,
                did_estimate=result.normalised_alpha,
                control="peers",
            )

        if history is not None and np.asarray(history).size:
            history = np.atleast_2d(np.asarray(history, dtype=np.float64))
            panel = self._history_panel(aggregate, history, change_index,
                                        change.index)
            result = self._did_from_panel(panel)
            caused = self._attributed(result, change)
            return Assessment(
                verdict=(Verdict.CAUSED_BY_CHANGE if caused
                         else Verdict.SEASONALITY),
                change=change,
                did_estimate=result.normalised_alpha,
                control="history",
            )

        return Assessment(
            verdict=Verdict.CAUSED_BY_CHANGE,
            change=change,
            did_estimate=None,
            control=None,
            notes=("no control group available; other factors were not "
                   "excluded",),
        )
