"""One-week online deployment simulation — paper section 5 and Table 3.

The deployed FUNNEL prototype watched a few dozen services: 24119
software changes per day, 268 of which had real impact, 2.26 million
KPIs monitored, ~10 thousand KPI changes detected per day, and a 98.21%
precision over the week (the operations team verified only the
*detections* — labelling every KPI was prohibitive, so recall was not
measured; we keep the same protocol but, having exact ground truth, also
report the recall the paper could not).

The simulation reuses the corpus generator's per-item machinery: each
simulated change owns a batch of monitored KPIs with the section 4.1
type mix; impactful changes inject genuine effects on a subset of their
KPIs.  The ``scale`` knob shrinks the day to keep the bench tractable —
rates (precision, detections per KPI) are scale-free.

Assessment runs through the batched engine (:mod:`repro.engine`): each
day's KPI stream is planned into assessment jobs and executed in
chunks, serially by default or across process workers — the counters
are bit-identical either way.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.funnel import FunnelConfig
from ..engine import (EngineConfig, ObsContext, execute_jobs, job_from_item,
                      spec_for_method)
from ..exceptions import ParameterError
from ..synthetic.dataset import CorpusSpec, EvaluationCorpus

__all__ = ["DeploymentSpec", "DeploymentDay", "DeploymentReport",
           "simulate_week"]

#: Paper Table 3 daily statistics, used as the scale-1.0 targets.
PAPER_DAILY_CHANGES = 24119
PAPER_DAILY_IMPACTFUL = 268
PAPER_DAILY_KPIS = 2_256_390


@dataclass(frozen=True)
class DeploymentSpec:
    """Parameters of the simulated deployment week.

    ``scale`` multiplies the paper's daily volumes; the default keeps a
    single day at ~a hundred changes so the whole week runs in minutes.
    """

    scale: float = 0.004
    days: int = 7
    impact_rate: float = PAPER_DAILY_IMPACTFUL / PAPER_DAILY_CHANGES
    kpis_per_change: float = PAPER_DAILY_KPIS / PAPER_DAILY_CHANGES
    impacted_kpi_fraction: float = 0.12
    seed: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ParameterError("scale must be in (0, 1]")
        if self.days < 1:
            raise ParameterError("days must be >= 1")
        if not 0.0 < self.impact_rate < 1.0:
            raise ParameterError("impact_rate must be in (0, 1)")

    @property
    def changes_per_day(self) -> int:
        return max(10, int(round(PAPER_DAILY_CHANGES * self.scale)))


@dataclass
class DeploymentDay:
    """Counters for one simulated day (one Table 3 row)."""

    day: int
    changes: int = 0
    impactful_changes: int = 0
    kpis: int = 0
    detections: int = 0
    true_detections: int = 0
    missed_impacted_kpis: int = 0

    @property
    def precision(self) -> float:
        if self.detections == 0:
            return float("nan")
        return self.true_detections / self.detections

    @property
    def recall(self) -> float:
        total_true = self.true_detections + self.missed_impacted_kpis
        if total_true == 0:
            return float("nan")
        return self.true_detections / total_true


@dataclass
class DeploymentReport:
    """Aggregated week: the Table 3 numbers plus the recall the paper
    could not measure."""

    days: List[DeploymentDay] = field(default_factory=list)

    def _total(self, attr: str) -> int:
        return sum(getattr(d, attr) for d in self.days)

    @property
    def daily_changes(self) -> float:
        return self._total("changes") / max(len(self.days), 1)

    @property
    def daily_impactful(self) -> float:
        return self._total("impactful_changes") / max(len(self.days), 1)

    @property
    def daily_kpis(self) -> float:
        return self._total("kpis") / max(len(self.days), 1)

    @property
    def daily_detections(self) -> float:
        return self._total("detections") / max(len(self.days), 1)

    @property
    def precision(self) -> float:
        detections = self._total("detections")
        if detections == 0:
            return float("nan")
        return self._total("true_detections") / detections

    @property
    def recall(self) -> float:
        total_true = (self._total("true_detections")
                      + self._total("missed_impacted_kpis"))
        if total_true == 0:
            return float("nan")
        return self._total("true_detections") / total_true

    def as_table3_row(self) -> Dict[str, float]:
        return {
            "software_changes_per_day": self.daily_changes,
            "impactful_changes_per_day": self.daily_impactful,
            "kpis_per_day": self.daily_kpis,
            "kpi_changes_per_day": self.daily_detections,
            "precision": self.precision,
            "recall": self.recall,
        }


def _day_corpus(spec: DeploymentSpec, day: int) -> EvaluationCorpus:
    """A corpus whose composition mirrors one deployment day.

    The section 4.1 generator already produces the right item mix; the
    deployment day differs only in class balance — the vast majority of
    changes (and their KPIs) carry no effect — which we obtain by
    shrinking the positive count through the corpus scale and treating
    the 'clean factor' as 1 (no x86 synthesis here: every item is real).
    """
    n_kpis = int(spec.changes_per_day * spec.kpis_per_change)
    corpus_scale = min(1.0, n_kpis / 9982.0)
    impactful = max(1, int(round(spec.changes_per_day * spec.impact_rate)))
    return EvaluationCorpus(CorpusSpec(
        scale=corpus_scale,
        n_changes=max(2, impactful),
        seed=spec.seed + 1013 * day,
    ))


def simulate_week(spec: Optional[DeploymentSpec] = None,
                  funnel_config: Optional[FunnelConfig] = None,
                  progress=None, workers: int = 0, batch_size: int = 16,
                  obs: Optional[ObsContext] = None) -> DeploymentReport:
    """Run FUNNEL online over a simulated deployment week.

    Each day's KPI stream goes through the batched assessment engine;
    ``workers`` > 0 fans the day out over a process pool with counters
    bit-identical to the serial default.  ``obs`` (an
    :class:`~repro.obs.ObsContext`) collects the week's spans and
    metrics — one ``day`` span per simulated day with the engine's
    execute/batch/job tree underneath.
    """
    spec = spec or DeploymentSpec()
    detector = spec_for_method("funnel", funnel_config=funnel_config)
    config = EngineConfig(workers=workers, batch_size=batch_size)
    chunk_size = config.batch_size * max(config.workers, 1) * 4
    report = DeploymentReport()

    for day in range(spec.days):
        counters = DeploymentDay(day=day)
        counters.changes = spec.changes_per_day
        corpus = _day_corpus(spec, day)
        seen_changes = set()

        def flush(items) -> None:
            jobs = [job_from_item(item, detector) for item in items]
            results = execute_jobs(jobs, config=config, obs=obs)
            for item, result in zip(items, results):
                if result.positive:
                    counters.detections += 1
                    if item.truth.positive:
                        counters.true_detections += 1
                elif item.truth.positive:
                    counters.missed_impacted_kpis += 1

        day_span = (obs.tracer.span("day", day=day) if obs is not None
                    else nullcontext())
        with day_span:
            chunk = []
            for item in corpus:
                counters.kpis += 1
                if item.truth.positive:
                    seen_changes.add((item.half, item.change_id))
                chunk.append(item)
                if len(chunk) >= chunk_size:
                    flush(chunk)
                    chunk = []
            if chunk:
                flush(chunk)
        counters.impactful_changes = len(seen_changes)
        report.days.append(counters)
        if progress is not None:
            progress(day, counters)
    return report
