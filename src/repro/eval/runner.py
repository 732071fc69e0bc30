"""The experiment runner: methods x corpus -> Table 1 / Fig. 5 data.

Every method is evaluated through the assessment engine
(:mod:`repro.engine`): :func:`make_method` resolves a method name to its
:class:`~repro.engine.jobs.DetectorSpec`, and :func:`evaluate_corpus`
plans one :class:`~repro.engine.jobs.AssessmentJob` per (item, method)
and runs them through the batched executor.  The engine preserves what
each method is *allowed to see*:

* **funnel** — treated + control/history, full Fig. 3 flow;
* **improved_sst** — the same detector, no DiD (any post-change
  detection counts as "caused by the change");
* **cusum** / **mrls** — the baselines on the treated aggregate, no DiD
  (the paper's comparison setting).

The Table 1 synthesis then follows section 4.2.1: per (method, KPI type)
the clean half's confusion counts are scaled by 86 (= 6194/72) and added
to the inducing half's counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..baselines.cusum import CusumParams
from ..baselines.mrls import MrlsParams
from ..core.funnel import FunnelConfig
from ..engine import (EngineConfig, ItemOutcome, ObsContext, execute_jobs,
                      job_from_item, spec_for_method)
from ..engine.jobs import AssessmentJob, DetectorSpec
from ..exceptions import EngineError, EvaluationError
from ..synthetic.dataset import EvaluationItem
from ..types import KpiCharacter
from .confusion import ConfusionMatrix
from .delay import DelayDistribution

__all__ = ["make_method", "EvaluationResult", "evaluate_corpus",
           "CLEAN_SCALE_FACTOR", "METHOD_NAMES"]

#: The paper's synthesis factor for the clean half (6194 / 72 ~= 86).
CLEAN_SCALE_FACTOR = 86.0

METHOD_NAMES = ("funnel", "improved_sst", "cusum", "mrls")


def make_method(name: str, funnel_config: Optional[FunnelConfig] = None,
                cusum_params: Optional[CusumParams] = None,
                mrls_params: Optional[MrlsParams] = None) -> DetectorSpec:
    """The engine detector spec for one of :data:`METHOD_NAMES`."""
    try:
        return spec_for_method(name, funnel_config=funnel_config,
                               cusum_params=cusum_params,
                               mrls_params=mrls_params)
    except EngineError as exc:
        raise EvaluationError("unknown method %r" % name) from exc


@dataclass
class EvaluationResult:
    """All confusion matrices and delay distributions from one run."""

    #: (method, character, half) -> raw confusion counts.
    strata: Dict[Tuple[str, str, str], ConfusionMatrix] = field(
        default_factory=dict)
    #: method -> detection delays over true positives.
    delays: Dict[str, DelayDistribution] = field(default_factory=dict)
    items_evaluated: int = 0

    def _stratum(self, method: str, character: str,
                 half: str) -> ConfusionMatrix:
        key = (method, character, half)
        if key not in self.strata:
            self.strata[key] = ConfusionMatrix()
        return self.strata[key]

    def record(self, method: str, item: EvaluationItem,
               outcome: ItemOutcome) -> None:
        matrix = self._stratum(method, item.character.value, item.half)
        matrix.record(outcome.positive, item.truth.positive)
        if outcome.positive and item.truth.positive:
            delay = outcome.delay(item.truth.start_index)
            if delay is not None:
                self.delays.setdefault(
                    method, DelayDistribution(method)).record(delay)

    # -- synthesis -----------------------------------------------------------

    def synthesized(self, method: str, character: str) -> ConfusionMatrix:
        """Table 1 cell: inducing counts + ``CLEAN_SCALE_FACTOR`` x clean
        counts."""
        inducing = self.strata.get((method, character, "inducing"),
                                   ConfusionMatrix())
        clean = self.strata.get((method, character, "clean"),
                                ConfusionMatrix())
        return inducing + clean.scaled(CLEAN_SCALE_FACTOR)

    def table1(self, methods: Iterable[str] = METHOD_NAMES) -> List[dict]:
        """All Table 1 rows: one per (method, KPI type)."""
        rows = []
        for method in methods:
            for character in (KpiCharacter.SEASONAL,
                              KpiCharacter.STATIONARY,
                              KpiCharacter.VARIABLE):
                matrix = self.synthesized(method, character.value)
                row = {"method": method, "type": character.value}
                row.update(matrix.as_row())
                rows.append(row)
        return rows

    def overall(self, method: str) -> ConfusionMatrix:
        total = ConfusionMatrix()
        for character in KpiCharacter:
            total = total + self.synthesized(method, character.value)
        return total


def evaluate_corpus(items: Iterable[EvaluationItem],
                    methods: Dict[str, DetectorSpec],
                    mrls_stride: int = 1,
                    progress: Optional[Callable[[int], None]] = None,
                    batch_size: int = 16,
                    obs: Optional[ObsContext] = None) -> EvaluationResult:
    """Run every method over every item.

    Every method (a spec :func:`make_method` returns) is planned
    into assessment jobs and run through
    :func:`repro.engine.execute_jobs` in chunks of ``batch_size * 4``
    items; results do not depend on the chunking.

    Args:
        items: the evaluation corpus (streamed).
        methods: name -> detector spec; build with :func:`make_method`
            (any other value raises :class:`EvaluationError`).
        mrls_stride: evaluate ``mrls`` only on every n-th item (its
            iterated-SVD cost makes the full corpus impractical; the
            sampled counts are scaled back up by ``mrls_stride`` so the
            synthesized rates stay unbiased).  1 = no sampling.
        progress: optional callback invoked with the item counter.
        batch_size: jobs per engine batch.
        obs: optional :class:`~repro.obs.ObsContext`; with one the
            evaluation's engine runs record spans and metrics, and the
            caller can write them out with
            :func:`repro.obs.write_run_artifacts`.
    """
    if mrls_stride < 1:
        raise EvaluationError("mrls_stride must be >= 1")
    for name, spec in methods.items():
        if not isinstance(spec, DetectorSpec):
            raise EvaluationError(
                "method %r is not a detector spec; build it with "
                "make_method" % name)
    result = _evaluate_with_engine(
        items, methods, mrls_stride, progress,
        EngineConfig(batch_size=batch_size), obs)

    if "mrls" in methods and mrls_stride > 1:
        for key in list(result.strata):
            if key[0] == "mrls":
                result.strata[key] = result.strata[key].scaled(mrls_stride)
    return result


def _evaluate_with_engine(items: Iterable[EvaluationItem],
                          methods: Dict[str, DetectorSpec],
                          mrls_stride: int,
                          progress: Optional[Callable[[int], None]],
                          config: EngineConfig,
                          obs: Optional[ObsContext] = None
                          ) -> EvaluationResult:
    """The engine path: chunked job planning + batched execution."""
    result = EvaluationResult()
    chunk_size = config.batch_size * 4
    chunk: List[Tuple[int, EvaluationItem]] = []

    def flush() -> None:
        jobs: List[AssessmentJob] = []
        labels: List[Tuple[str, EvaluationItem]] = []
        for counter, item in chunk:
            for name, spec in methods.items():
                if name == "mrls" and counter % mrls_stride:
                    continue
                jobs.append(job_from_item(item, spec))
                labels.append((name, item))
        outcomes = execute_jobs(jobs, config=config, obs=obs)
        for (name, item), job_result in zip(labels, outcomes):
            result.record(name, item, job_result.outcome)
        if progress is not None:
            for counter, _ in chunk:
                progress(counter)

    for counter, item in enumerate(items):
        result.items_evaluated += 1
        chunk.append((counter, item))
        if len(chunk) >= chunk_size:
            flush()
            chunk = []
    if chunk:
        flush()
    return result
