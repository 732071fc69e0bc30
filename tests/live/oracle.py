"""The eager reference the lazy declaration program is tested against.

``src/`` evaluates the declaration rule cheap half first: a gating table
decides persistence everywhere, the kernel scores only where it
confirms, nothing is stored between passes.  What must come out is
defined here without any of that, and without sharing a line of it:
score **every** position of the received prefix with
:meth:`repro.core.ika.IkaSST.scores`, then run
:func:`repro.core.scoring.confirm_candidate` on each armed candidate,
oldest first — whole :class:`~repro.types.DetectedChange` s, ``score``
(the armed candidate's own) included; live only ``kind`` may differ from
offline.  :func:`eager_changes` is the offline form,
:class:`EagerDetector` the live one (a pass on the ticks the service
makes one: same chunk threshold, same deadline flush), and
:func:`standalone_verdict_documents` the verdict documents a fault-free
replay must publish, with :meth:`repro.core.funnel.Funnel.attribute` run
on each declaration.
"""

import numpy as np

from repro.core.funnel import Funnel, FunnelConfig
from repro.core.ika import IkaSST
from repro.core.scoring import confirm_candidate, robust_normalise
from repro.engine.fleet import SyntheticFleetSource
from repro.engine.planner import ENTITY_METRICS
from repro.live import LiveVerdict, parity_live_config
from repro.telemetry.timeseries import MINUTE
from repro.topology.impact import identify_impact_set


def _confirmed(x, scores, config, cursor=0, last=None):
    """``(cursor, change)`` pairs: every confirmed armed candidate in
    ``[cursor, last]``, oldest first, each skipping the candidates its
    own stretch covers; ``cursor`` is where scanning resumes after it."""
    lookahead = config.sst.lookahead - 1
    for t in np.flatnonzero(scores > config.policy.score_threshold).tolist():
        if t < cursor or (last is not None and t > last):
            continue
        change = confirm_candidate(x, scores, t, config.policy, lookahead)
        if change is not None:
            cursor = change.index + 1
            yield cursor, change


def eager_changes(series, change_index, config=None):
    """What ``Funnel(config).detect(series, change_index)`` must return."""
    config = config or FunnelConfig()
    x = robust_normalise(series, baseline=max(change_index, 1))
    scores = IkaSST(config.sst).scores(x)
    return [change for _, change in _confirmed(x, scores, config)
            if change.start_index >= change_index - 1]


class EagerDetector:
    """What an :class:`~repro.live.IncrementalDetector` fed the same bins
    must declare, and on which call."""

    def __init__(self, change_index, config=None, score_chunk_bins=1):
        self.config = config or FunnelConfig()
        self.change_index = change_index
        self.chunk = max(1, score_chunk_bins)
        self.series = np.empty(0)
        self.declared = None
        self._frontier = self.config.sst.lead   # first position not yet due
        self._cursor = 0

    def extend(self, values):
        self.series = np.append(self.series, values)
        return self._pass(flush=False)

    def flush(self):
        return self._pass(flush=True)

    def _pass(self, flush):
        span, policy = self.config.sst.lead, self.config.policy
        n, baseline = self.series.size, max(self.change_index, 1)
        if n < baseline or self.declared is not None:
            return None
        due = n - span + 1 - self._frontier
        if not flush and (due < 1 or due < self.chunk):
            return None
        self._frontier = max(self._frontier, n - span + 1)
        if n < 2 * span:
            return None                       # nothing scoreable yet
        x = robust_normalise(self.series, baseline=baseline)
        scores = IkaSST(self.config.sst).scores(x)
        # Decidable: persistence window and declaration index both fit.
        last = n - max(policy.persistence, span)
        for cursor, change in _confirmed(x, scores, self.config,
                                         self._cursor, last):
            self._cursor = cursor
            if change.start_index >= self.change_index - 1:
                self.declared = change
                return change
        return None


def verdict_doc_key(doc):
    """A total order on verdict documents (intra-tick bus order is free)."""
    return sorted((k, repr(v)) for k, v in doc.items())


def sorted_documents(verdicts):
    return sorted((v.as_dict() for v in verdicts), key=verdict_doc_key)


def standalone_verdict_documents(spec, config=None, flush_bins=1):
    """Every verdict document a fault-free replay of ``spec`` must emit,
    sorted by :func:`verdict_doc_key`."""
    source = SyntheticFleetSource(spec)
    config = config or parity_live_config(spec)
    funnel = Funnel(config.funnel)
    offset, window = spec.change_offset, spec.window_bins
    assert offset % flush_bins == 0 and window % flush_bins == 0
    documents = []
    for change in source.changes:
        window_start = change.at_time - offset * MINUTE
        impact = identify_impact_set(source.fleet, change.service,
                                     change.hostnames)
        for entity_type, entity in impact.monitored_entities():
            for metric in ENTITY_METRICS[entity_type]:
                fetched = source.fetch(change, entity_type, entity, metric)
                series = fetched.treated[0]
                detector = EagerDetector(
                    offset, config.funnel,
                    score_chunk_bins=config.score_chunk_bins)
                # Admission backfills the baseline; then one fragment a tick.
                declared = detector.extend(series[:offset])
                pushed = offset
                while declared is None and pushed < window:
                    declared = detector.extend(
                        series[pushed:pushed + flush_bins])
                    pushed += flush_bins
                if declared is None:
                    declared = detector.flush()
                fields = dict(change_id=change.change_id,
                              entity_type=entity_type, entity=entity,
                              metric=metric,
                              emitted_at=window_start + pushed * MINUTE)
                if declared is None:
                    verdict = LiveVerdict(verdict="no_change",
                                          reason="deadline", **fields)
                else:
                    control = fetched.control
                    if control is not None:
                        control = control[:, :pushed]
                    assessment = funnel.attribute(
                        detector.series, declared, offset,
                        control=control, history=fetched.history)
                    verdict = LiveVerdict(
                        verdict=assessment.verdict.value, reason="declared",
                        declaration_bin=declared.index,
                        did_estimate=assessment.did_estimate,
                        control=assessment.control,
                        direction=declared.direction,
                        notes=tuple(assessment.notes), **fields)
                documents.append(verdict.as_dict())
    return sorted(documents, key=verdict_doc_key)
