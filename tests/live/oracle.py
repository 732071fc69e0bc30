"""The eager reference the lazy declaration program is tested against.

``src/`` evaluates the declaration rule cheap half first: a gating table
decides persistence everywhere, the kernel scores only where it
confirms, nothing is stored between passes.  What must come out is
defined here without any of that, and without sharing a line of it:
score **every** position of the received prefix with
:meth:`repro.core.ika.IkaSST.scores`, then run :func:`confirm_candidate`
(the persistence rule as written, plain ``np.median`` calls) on each
armed candidate, oldest first — whole
:class:`~repro.types.DetectedChange` s, ``score`` (the armed candidate's
own) included; live only ``kind`` may differ from offline.  :func:`eager_changes` is the offline form,
:class:`EagerDetector` the live one (a pass on the ticks the service
makes one: same chunk threshold, same deadline flush), and
:func:`standalone_verdict_documents` the verdict documents a fault-free
replay must publish, with :meth:`repro.core.funnel.Funnel.attribute` run
on each declaration.  :func:`alone` is the other side of the live
comparisons: the pass a service tick makes, over one detector.
"""

import numpy as np

from repro.core.funnel import Funnel, FunnelConfig
from repro.core.ika import IkaSST
from repro.core.robust import MAD_TO_SIGMA, median_and_mad
from repro.core.scoring import robust_normalise
from repro.types import DetectedChange
from repro.engine.fleet import SyntheticFleetSource
from repro.engine.planner import ENTITY_METRICS
from repro.live import DetectorPool, LiveVerdict, parity_live_config
from repro.telemetry.timeseries import MINUTE
from repro.topology.impact import identify_impact_set


def confirm_candidate(x, scores, candidate, policy, lookahead=0):
    """Run the persistence check for a candidate armed at ``candidate``.

    Confirms when the median of ``x[candidate : candidate+persistence]``
    sits more than the deviation band away from the pre-candidate
    baseline median, each computed with a plain ``np.median``: the rule
    ``src/``'s gating table is tested against.
    """
    end = candidate + policy.persistence
    if end > x.size:
        return None
    med, scale = median_and_mad(x[:max(1, candidate)])
    band = policy.deviation_sigmas * (MAD_TO_SIGMA * scale + 1e-9)
    deviation = float(np.median(x[candidate:end])) - med
    if not abs(deviation) > band:        # a NaN deviation never confirms
        return None
    return declared_change(x, scores, candidate,
                           1 if deviation > 0 else -1, policy, lookahead)


def declared_change(x, scores, candidate, direction, policy, lookahead):
    """What a confirmed candidate declares, one at a time and in plain
    loops: the per-item reference ``src/``'s batched declaration is
    pinned to (``tests/core/test_declare_batch.py``)."""
    detected_at = candidate + max(policy.persistence - 1, lookahead)
    if detected_at >= x.size:
        return None
    med, scale = median_and_mad(x[:max(1, candidate)])
    band = policy.deviation_sigmas * (MAD_TO_SIGMA * scale + 1e-9)
    start = candidate + policy.persistence - 1
    for i in range(start, -1, -1):
        if not abs(x[i] - med) > band:
            break
        start = i
    return DetectedChange(index=detected_at, start_index=start,
                          score=float(scores[candidate]),
                          kind=classify(x, start, detected_at),
                          direction=direction)


def classify(x, start, detected_at):
    """Fig. 2's step-versus-line rule over one segment: the best
    single-step fit's SSE by scanning every split, the line's by
    ``lstsq``."""
    segment = x[max(0, start - 10):min(x.size, detected_at + 11)]
    if segment.size < 4:
        return "level_shift"
    step = float(np.sum((segment - segment.mean()) ** 2))
    cumsum = np.cumsum(segment)
    total = float(np.sum(segment ** 2))
    for split in range(1, segment.size):
        left = cumsum[split - 1]
        sse = (total - left ** 2 / split
               - (cumsum[-1] - left) ** 2 / (segment.size - split))
        if sse < step:
            step = sse
    design = np.column_stack([np.arange(segment.size, dtype=np.float64),
                              np.ones(segment.size)])
    coef = np.linalg.lstsq(design, segment, rcond=None)[0]
    resid = segment - design @ coef
    return "ramp" if float(resid @ resid) < 0.8 * max(step, 0.0) \
        else "level_shift"


def alone(detector, values=None, rows=None):
    """``detector.extend(values, rows)`` (unless ``values`` is None), then
    the pass a service tick makes over this one detector: returns the
    declaration of the lowest row that declared in it, if any."""
    if values is not None:
        detector.extend(values, rows)
    found = DetectorPool().score_pending([detector])
    return found[0][2] if found else None


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


def detector_state(detector, row=0):
    """``detector.state_dict(row)`` with its ``values`` array as bytes, so
    two snapshots compare with ``==``, bit for bit."""
    state = detector.state_dict(row)
    return dict(state, values=state["values"].tobytes())


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
