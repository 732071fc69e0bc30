"""The standalone oracle for the live service's pooled scoring path.

The service defers every tracker and scores pending segments in stacked
pool passes.  What it must publish is defined without any of that: one
:class:`~repro.live.detector.IncrementalDetector` per KPI scoring on its
own inside ``extend`` (the immediate mode kept for exactly this
purpose), fed the same bins on the same ticks, with
:meth:`repro.core.funnel.Funnel.attribute` run on each declaration.
"""

from repro.core.funnel import Funnel
from repro.engine.fleet import SyntheticFleetSource
from repro.engine.planner import ENTITY_METRICS
from repro.live import IncrementalDetector, LiveVerdict, parity_live_config
from repro.telemetry.timeseries import MINUTE
from repro.topology.impact import identify_impact_set


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
                detector = IncrementalDetector(
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
