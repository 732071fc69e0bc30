"""Unit tests for the cross-detector scoring pool."""

import numpy as np
import pytest

from repro.core.funnel import FunnelConfig
from repro.core.ika import IkaSST
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import declare_changes
from repro.exceptions import ParameterError
from repro.live import DetectorPool, IncrementalDetector
from repro.live.pool import (GATED_CANDIDATES_METRIC, GATING_TABLES_METRIC,
                             POOLED_BATCHES_METRIC, POOLED_SERIES_METRIC,
                             SCORED_WINDOWS_METRIC)
from repro.obs.metrics import MetricsRegistry


def _detector(seed, n=150, change_index=80, step=0.0):
    rng = np.random.default_rng(seed)
    x = 10.0 + rng.normal(0, 0.5, size=n)
    if step:
        x[change_index:] += step
    detector = IncrementalDetector(change_index, deferred_scoring=True)
    detector.extend(x)
    return detector, x


def _series(seed, n, shifts):
    rng = np.random.default_rng(seed)
    x = 10.0 + rng.normal(0, 0.5, size=n)
    for at, step in shifts:
        x[at:] += step
    return x


def _counter(registry, name):
    return sum(entry["value"] for entry in
               registry.snapshot()["counters"][name]["values"])


def _kernel_calls(monkeypatch):
    """``(stack shape, lengths, windows asked for)`` per kernel call."""
    calls = []
    original = IkaSST.scores_batch

    def counted(self, stacked, lengths=None, where=None):
        calls.append((np.shape(stacked), tuple(lengths), int(where.sum())))
        return original(self, stacked, lengths, where=where)

    monkeypatch.setattr(IkaSST, "scores_batch", counted)
    return calls


class TestOneTablePerPass:
    """The pass decides every pending detector from one table; what it
    declares, in which order, and where it leaves each detector is
    pinned against standalone detectors — the same pass, one detector at
    a time — fed the same bins.  (That the pass itself is right is the
    eager reference's business: ``test_lazy_eager.py``.)"""

    #: (change_index, admitted at pass, backfilled bins, series)
    SPECS = [
        (80, 0, 150, _series(1, 170, [(80, 5.0)])),
        (80, 0, 110, _series(2, 170, [(80, 5.0)])),
        (80, 0, 150, _series(3, 170, [(80, -4.0)])),
        (80, 0, 110, _series(4, 170, [(80, 6.0)])),
        # Shifts before and after the change: the first confirmed
        # change is pre-existing, hence not reportable.
        (120, 0, 130, _series(5, 190, [(40, 6.0), (125, 6.0)])),
        (80, 3, 100, _series(6, 170, [(90, 5.0)])),
        (80, 5, 130, _series(7, 170, [])),
    ]

    def test_declares_what_standalone_detectors_declare_in_order(self):
        pool = DetectorPool()
        pooled, solo, fed = {}, {}, {}
        passes = []
        for tick in range(45):
            fresh = []
            for i, (change_index, admitted, backfill, x) in enumerate(
                    self.SPECS):
                if tick < admitted:
                    continue
                if i not in pooled:
                    pooled[i] = IncrementalDetector(change_index,
                                                    deferred_scoring=True)
                    solo[i] = IncrementalDetector(change_index)
                    fed[i] = 0
                bins = x[fed[i]:fed[i] + (1 if fed[i] else backfill)]
                fed[i] += bins.size
                assert pooled[i].extend(bins) is None
                if solo[i].extend(bins) is not None:
                    fresh.append(i)
            live = sorted(pooled)
            declared = pool.score_pending([pooled[i] for i in live])
            assert sorted(live[j] for j, _ in declared) == fresh
            for j, declaration in declared:
                assert declaration == solo[live[j]].declared
            if declared:
                passes.append((tick, [live[j] for j, _ in declared]))
            for i in live:
                assert pooled[i].state_dict() == solo[i].state_dict()
        # Group by group (the 150-bin stack first: detector 0 opened
        # it), input order inside a group; the staggered ones follow.
        assert passes == [(0, [0, 2, 1, 3]), (7, [5]), (15, [4])]
        assert solo[6].declared is None
        # Detector 4 confirmed its pre-existing shift first.
        norm = pooled[4]._norm[:len(pooled[4])]
        first = declare_changes(norm, IkaSST().scores(norm), lookahead=16)[0]
        assert first.start_index < 119 <= pooled[4].declared.start_index

    def test_one_table_covers_every_width_group(self, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        registry = MetricsRegistry()
        pool = DetectorPool(registry)
        detectors, positions = [], 0
        for change_index, _, backfill, x in self.SPECS[:5]:
            detector = IncrementalDetector(change_index,
                                           deferred_scoring=True)
            detector.extend(x[:backfill])
            detectors.append(detector)
            # Decidable: scoreable (from bin 17) and the declaration
            # index (position + 16) exists.
            positions += backfill - 16 - 17
        assert len(pool.score_pending(detectors)) == 4
        assert _counter(registry, GATING_TABLES_METRIC) == 1
        assert _counter(registry, GATED_CANDIDATES_METRIC) == positions
        # One kernel call: what confirms.
        assert _counter(registry, POOLED_BATCHES_METRIC) == len(calls) == 1
        windows = sum(asked for _, _, asked in calls)
        assert _counter(registry, SCORED_WINDOWS_METRIC) == windows
        assert 0 < windows < positions / 2

    def test_nan_carrying_row_is_left_out_of_the_table(self):
        """A checkpoint whose normalised prefix carries a NaN: the
        table's NaN-padded sorts would silently mis-rank it, so the row
        is decided by the reference rule — which refuses the samples,
        exactly as it does for the standalone detector."""
        x = _series(8, 140, [(80, 5.0)])
        donor = IncrementalDetector(80)
        donor.extend(x[:90])
        state = donor.state_dict()
        state["norm"][3] = float("nan")
        twin = IncrementalDetector(80)
        twin.load_state(state)
        with pytest.raises(ParameterError):
            twin.extend(x[90:100])

        dirty = IncrementalDetector(80, deferred_scoring=True)
        dirty.load_state(state)
        dirty.extend(x[90:100])
        clean = IncrementalDetector(80, deferred_scoring=True)
        clean.extend(_series(9, 140, [(80, 5.0)])[:100])
        with pytest.raises(ParameterError):
            DetectorPool().score_pending([clean, dirty])
        # While nothing arms on it, the refused row rides along quietly
        # and the rows beside it declare as they would without it.
        quiet = IncrementalDetector(80, deferred_scoring=True)
        state = dict(donor.state_dict(), norm=[float("nan")] + [0.0] * 89)
        quiet.load_state(state)
        quiet.extend(np.full(10, donor._stats[0]))       # normalises to 0.0
        clean = IncrementalDetector(80, deferred_scoring=True)
        clean.extend(_series(9, 140, [(80, 5.0)])[:100])
        assert [i for i, _ in DetectorPool().score_pending(
            [quiet, clean])] == [1]
        assert quiet.declared is None and quiet._scan_t == 100 - 16


class TestDetectorPool:
    def test_pooled_scores_match_per_detector(self):
        pooled = [_detector(seed, step=5.0 * (seed % 2))
                  for seed in range(5)]
        pool = DetectorPool()
        declared = pool.score_pending([d for d, _ in pooled])
        for detector, x in pooled:
            solo = IncrementalDetector(detector.change_index)
            solo.extend(x)
            assert detector.state_dict() == solo.state_dict()
        assert {i: declaration for i, declaration in declared} == \
            {i: detector.declared for i, (detector, _) in enumerate(pooled)
             if detector.declared is not None}
        assert len(declared) == 2

    def test_mixed_lengths_score_in_one_call(self, monkeypatch):
        short, x_short = _detector(1, n=110, step=5.0)
        long, x_long = _detector(2, n=160, step=5.0)
        calls = _kernel_calls(monkeypatch)
        registry = MetricsRegistry()
        pool = DetectorPool(registry)
        assert len(pool.score_pending([short, long])) == 2
        # A clean step confirms at every position of its stretch: the
        # one call is all, there is nothing left to fill.
        assert [(shape, lengths) for shape, lengths, _ in calls] == \
            [((2, 160), (110, 160))]
        assert _counter(registry, POOLED_BATCHES_METRIC) == 1
        assert _counter(registry, POOLED_SERIES_METRIC) == 2
        for detector, x in ((short, x_short), (long, x_long)):
            solo = IncrementalDetector(detector.change_index)
            solo.extend(x)
            assert detector.state_dict() == solo.state_dict()

    def test_two_sessions_three_widths_are_one_kernel_call(self, monkeypatch):
        """Two sessions whose trackers wait with three prefix lengths:
        the pass stacks whatever of them confirms, zero-padded, into ONE
        ``scores_batch`` call, and every detector ends where its
        standalone twin does."""
        #: (session, bins fed before the pass, step)
        specs = [(0, 150, 5.0), (1, 110, 0.0), (0, 130, -4.0),
                 (1, 150, 6.0), (0, 110, 5.0), (1, 130, 0.0)]
        pooled, twins = [], []
        for seed, (session, n, step) in enumerate(specs):
            x = _series(20 + seed, 170, [(80, step)] if step else [])
            detector = IncrementalDetector(80, deferred_scoring=True)
            detector.extend(x[:n])
            twin = IncrementalDetector(80)
            twin.extend(x[:n])
            pooled.append((detector, x, n))
            twins.append(twin)
        pool = DetectorPool()
        calls = _kernel_calls(monkeypatch)   # the twins scored on their own
        declared = pool.score_pending([d for d, _, _ in pooled])
        # The quiet rows confirm nowhere and are not in the stack.
        assert [(shape, lengths) for shape, lengths, _ in calls] == \
            [((4, 150), (150, 130, 150, 110))]
        assert pool.batches == 1 and pool.series == 4
        assert dict(declared) == {i: twin.declared
                                  for i, twin in enumerate(twins)
                                  if twin.declared is not None}
        # Width groups in order of first appearance (150, 110, 130).
        assert [i for i, _ in declared] == [0, 3, 4, 2]
        # ... and the next tick decides one position a detector from the
        # table alone: nothing confirms, the kernel is not called.
        for (detector, x, n), twin in zip(pooled, twins):
            detector.extend(x[n:n + 1])
            twin.extend(x[n:n + 1])
        del calls[:]
        assert pool.score_pending([d for d, _, _ in pooled]) == []
        assert calls == []
        for (detector, _, _), twin in zip(pooled, twins):
            assert detector.state_dict() == twin.state_dict()

    @pytest.mark.parametrize("remainder", range(5))
    def test_flush_pass_equals_per_detector_flush(self, remainder):
        """``flush=True`` is the deadline form: with chunk 5 and 0-4
        unscored bins left, one pass leaves every detector where its
        own ``flush()`` leaves its twin -- including the detectors with
        nothing left to score, which are scanned all the same."""
        chunk, n = 5, 100 + remainder
        pool = DetectorPool()
        pooled, twins = [], []
        # Quiet; two late steps only the remainder's scores confirm; one
        # too late to decide; one declared long before the deadline.
        for seed, at in enumerate((0, n - 14, n - 16, n - 12, 70)):
            x = _series(40 + seed, n, [(at, 5.0)] if at else [])
            pair = []
            for _ in range(2):
                detector = IncrementalDetector(60, score_chunk_bins=chunk,
                                               deferred_scoring=True)
                detector.extend(x[:60])
                pool.score_pending([detector])
                for value in x[60:]:
                    detector.extend([value])
                    pool.score_pending([detector])
                pair.append(detector)
            pooled.append(pair[0])
            twins.append(pair[1])
        left = {len(d) - d.span - d._next_score_t + 1 for d in pooled
                if d.declared is None}
        assert left == {remainder}
        batches = pool.batches
        declared = pool.score_pending(pooled, flush=True)
        # Only the remainder's positions can confirm anything new.
        assert pool.batches == batches + (1 if remainder else 0)
        expected = {}
        for i, twin in enumerate(twins):
            before = twin.declared
            flushed = twin.flush()
            assert flushed is None or before is None
            if flushed is not None:
                expected[i] = flushed
        assert dict(declared) == expected
        assert [i for i, _ in declared] == sorted(expected)
        assert len(expected) == {0: 0, 1: 1, 2: 1}.get(remainder, 2)
        for detector, twin in zip(pooled, twins):
            assert detector.state_dict() == twin.state_dict()

    def test_stray_configuration_flushes_on_its_own(self):
        """One pass scores one configuration; a detector configured
        otherwise still gets its scores and its declaration."""
        other = FunnelConfig(sst=ImprovedSSTParams(omega=7))
        x = _series(51, 150, [(80, 5.0)])
        pooled = [IncrementalDetector(80, config, deferred_scoring=True)
                  for config in (None, other, None)]
        for detector in pooled:
            detector.extend(x)
        pool = DetectorPool()
        declared = pool.score_pending(pooled)
        assert pool.series == 2
        # Its shorter span makes it a width group of its own.
        assert [i for i, _ in declared] == [0, 2, 1]
        for detector in pooled:
            solo = IncrementalDetector(80, detector.config)
            solo.extend(x)
            assert detector.state_dict() == solo.state_dict()
            assert detector.declared == solo.declared is not None

    def test_nothing_pending_is_a_noop(self):
        detector, _ = _detector(3)
        pool = DetectorPool()
        pool.score_pending([detector])
        registry = MetricsRegistry()
        counted = DetectorPool(registry)
        assert counted.score_pending([detector]) == []
        assert POOLED_BATCHES_METRIC not in \
            registry.snapshot()["counters"]

    def test_declared_detector_is_skipped(self):
        detector, _ = _detector(4, step=6.0)
        pool = DetectorPool()
        declared = pool.score_pending([detector])
        assert declared and detector.declared is not None
        # More data arrives; the detector is done declaring.
        detector.extend(np.full(10, 10.0))
        assert detector.pending_bounds() is None
        assert pool.score_pending([detector]) == []
