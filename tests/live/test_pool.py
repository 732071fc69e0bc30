"""Unit tests for the cross-detector scoring pool."""

import numpy as np
import pytest

from repro.core.funnel import FunnelConfig
from repro.core.ika import IkaSST
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import declare_changes, robust_normalise
from repro.exceptions import ParameterError
from repro.live import DetectorPool, IncrementalDetector
from repro.live.pool import (GATED_CANDIDATES_METRIC, GATING_TABLES_METRIC,
                             POOLED_BATCHES_METRIC, POOLED_SERIES_METRIC,
                             SCORED_WINDOWS_METRIC)
from repro.obs.metrics import MetricsRegistry

from .oracle import alone, detector_state


def _detector(seed, n=150, change_index=80, step=0.0):
    rng = np.random.default_rng(seed)
    x = 10.0 + rng.normal(0, 0.5, size=n)
    if step:
        x[change_index:] += step
    detector = IncrementalDetector(change_index)
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
    """The pass decides every pending row from one table; what it
    declares, in which order, and where it leaves each row is pinned
    against standalone detectors — the same pass over each detector
    alone — fed the same bins.  (That the pass itself is right is the
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
        """The pooled side is one detector whose rows join as their KPIs
        are admitted, like a session's trackers."""
        pool = DetectorPool()
        pooled = IncrementalDetector()
        rows, solo, fed = {}, {}, {}
        passes = []
        for tick in range(45):
            fresh = []
            for i, (change_index, admitted, backfill, x) in enumerate(
                    self.SPECS):
                if tick < admitted:
                    continue
                if i not in rows:
                    rows[i], = pooled.add_rows(change_index)
                    solo[i] = IncrementalDetector(change_index)
                    fed[i] = 0
                bins = x[fed[i]:fed[i] + (1 if fed[i] else backfill)]
                fed[i] += bins.size
                assert pooled.extend(bins, rows[i]) is None
                if alone(solo[i], bins) is not None:
                    fresh.append(i)
            declared = pool.score_pending([pooled])
            assert sorted(row for _, row, _ in declared) == fresh
            for _, row, declaration in declared:
                assert declaration == solo[row].declarations[0]
            if declared:
                passes.append((tick, [row for _, row, _ in declared]))
            for i, row in rows.items():
                assert detector_state(pooled, row) == detector_state(solo[i])
        # In input order (row order); the staggered ones follow.
        assert passes == [(0, [0, 1, 2, 3]), (7, [5]), (15, [4])]
        assert solo[6].declarations[0] is None
        # Row 4 confirmed its pre-existing shift first.
        norm = robust_normalise(pooled.series(4), baseline=120)
        first = declare_changes(norm, IkaSST().scores(norm), lookahead=16)[0]
        assert first.start_index < 119 <= \
            pooled.declarations[4].start_index

    def test_one_table_covers_every_width_group(self, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        registry = MetricsRegistry()
        pool = DetectorPool(registry)
        detectors, positions = [], 0
        for change_index, _, backfill, x in self.SPECS[:5]:
            detector = IncrementalDetector(change_index)
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

    @pytest.mark.parametrize("poison", [np.nan, np.inf, 1e300])
    def test_a_non_finite_row_fails_the_pass(self, poison):
        """The table's NaN padding cannot encode a non-finite sample: a
        pass that tables one is refused whole, and so is the same row's
        own flush.  A refused pass moves no detector, so the same pass
        is refused again.  The store, ``TimeSeries`` and a checkpoint's
        decoder refuse NaN and inf, but not a finite sample that
        normalises to inf: on a constant baseline the scale is 1e-9, so
        a sample above about 1e299 does (``poison=1e300``)."""
        if poison == 1e300:
            x = np.r_[np.full(80, 5.0), np.full(20, poison)]
        else:
            x = _series(8, 100, [(80, 5.0)])
            x[95] = poison
        clean = _series(9, 100, [(80, 5.0)])
        for rows, run in (
                ([clean, x], lambda d: DetectorPool().score_pending(d)),
                ([x], lambda d: DetectorPool().score_pending(d)),
                ([x], lambda d: d[0].flush())):
            detectors = [IncrementalDetector(80) for _ in rows]
            for detector, row in zip(detectors, rows):
                detector.extend(row)
            before = [detector_state(d) for d in detectors]
            for _ in range(2):
                with np.errstate(over="ignore"), pytest.raises(
                        ParameterError, match="NaN or infinite"):
                    run(detectors)
                assert [detector_state(d) for d in detectors] == before

class TestDetectorPool:
    def test_pooled_scores_match_per_detector(self):
        pooled = [_detector(seed, step=5.0 * (seed % 2))
                  for seed in range(5)]
        pool = DetectorPool()
        declared = pool.score_pending([d for d, _ in pooled])
        for detector, x in pooled:
            solo = IncrementalDetector(detector.change_index)
            alone(solo, x)
            assert detector_state(detector) == detector_state(solo)
        assert {i: declaration for i, _, declaration in declared} == \
            {i: detector.declarations[0] for i, (detector, _) in enumerate(pooled)
             if detector.declarations[0] is not None}
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
            alone(solo, x)
            assert detector_state(detector) == detector_state(solo)

    def test_two_sessions_three_widths_are_one_kernel_call(self, monkeypatch):
        """Two sessions — two 3-row detectors — whose trackers wait with
        three prefix lengths: the pass stacks whatever of them confirms,
        zero-padded, into ONE ``scores_batch`` call, and every row ends
        where its twin, scored alone, does."""
        #: (bins fed before the pass, step) per row of each session
        specs = [[(150, 5.0), (130, -4.0), (110, 5.0)],
                 [(110, 0.0), (150, 6.0), (130, 0.0)]]
        sessions, twins = [], []
        for index, rows in enumerate(specs):
            detector = IncrementalDetector([80] * 3)
            fed = []
            for row, (n, step) in enumerate(rows):
                x = _series(20 + 3 * index + row, 170,
                            [(80, step)] if step else [])
                detector.extend(x[:n], row)
                twin = IncrementalDetector(80)
                alone(twin, x[:n])
                fed.append((x, n))
                twins.append(((index, row), twin))
            sessions.append((detector, fed))
        pool = DetectorPool()
        calls = _kernel_calls(monkeypatch)   # the twins scored on their own
        declared = pool.score_pending([d for d, _ in sessions])
        # The quiet rows confirm nowhere and are not in the stack.
        assert [(shape, lengths) for shape, lengths, _ in calls] == \
            [((4, 150), (150, 130, 110, 150))]
        assert (pool.metrics.counter(POOLED_BATCHES_METRIC).value(),
                pool.metrics.counter(POOLED_SERIES_METRIC).value()) == (1, 4)
        assert {(i, row): change for i, row, change in declared} == {
            at: twin.declarations[0] for at, twin in twins
            if twin.declarations[0] is not None}
        # In input order: detector, then row.
        assert [(i, row) for i, row, _ in declared] == \
            [(0, 0), (0, 1), (0, 2), (1, 1)]
        # ... and the next tick decides one position a row from the
        # table alone: nothing confirms, the kernel is not called.
        for detector, fed in sessions:
            detector.extend(np.array([[x[n]] for x, n in fed]))
        for (index, row), twin in twins:
            x, n = sessions[index][1][row]
            alone(twin, x[n:n + 1])
        del calls[:]
        assert pool.score_pending([d for d, _ in sessions]) == []
        assert calls == []
        for (index, row), twin in twins:
            assert detector_state(sessions[index][0], row) == \
                detector_state(twin)

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
                detector = IncrementalDetector(60, score_chunk_bins=chunk)
                detector.extend(x[:60])
                pool.score_pending([detector])
                for value in x[60:]:
                    detector.extend([value])
                    pool.score_pending([detector])
                pair.append(detector)
            pooled.append(pair[0])
            twins.append(pair[1])
        left = {d.length() - d.span - d.state_dict()["next_score_t"] + 1
                for d in pooled if d.declarations[0] is None}
        assert left == {remainder}
        batches = pool.metrics.counter(POOLED_BATCHES_METRIC)
        before = batches.value()
        declared = pool.score_pending(pooled, flush=True)
        # Only the remainder's positions can confirm anything new.
        assert batches.value() == before + (1 if remainder else 0)
        expected = {}
        for i, twin in enumerate(twins):
            before = twin.declarations[0]
            flushed = twin.flush()
            assert flushed is None or before is None
            if flushed is not None:
                expected[i] = flushed
        assert {i: change for i, _, change in declared} == expected
        assert [i for i, _, _ in declared] == sorted(expected)
        assert len(expected) == {0: 0, 1: 1, 2: 1}.get(remainder, 2)
        for detector, twin in zip(pooled, twins):
            assert detector_state(detector) == detector_state(twin)

    def test_mixed_configurations_raise(self):
        """One pass scores one configuration (a service has one): a pass
        over detectors configured otherwise is refused before any row
        moves; an equal configuration is the same one."""
        other = FunnelConfig(sst=ImprovedSSTParams(omega=7))
        x = _series(51, 150, [(80, 5.0)])
        pooled = [IncrementalDetector(80, config)
                  for config in (None, other, FunnelConfig())]
        for detector in pooled:
            detector.extend(x)
        before = [detector_state(detector) for detector in pooled]
        with pytest.raises(ValueError, match="one configuration"):
            DetectorPool().score_pending(pooled)
        assert [detector_state(d) for d in pooled] == before
        declared = DetectorPool().score_pending(pooled[::2])
        assert [i for i, _, _ in declared] == [0, 1]

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
        assert declared and detector.declarations[0] is not None
        # More data arrives; the detector is done declaring.
        detector.extend(np.full(10, 10.0))
        assert not detector.pending_rows().size
        assert pool.score_pending([detector]) == []
