"""Tests for the shared detector arena and its fused tick operations."""

import numpy as np

from repro.core.funnel import FunnelConfig
from repro.live.arena import DetectorArena
from repro.live.detector import IncrementalDetector


def _stream(rng, n=80, step_at=30):
    x = 50.0 + rng.normal(0, 0.5, size=n)
    x[step_at:] += 4.0
    return x


class TestArenaGeometry:
    def test_acquire_release_recycles_rows(self):
        arena = DetectorArena(capacity=16, rows=2)
        a = arena.acquire()
        b = arena.acquire()
        assert a != b
        assert arena.active_rows == 2
        arena.release(a)
        assert arena.active_rows == 1
        assert arena.acquire() == a

    def test_acquire_grows_rows_and_keeps_data(self):
        arena = DetectorArena(capacity=8, rows=1)
        first = arena.acquire()
        arena.values[first, :3] = [1.0, 2.0, 3.0]
        arena.norm[first, :3] = [4.0, 5.0, 6.0]
        before = arena.rows
        rows = [arena.acquire() for _ in range(before + 2)]
        assert arena.rows > before
        assert len({first, *rows}) == len(rows) + 1
        assert arena.values[first, :3].tolist() == [1.0, 2.0, 3.0]
        assert arena.norm[first, :3].tolist() == [4.0, 5.0, 6.0]

    def test_acquired_row_has_zero_scores(self):
        arena = DetectorArena(capacity=8, rows=1)
        row = arena.acquire()
        arena.scores[row, :] = 7.0
        arena.release(row)
        assert arena.acquire() == row
        assert not arena.scores[row].any()

    def test_ensure_capacity_preserves_planes(self):
        arena = DetectorArena(capacity=4, rows=1)
        row = arena.acquire()
        arena.values[row, :4] = [1.0, 2.0, 3.0, 4.0]
        arena.norm[row, :4] = [5.0, 6.0, 7.0, 8.0]
        arena.scores[row, 2] = 9.0
        arena.ensure_capacity(100)
        assert arena.capacity >= 100
        assert arena.values[row, :4].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert arena.norm[row, :4].tolist() == [5.0, 6.0, 7.0, 8.0]
        # New score columns are zero (the zeros-where-unscored invariant).
        assert arena.scores[row, 2] == 9.0
        assert not arena.scores[row, 4:].any()


class TestExtendBatch:
    def test_tensor_path_matches_sequential_extends(self, rng):
        """One scatter-write + broadcast normalise == n private extends,
        bitwise across every plane."""
        config = FunnelConfig()
        arena = DetectorArena()
        streams = [_stream(rng) for _ in range(5)]
        shared = [IncrementalDetector(30, config, arena=arena)
                  for _ in streams]
        private = [IncrementalDetector(30, config) for _ in streams]
        # Freeze statistics first (warmup goes through detector.extend).
        for detector, x in zip(shared + private, streams + streams):
            detector.extend(x[:40])
        scattered = arena.extend_batch(
            [(d, x[40:]) for d, x in zip(shared, streams)])
        assert scattered == len(streams)
        for d, x in zip(private, streams):
            d.extend(x[40:])
        for s, p in zip(shared, private):
            assert s._n == p._n
            assert s._values[:s._n].tobytes() == p._values[:p._n].tobytes()
            assert s._norm[:s._n].tobytes() == p._norm[:p._n].tobytes()

    def test_mixed_widths_group_correctly(self, rng):
        config = FunnelConfig()
        arena = DetectorArena()
        detectors = [IncrementalDetector(30, config, arena=arena)
                     for _ in range(4)]
        base = _stream(rng, n=50)
        for d in detectors:
            d.extend(base)
        chunks = [rng.normal(size=w) for w in (1, 3, 1, 3)]
        scattered = arena.extend_batch(list(zip(detectors, chunks)))
        assert scattered == 4
        for d, chunk in zip(detectors, chunks):
            assert d._n == 50 + chunk.size
            np.testing.assert_array_equal(d._values[50:d._n], chunk)

    def test_warming_detector_falls_back_to_extend(self, rng):
        """Statistics not fixed yet: the row must go through the
        detector's own extend (which computes them), not the scatter."""
        config = FunnelConfig()
        arena = DetectorArena()
        cold = IncrementalDetector(30, config, arena=arena)
        scattered = arena.extend_batch([(cold, _stream(rng)[:10])])
        assert scattered == 0
        assert cold._n == 10

    def test_foreign_arena_falls_back(self, rng):
        config = FunnelConfig()
        arena, other = DetectorArena(), DetectorArena()
        foreign = IncrementalDetector(30, config, arena=other)
        foreign.extend(_stream(rng, n=40))
        scattered = arena.extend_batch([(foreign, np.ones(2))])
        assert scattered == 0
        assert foreign._n == 42

    def test_empty_values_are_skipped(self, rng):
        config = FunnelConfig()
        arena = DetectorArena()
        d = IncrementalDetector(30, config, arena=arena)
        d.extend(_stream(rng, n=40))
        assert arena.extend_batch([(d, np.empty(0))]) == 0
        assert d._n == 40


class TestDetach:
    def test_detach_keeps_state_and_frees_row(self, rng):
        config = FunnelConfig()
        arena = DetectorArena()
        d = IncrementalDetector(30, config, arena=arena)
        d.extend(_stream(rng, n=60))
        row, n = d._row, d._n
        series = d.series.copy()
        scores = d.scores.copy()
        active = arena.active_rows
        d.detach()
        assert arena.active_rows == active - 1
        assert d.arena is not arena
        np.testing.assert_array_equal(d.series, series)
        np.testing.assert_array_equal(d.scores, scores)
        # The released row is recyclable and its reuse cannot corrupt
        # the detached detector.
        assert arena.acquire() == row
        arena.values[row, :] = -1.0
        np.testing.assert_array_equal(d.series, series)

    def test_detach_is_idempotent_and_noop_for_private(self, rng):
        config = FunnelConfig()
        private = IncrementalDetector(30, config)
        private.extend(_stream(rng, n=40))
        arena_before = private.arena
        private.detach()
        assert private.arena is arena_before

    def test_state_dict_round_trips_across_arena_kinds(self, rng):
        """Shared-arena snapshot → private restore and back: the wire
        format carries no arena geometry."""
        config = FunnelConfig()
        arena = DetectorArena()
        shared = IncrementalDetector(30, config, arena=arena)
        shared.extend(_stream(rng, n=70))
        state = shared.state_dict()

        private = IncrementalDetector(30, config)
        private.load_state(state)
        assert private.state_dict() == state

        rehydrated = IncrementalDetector(
            30, config, arena=DetectorArena(capacity=4))
        rehydrated.load_state(private.state_dict())
        assert rehydrated.state_dict() == state
