"""The streaming detector must match the offline FUNNEL bit for bit."""

import dataclasses

import numpy as np
import pytest

from repro.core.funnel import Funnel, FunnelConfig
from repro.core.ika import IkaSST
from repro.core.scoring import _confirmed_directions, robust_normalise
from repro.exceptions import CheckpointError
from repro.live.detector import IncrementalDetector


def offline_first_declaration(series, change_index, config=None):
    changes = Funnel(config).detect(series, change_index)
    return changes[0] if changes else None


def stream(series, change_index, chunk_schedule, config=None,
           score_chunk_bins=1):
    """Feed ``series`` in pieces; returns (detector, declaration)."""
    detector = IncrementalDetector(change_index, config,
                                   score_chunk_bins=score_chunk_bins)
    declared = None
    position = 0
    for size in chunk_schedule:
        piece = series[position:position + size]
        if piece.size == 0:
            break
        result = detector.extend(piece)
        if declared is None:
            declared = result
        position += size
    if declared is None:
        declared = detector.flush()
    return detector, declared


def but_kind(change):
    """The parity contract: everything except ``kind``, which reads the
    bins that have arrived *after* the declaration index."""
    return dataclasses.replace(change, kind="")


def constant_chunks(total, size):
    out = []
    remaining = total
    while remaining > 0:
        out.append(min(size, remaining))
        remaining -= size
    return out


class TestDeclarationParity:
    @pytest.mark.parametrize("push_size", [1, 4, 9, 37])
    def test_shift_series_matches_offline(self, rng, push_size):
        x = 50.0 + rng.normal(0, 1.0, size=240)
        x[80:] += 7.0
        offline = offline_first_declaration(x, 80)
        assert offline is not None
        _, live = stream(x, 80, constant_chunks(240, push_size))
        assert live is not None
        assert but_kind(live) == but_kind(offline)

    @pytest.mark.parametrize("push_size", [1, 7])
    def test_quiet_series_declares_nothing(self, rng, push_size):
        x = 50.0 + rng.normal(0, 1.0, size=240)
        _, live = stream(x, 80, constant_chunks(240, push_size))
        assert live is None
        assert offline_first_declaration(x, 80) is None

    def test_pre_existing_change_filtered(self, rng):
        # A shift well before the software change: offline filters it
        # (start_index < change_index - 1) and so must the live scan.
        x = 50.0 + rng.normal(0, 1.0, size=240)
        x[30:] += 7.0
        offline = offline_first_declaration(x, 80)
        _, live = stream(x, 80, constant_chunks(240, 1))
        if offline is None:
            assert live is None
        else:
            assert live is not None
            assert live.index == offline.index

    def test_randomised_parity_sweep(self, rng):
        mismatches = 0
        for trial in range(20):
            x = 50.0 + rng.normal(0, 1.0, size=220)
            case = trial % 3
            if case == 0:
                x[70:] += 6.5          # genuine impact at the change
            elif case == 1:
                pass                    # no impact
            else:
                x[110:135] += np.linspace(0.3, 6.0, 25)  # late ramp
                x[135:] += 6.0
            offline = offline_first_declaration(x, 70)
            sizes = rng.integers(1, 12, size=220)
            _, live = stream(x, 70, [int(s) for s in sizes])
            if (offline is None) != (live is None):
                mismatches += 1
            elif offline is not None and but_kind(live) != but_kind(offline):
                mismatches += 1
        assert mismatches == 0


class TestScores:
    def test_scores_bitwise_equal_to_offline(self, rng, monkeypatch):
        """No score is stored; every one a pass computes — the confirmed
        positions, through ``where=`` — is the byte the offline
        full-array call holds at that position, and nothing else is
        computed: a pass asks once or not at all."""
        x = 50.0 + rng.normal(0, 1.0, size=240)
        x[80:] += 7.0
        config = FunnelConfig()
        normalised = robust_normalise(x, baseline=80)
        offline_scores = Funnel(config).scorer.scores(normalised)
        confirmed = _confirmed_directions(
            [normalised], [np.arange(x.size - 16)], config.policy)[0] != 0
        asked = []
        original = IkaSST.scores_batch

        def recorded(self, stacked, lengths=None, where=None):
            out = original(self, stacked, lengths, where=where)
            asked.append((int(lengths[0]), where[0], out[0]))
            return out

        monkeypatch.setattr(IkaSST, "scores_batch", recorded)
        detector, declared = stream(x, 80, constant_chunks(240, 1), config)
        assert declared is not None and asked
        assert len({n for n, _, _ in asked}) == len(asked)
        for n, where, scores in asked:
            assert where.any() and not (where & ~confirmed[:n]).any()
            assert np.array_equal(scores,
                                  np.where(where, offline_scores[:n], 0.0))
        scored = sum(int(where.sum()) for _, where, _ in asked)
        assert scored < 0.1 * len(detector)
        # The declaration reports the score that armed it.
        candidate = declared.index - detector.lookahead
        assert declared.score == offline_scores[candidate]

    @pytest.mark.parametrize("seed", range(40))
    def test_the_score_is_a_fact_about_the_kpi(self, seed):
        """On a ramp the declaring position's stretch is still filling
        when it declares: its peak depended on how many bins the pass
        had, the declaring score does not."""
        x = 50.0 + np.random.default_rng(seed).normal(0, 1.0, size=240)
        x[80:95] += np.linspace(0, 5, 15)
        x[95:] += 5.0
        offline = Funnel().detect(x, 80, first_only=True)
        for chunk in (1, 4, 9, 12, 64):
            _, live = stream(x, 80, constant_chunks(240, 1),
                             score_chunk_bins=chunk)
            # ``==`` on a score above the threshold is byte equality.
            assert [but_kind(c) for c in offline] == \
                ([] if live is None else [but_kind(live)])

    @pytest.mark.parametrize("chunk", [4, 9])
    def test_chunking_changes_nothing(self, rng, chunk):
        x = 50.0 + rng.normal(0, 1.0, size=240)
        x[80:] += 7.0
        _, plain = stream(x, 80, constant_chunks(240, 1))
        _, chunked = stream(x, 80, constant_chunks(240, 1),
                            score_chunk_bins=chunk)
        assert plain is not None and chunked is not None
        assert but_kind(plain) == but_kind(chunked)


class TestFlush:
    def test_flush_scores_the_remainder(self, rng):
        # With a large chunk the declaration only becomes visible when
        # the deadline flush scores the outstanding bins.
        x = 50.0 + rng.normal(0, 1.0, size=150)
        x[80:] += 7.0
        detector = IncrementalDetector(80, score_chunk_bins=64)
        declared = None
        for value in x:
            declared = declared or detector.extend(np.array([value]))
        if declared is None:
            declared = detector.flush()
        offline = offline_first_declaration(x, 80)
        assert (declared is None) == (offline is None)
        if offline is not None:
            assert declared.index == offline.index

    def test_flush_without_stats_is_safe(self):
        detector = IncrementalDetector(80)
        assert detector.flush() is None

    def test_declares_only_once(self, rng):
        x = 50.0 + rng.normal(0, 1.0, size=240)
        x[80:] += 7.0
        detector = IncrementalDetector(80)
        declarations = []
        for value in x:
            result = detector.extend(np.array([value]))
            if result is not None:
                declarations.append(result)
        assert len(declarations) == 1
        assert detector.flush() is None


class TestStorage:
    def test_growth_keeps_unscored_zero_and_offline_parity(self, rng):
        """Across two doublings of the private arrays (chunk 50 leaves
        an uncovered stretch on both sides of each boundary) the samples
        survive and the end state is the offline detector's."""
        x = 50.0 + rng.normal(0, 1.0, size=400)
        x[300:] += 7.0
        detector = IncrementalDetector(80, score_chunk_bins=50)
        declared, unscored = None, []
        for n, capacity in ((100, 128), (130, 256), (250, 256), (260, 512),
                            (400, 512)):
            result = detector.extend(x[len(detector):n])
            declared = declared or result
            assert detector._values.size == detector._norm.size == capacity
            unscored.append(n - detector.span + 1 - detector._next_score_t)
            np.testing.assert_array_equal(detector.series, x[:n])
        assert unscored == [0, 30, 0, 10, 0]
        np.testing.assert_array_equal(detector._norm[:400],
                                      robust_normalise(x, baseline=80))
        first = offline_first_declaration(x, 80)
        assert first is not None
        assert but_kind(declared) == but_kind(first)

    @pytest.mark.parametrize("field,values,shape", [
        # one element used to broadcast silently over all 90 bins
        ("norm", [0.0], "(1,)"),
        # a truncated file used to raise a bare ValueError
        ("values", [1.0] * 89, "(89,)"),
        ("norm", [[0.0] * 90], "(1, 90)"),
    ], ids=["one-element", "truncated", "nested"])
    def test_load_state_rejects_arrays_that_disagree_with_n(
            self, rng, field, values, shape):
        donor = IncrementalDetector(60)
        donor.extend(10.0 + rng.normal(0, 0.5, size=90))
        state = donor.state_dict()
        state[field] = values
        with pytest.raises(CheckpointError) as raised:
            IncrementalDetector(60).load_state(state)
        assert repr(field) in str(raised.value)
        assert shape in str(raised.value)

    @pytest.mark.parametrize("scores", [[0.0] * 90, [0.0], [[1.0]], None])
    def test_load_state_ignores_stored_scores(self, rng, scores):
        """Scores left the wire format: a file written when they were
        stored loads whatever its ``scores`` list holds, and the
        restored detector continues like the donor."""
        x = 10.0 + rng.normal(0, 0.5, size=150)
        x[100:] += 5.0
        donor = IncrementalDetector(100)
        donor.extend(x[:110])
        state = donor.state_dict()
        assert "scores" not in state
        state["scores"] = scores
        restored = IncrementalDetector(100)
        restored.load_state(state)
        assert restored.extend(x[110:]) == donor.extend(x[110:]) is not None
        assert restored.state_dict() == donor.state_dict()
