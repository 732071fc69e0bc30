"""The streaming detector must match the offline FUNNEL bit for bit."""

import base64
import dataclasses

import numpy as np
import pytest

from repro.core.funnel import Funnel, FunnelConfig
from repro.core.ika import IkaSST
from repro.core.scoring import _confirmed_directions, robust_normalise
from repro.exceptions import CheckpointError
from repro.live import DetectorPool
from repro.live.detector import IncrementalDetector

from ..core.test_scoring import padded
from .oracle import alone, detector_state


def offline_first_declaration(series, change_index, config=None):
    changes = Funnel(config).detect(series, change_index)
    return changes[0] if changes else None


def stream(series, change_index, chunk_schedule, config=None,
           score_chunk_bins=1):
    """Feed ``series`` in pieces, a pass after each; returns (detector,
    declaration)."""
    detector = IncrementalDetector(change_index, config,
                                   score_chunk_bins=score_chunk_bins)
    declared = None
    position = 0
    for size in chunk_schedule:
        piece = series[position:position + size]
        if piece.size == 0:
            break
        result = alone(detector, piece)
        if declared is None:
            declared = result
        position += size
    if declared is None:
        declared = detector.flush()
    return detector, declared


def pass_reads(monkeypatch):
    """Record the bytes of every normalised prefix a pass tables (a pass
    hands the table its NaN-padded ``(stack, lengths)``)."""
    import repro.live.detector as module
    reads, table = [], module._confirmed_directions

    def recorded(series, candidates, policy):
        stack, lengths = series
        reads.extend(row[:n].tobytes() for row, n in zip(stack, lengths))
        return table(series, candidates, policy)

    monkeypatch.setattr(module, "_confirmed_directions", recorded)
    return reads


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
            padded([normalised]), [np.arange(x.size - 16)],
            config.policy)[0] != 0
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
        assert scored < 0.1 * detector.length()
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
            declared = declared or alone(detector, np.array([value]))
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
            result = alone(detector, np.array([value]))
            if result is not None:
                declarations.append(result)
        assert len(declarations) == 1
        assert detector.flush() is None


class TestStorage:
    def test_growth_keeps_unscored_zero_and_offline_parity(
            self, rng, monkeypatch):
        """Across two doublings of the matrix (128 bins, then 256 and
        512: chunk 50 leaves an uncovered stretch on both sides of each
        boundary) the samples survive and the end state is the offline
        detector's."""
        reads = pass_reads(monkeypatch)
        x = 50.0 + rng.normal(0, 1.0, size=400)
        x[300:] += 7.0
        detector = IncrementalDetector(80, score_chunk_bins=50)
        declared, unscored = None, []
        for n in (100, 130, 250, 260, 400):
            result = alone(detector, x[detector.length():n])
            declared = declared or result
            unscored.append(n - detector.span + 1
                            - detector.state_dict()["next_score_t"])
            np.testing.assert_array_equal(detector.series(), x[:n])
        assert unscored == [0, 30, 0, 10, 0]
        # The pass at 400 bins read the whole offline transform.
        assert reads[-1] == robust_normalise(x, baseline=80).tobytes()
        first = offline_first_declaration(x, 80)
        assert first is not None
        assert but_kind(declared) == but_kind(first)

    @pytest.mark.parametrize("field,values,shape", [
        # one element used to broadcast silently over all 90 bins
        ("values", [0.0], "(1,)"),
        # a truncated file used to raise a bare ValueError
        ("values", [1.0] * 89, "(89,)"),
        ("values", [[0.0] * 90], "(1, 90)"),
        # format 2: whole float64s, but 89 of them
        ("values", base64.b64encode(bytes(89 * 8)).decode(), "(89,)"),
    ], ids=["one-element", "truncated", "nested", "v2-byte-count"])
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
    def test_load_state_ignores_stored_scores(self, rng, monkeypatch,
                                              scores):
        """Scores left the wire format: a file written when they were
        stored loads whatever its ``scores`` list holds, and the
        restored detector continues like the donor."""
        x = 10.0 + rng.normal(0, 0.5, size=150)
        x[100:] += 5.0
        reads = pass_reads(monkeypatch)
        donor = IncrementalDetector(100)
        alone(donor, x[:110])
        read_at_110 = reads[-1]
        state = donor.state_dict()
        assert "scores" not in state and "norm" not in state
        state["scores"] = scores
        # A format-1 file's normalised prefix is ignored too, whatever
        # it holds: the restored one is rebuilt from the raw prefix.
        state["norm"] = [float("nan")] * 3
        restored = IncrementalDetector(100)
        restored.load_state(state)
        declared = alone(restored, x[110:])
        assert reads[-1][:len(read_at_110)] == read_at_110
        assert declared == alone(donor, x[110:]) is not None
        assert reads[-1] == reads[-2]
        assert detector_state(restored) == detector_state(donor)


class TestLazyNormalisation:
    """``extend`` only buffers raw bins; the pass's first reader
    (``scan``) and ``load_state`` normalise, with one elementwise
    expression, so how the bins arrived cannot show in what a pass
    reads."""

    def test_extend_leaves_the_normalised_prefix_untouched(
            self, rng, monkeypatch):
        # A flat baseline (MAD 0) makes the scale 1e-9: normalising
        # 1e300 overflows, so any arithmetic on the buffered bins shows.
        detector = IncrementalDetector(60, score_chunk_bins=12)
        detector.extend(np.full(100, 10.0))
        with np.errstate(over="raise"):
            for _ in range(20):
                assert detector.extend(np.array([1e300])) is None
            with pytest.raises(FloatingPointError):
                detector.scan(np.array([0]))
        # Ordinary bins: what the pass reads is the offline transform.
        reads = pass_reads(monkeypatch)
        x = 10.0 + rng.normal(0, 0.5, size=120)
        detector = IncrementalDetector(60, score_chunk_bins=12)
        detector.extend(x[:100])
        for value in x[100:]:
            assert detector.extend(np.array([value])) is None
        assert not reads
        DetectorPool().score_pending([detector])
        assert reads == [robust_normalise(x, baseline=60).tobytes()]

    @pytest.mark.parametrize("chunk", [1, 12])
    def test_pass_reads_are_bytes_of_the_offline_transform(
            self, rng, monkeypatch, chunk):
        """Bin by bin, one block, ragged chunks, and a checkpoint
        round trip taken mid-chunk: every prefix a pass tables is a
        prefix of the one offline transform, and the last pass tables
        the whole of it."""
        reads = pass_reads(monkeypatch)
        x = 10.0 + rng.normal(0, 0.5, size=220)
        offline = robust_normalise(x, baseline=100).tobytes()

        def fed(schedule, restore_at=None):
            del reads[:]
            detector = IncrementalDetector(100, score_chunk_bins=chunk)
            for size in schedule:
                n = detector.length()
                if n == restore_at:
                    restored = IncrementalDetector(100,
                                                   score_chunk_bins=chunk)
                    restored.load_state(detector.state_dict())
                    detector = restored
                alone(detector, x[n:n + size])
            detector.flush()
            assert detector.length() == x.size and detector.declarations[0] is None
            assert reads and all(offline.startswith(r) for r in reads)
            return max(reads, key=len)

        ragged = [100, 3, 7, 1, 12, 30, 5, 62]
        assert fed([1] * 220) == offline
        assert fed([220]) == offline
        assert fed(ragged) == offline
        assert fed(ragged, restore_at=111) == offline  # 11 bins into a chunk
        assert fed(constant_chunks(220, 5), restore_at=115) == offline
