"""Cross-series batched scoring: bitwise parity with the per-series path.

``IkaSST.scores`` delegates to ``scores_batch`` with a single-row stack,
so the interesting invariant is not "batched matches single" (true by
construction) but **batch-size invariance**: a row must score to the
exact same bytes no matter which — or how large — a stack it is part of.
These tests pin that, plus ragged stacks (NaN-padded or with explicit
lengths; the kernel's unit is the window pair, so rows of any length
share its blocks and padding is never read), the block cap, the
fused-direction Lanczos recursion and the input validation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ika import _BLOCK_PAIRS, IkaSST
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import robust_normalise
from repro.exceptions import InsufficientDataError, ParameterError


def _stack(seed: int, n_series: int, length: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    stack = 10.0 + rng.normal(0.0, 0.5, size=(n_series, length))
    # Give half the rows a genuine step so both score regimes appear.
    for row in range(0, n_series, 2):
        stack[row, length // 2:] += rng.uniform(2.0, 5.0)
    return np.vstack([robust_normalise(row, baseline=length // 2)
                      for row in stack])


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("params", [
        ImprovedSSTParams(),
        ImprovedSSTParams(omega=5, eta=2),
        ImprovedSSTParams(omega=7, eta=4, future_directions="smallest"),
        ImprovedSSTParams(gated=False),
    ])
    def test_rows_score_bitwise_like_singles(self, params):
        stack = _stack(seed=11, n_series=6, length=140)
        ika = IkaSST(params)
        batched = ika.scores_batch(stack)
        assert batched.shape == stack.shape
        for row in range(stack.shape[0]):
            np.testing.assert_array_equal(batched[row],
                                          ika.scores(stack[row]))

    def test_sub_stacks_score_bitwise_identically(self):
        stack = _stack(seed=23, n_series=8, length=120)
        ika = IkaSST()
        full = ika.scores_batch(stack)
        np.testing.assert_array_equal(ika.scores_batch(stack[:3]), full[:3])
        np.testing.assert_array_equal(ika.scores_batch(stack[3:]), full[3:])
        shuffled = [5, 0, 7, 2]
        np.testing.assert_array_equal(ika.scores_batch(stack[shuffled]),
                                      full[shuffled])

    def test_matches_reference_per_row(self):
        stack = _stack(seed=7, n_series=3, length=110)
        ika = IkaSST()
        batched = ika.scores_batch(stack)
        for row in range(stack.shape[0]):
            np.testing.assert_allclose(
                batched[row], ika.scores_reference(stack[row]), atol=1e-10)


class TestRaggedStacks:
    def test_nan_padding_scores_each_prefix(self):
        lengths = (140, 90, 120, 140)
        rows = [_stack(seed=40 + i, n_series=1, length=n)[0]
                for i, n in enumerate(lengths)]
        width = max(lengths)
        padded = np.full((len(rows), width), np.nan)
        for i, row in enumerate(rows):
            padded[i, :row.size] = row
        ika = IkaSST()
        batched = ika.scores_batch(padded)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(batched[i, :row.size],
                                          ika.scores(row))
            assert not batched[i, row.size:].any()

    def test_explicit_lengths_match_nan_padding(self):
        lengths = (130, 100, 130)
        rows = [_stack(seed=50 + i, n_series=1, length=n)[0]
                for i, n in enumerate(lengths)]
        width = max(lengths)
        nan_padded = np.full((len(rows), width), np.nan)
        zero_padded = np.zeros((len(rows), width))
        for i, row in enumerate(rows):
            nan_padded[i, :row.size] = row
            zero_padded[i, :row.size] = row
        ika = IkaSST()
        np.testing.assert_array_equal(
            ika.scores_batch(zero_padded, lengths=lengths),
            ika.scores_batch(nan_padded))

    def test_all_nan_row_is_too_short(self):
        """An all-NaN row has effective length 0 — rejected like an
        empty series, not silently zero-scored."""
        row = _stack(seed=61, n_series=1, length=120)[0]
        padded = np.vstack([row, np.full(120, np.nan)])
        ika = IkaSST()
        with pytest.raises(InsufficientDataError):
            ika.scores_batch(padded)

    @given(st.integers(0, 2 ** 31), st.integers(3, 12),
           st.sampled_from([ImprovedSSTParams(),
                            ImprovedSSTParams(omega=5, eta=2)]))
    @settings(max_examples=25, deadline=None)
    def test_rows_of_any_length_in_any_order_share_the_blocks(
            self, seed, n_series, params):
        """Every row equals ``scores(row)`` bitwise in both ragged forms,
        and the kernel is entered once per ``_BLOCK_PAIRS // eta``
        windows of the *whole* stack: blocks are filled across rows and
        lengths, not per length group."""
        rng = np.random.default_rng(seed)
        ika = IkaSST(params)
        lengths = rng.integers(params.window_length, 121, size=n_series)
        rows = [rng.normal(size=n) for n in lengths]
        for row in rows[::3]:
            row[row.size // 2:] += 4.0
        width = int(lengths.max())
        nan_padded = np.full((n_series, width), np.nan)
        zero_padded = np.zeros((n_series, width))
        for i, row in enumerate(rows):
            nan_padded[i, :row.size] = row
            zero_padded[i, :row.size] = row
        singles = [ika.scores(row) for row in rows]

        entered = []
        raw_block = ika._raw_block
        ika._raw_block = lambda fut, past: (
            entered.append(len(fut)), raw_block(fut, past))[1]
        windows = int((lengths - params.window_length + 1).sum())
        step = _BLOCK_PAIRS // params.eta
        for stack, given_lengths in ((nan_padded, None),
                                     (zero_padded, lengths)):
            del entered[:]
            batched = ika.scores_batch(stack, lengths=given_lengths)
            assert len(entered) == -(-windows // step)
            assert sum(entered) == windows
            for i, single in enumerate(singles):
                np.testing.assert_array_equal(batched[i, :single.size],
                                              single)
                assert not batched[i, single.size:].any()

    def test_padding_is_never_read(self):
        """With explicit lengths whatever lies beyond a row's length —
        and every slice that would straddle two rows — takes no part:
        a stack padded with 1e300 scores like one padded with zeros."""
        lengths = (60, 34, 90, 35, 34)
        rows = [_stack(seed=70 + i, n_series=1, length=n)[0]
                for i, n in enumerate(lengths)]
        zero_padded = np.zeros((len(rows), 90))
        huge_padded = np.full((len(rows), 90), 1e300)
        for i, row in enumerate(rows):
            zero_padded[i, :row.size] = row
            huge_padded[i, :row.size] = row
        ika = IkaSST()
        expected = ika.scores_batch(zero_padded, lengths=lengths)
        np.testing.assert_array_equal(
            ika.scores_batch(huge_padded, lengths=lengths), expected)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(expected[i, :row.size],
                                          ika.scores(row))

    @pytest.mark.parametrize("n_rows", [1, 2, 14, 41])
    def test_one_window_rows_equal_the_windows_of_a_long_series(self,
                                                                n_rows):
        """The live tick's shape, an ``(R, 34)`` stack with one window a
        row, against the same windows scored inside a 240-bin series."""
        ika = IkaSST()
        span = ika.params.lead
        series = _stack(seed=83, n_series=1, length=240)[0]
        full = ika.scores(series)
        at = np.linspace(span, 240 - span, n_rows).astype(int)
        stack = np.stack([series[t - span:t + span] for t in at])
        assert stack.shape == (n_rows, 34)
        batched = ika.scores_batch(stack, lengths=[34] * n_rows)
        np.testing.assert_array_equal(batched[:, span], full[at])
        assert np.count_nonzero(batched) == np.count_nonzero(full[at])


class TestBlockCap:
    """The kernel walks the flattened (row, t) window axis in blocks of
    ``_BLOCK_PAIRS`` (window, direction) pairs — ``_BLOCK_PAIRS // eta``
    windows; where the boundaries fall must not change a bit, and the
    working set must not grow with the stack height."""

    LENGTH = 100
    BLOCK_WINDOWS = _BLOCK_PAIRS // ImprovedSSTParams().eta

    def _windows(self, n_series, length=LENGTH):
        params = ImprovedSSTParams()
        return n_series * (params.last_index(length) - params.first_index())

    @pytest.mark.parametrize("n_series", [7, 8, 40])
    def test_rows_score_bitwise_across_block_boundaries(self, n_series):
        blocks = -(-self._windows(n_series) // self.BLOCK_WINDOWS)
        assert blocks == {7: 3, 8: 4, 40: 16}[n_series]
        assert self._windows(n_series) % self.BLOCK_WINDOWS  # ragged last
        stack = _stack(seed=31, n_series=n_series, length=self.LENGTH)
        ika = IkaSST()
        batched = ika.scores_batch(stack)
        for row in range(n_series):
            # A lone row fits one block; in the stack its windows
            # straddle whichever boundaries the rows above pushed there.
            np.testing.assert_array_equal(batched[row],
                                          ika.scores(stack[row]))

    def test_rows_score_the_same_in_a_different_height_stack(self):
        stack = _stack(seed=37, n_series=40, length=self.LENGTH)
        ika = IkaSST()
        full = ika.scores_batch(stack)
        # Different heights shift every block boundary to other windows.
        np.testing.assert_array_equal(ika.scores_batch(stack[3:12]),
                                      full[3:12])
        np.testing.assert_array_equal(ika.scores_batch(stack[::3]),
                                      full[::3])

    def test_ragged_rows_share_blocks(self):
        """NaN-padded rows of two lengths, interleaved: one block walk
        covers them all, long and short windows side by side in a block
        (the long rows alone need four blocks, the short ones one)."""
        long_rows = _stack(seed=41, n_series=9, length=self.LENGTH)
        short_rows = _stack(seed=43, n_series=4, length=70)
        assert self._windows(9) > self.BLOCK_WINDOWS > self._windows(4, 70)
        long_at = [0, 2, 4, 6, 8, 9, 10, 11, 12]    # interleave the groups
        short_at = [1, 3, 5, 7]
        padded = np.full((13, self.LENGTH), np.nan)
        padded[long_at] = long_rows
        padded[short_at, :70] = short_rows
        ika = IkaSST()
        batched = ika.scores_batch(padded)
        np.testing.assert_array_equal(batched[long_at],
                                      ika.scores_batch(long_rows))
        for i, row in zip(short_at, short_rows):
            np.testing.assert_array_equal(batched[i, :70], ika.scores(row))
            assert not batched[i, 70:].any()
        for i, row in zip(long_at, long_rows):
            np.testing.assert_array_equal(batched[i], ika.scores(row))

    def test_working_set_does_not_grow_with_stack_height(self):
        """A (64, 240) stack is 13k windows: materialised whole, the
        Hankel stacks, Lanczos bases and eigh inputs peak near 50 MB;
        block by block they stay within a few MB."""
        stack = _stack(seed=47, n_series=64, length=240)
        ika = IkaSST()
        ika.scores_batch(stack[:2])               # warm imports / caches
        tracemalloc.start()
        try:
            ika.scores_batch(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


class TestFusedDirections:
    """``_raw_block`` runs one Lanczos recursion over a direction-major
    ``(eta * B)`` stack.  ``_phi_batched`` takes arbitrary seeds, so the
    per-direction loop it replaced is spelled out here as the oracle."""

    @staticmethod
    def _per_direction(ika, fut, past):
        p = ika.params
        k = min(ika.krylov_k, p.omega)
        lam, vec = np.linalg.eigh(np.einsum("tjw,tjv->twv", fut, fut))
        lam = np.clip(lam, 0.0, None)
        if p.future_directions == "largest":
            lam, vec = lam[:, :-(p.eta + 1):-1], vec[:, :, :-(p.eta + 1):-1]
        else:
            lam, vec = lam[:, :p.eta], vec[:, :, :p.eta]
        phi = np.stack([ika._phi_batched(past, vec[:, :, i], k, p.eta)
                        for i in range(p.eta)], axis=1)
        total = lam.sum(axis=1)
        raw = np.zeros(fut.shape[0])
        ok = total > 0.0
        raw[ok] = np.einsum("ti,ti->t", lam[ok], phi[ok]) / total[ok]
        return raw

    @pytest.mark.parametrize("params", [
        ImprovedSSTParams(),
        ImprovedSSTParams(omega=5, eta=2),
        ImprovedSSTParams(eta=1),
        ImprovedSSTParams(omega=7, eta=4, future_directions="smallest"),
    ])
    @pytest.mark.parametrize("n_windows,draws",
                             [(1, 60), (2, 60), (13, 10), (200, 2)])
    def test_raw_block_equals_phi_batched_per_direction(self, params,
                                                        n_windows, draws):
        # Many draws of the small blocks: a summation-order slip there
        # (one window reshapes to a strided seed view) shows as a 1-ulp
        # difference on only a fraction of inputs.
        rng = np.random.default_rng(71 + n_windows)
        ika = IkaSST(params)
        shape = (n_windows, params.delta, params.omega)
        for draw in range(draws):
            fut, past = rng.normal(size=shape), rng.normal(size=shape)
            if draw == 0:
                fut[0] = 0.0              # a zero-energy future window
            np.testing.assert_array_equal(
                ika._raw_block(fut, past),
                self._per_direction(ika, fut, past))

    def test_one_window_block_scores_like_the_same_window_in_a_stack(self):
        """The live tick's shape: one pending score per detector, so a
        lone detector is a one-window block."""
        ika = IkaSST()
        for seed in range(40):
            stack = _stack(seed=seed, n_series=2, length=34)
            np.testing.assert_array_equal(ika.scores_batch(stack)[0],
                                          ika.scores(stack[0]))


class TestValidation:
    def test_rejects_non_2d(self):
        ika = IkaSST()
        with pytest.raises(ParameterError):
            ika.scores_batch(np.zeros(100))
        with pytest.raises(ParameterError):
            ika.scores_batch(np.zeros((2, 3, 4)))

    def test_rejects_mismatched_lengths(self):
        ika = IkaSST()
        stack = np.zeros((3, 100))
        with pytest.raises(ParameterError):
            ika.scores_batch(stack, lengths=(100, 100))

    def test_rejects_out_of_range_lengths(self):
        ika = IkaSST()
        stack = np.zeros((2, 100))
        with pytest.raises(ParameterError):
            ika.scores_batch(stack, lengths=(100, 101))
        with pytest.raises(ParameterError):
            ika.scores_batch(stack, lengths=(-1, 100))

    def test_too_short_row_raises_like_scores(self):
        ika = IkaSST()
        with pytest.raises(InsufficientDataError):
            ika.scores_batch(np.zeros((2, 10)))
        with pytest.raises(InsufficientDataError):
            ika.scores(np.zeros(10))


class TestWhereMask:
    """``scores_batch(where=m)`` hands the kernel only the window pairs
    ``m`` selects: bitwise the full call there, ``0.0`` everywhere else,
    and every validation of the unmasked call kept."""

    LENGTHS = (240, 70, 151, 34, 240, 99)

    @classmethod
    def _ragged(cls):
        stack = _stack(31, len(cls.LENGTHS), 240)
        for row, length in enumerate(cls.LENGTHS):
            stack[row, length:] = 0.0
        return stack

    @staticmethod
    def _counted(monkeypatch):
        """Windows per ``_raw_block`` call (one ``eigh`` each)."""
        blocks = []
        original = IkaSST._raw_block

        def counted(self, fut, past):
            blocks.append(fut.shape[0])
            return original(self, fut, past)

        monkeypatch.setattr(IkaSST, "_raw_block", counted)
        return blocks

    @pytest.mark.parametrize("density", [0.5, 0.03])
    def test_masked_call_is_the_full_call_where_set(self, density,
                                                    monkeypatch):
        ika, stack = IkaSST(), self._ragged()
        full = ika.scores_batch(stack, lengths=self.LENGTHS)
        mask = np.random.default_rng(5).random(stack.shape) < density
        blocks = self._counted(monkeypatch)
        masked = ika.scores_batch(stack, lengths=self.LENGTHS, where=mask)
        np.testing.assert_array_equal(masked, np.where(mask, full, 0.0))
        # The mask reaches past every row's scoreable range; only the
        # scoreable positions it sets are window pairs.
        scoreable = np.zeros(stack.shape, dtype=bool)
        for row, length in enumerate(self.LENGTHS):
            scoreable[row, 17:length - 16] = True
        assert sum(blocks) == int((mask & scoreable).sum())
        if density == 0.5:                # spans several kernel blocks
            assert sum(blocks) * ika.params.eta > _BLOCK_PAIRS
            assert len(blocks) == 2

    def test_nan_padded_ragged_form(self):
        ika, stack = IkaSST(), self._ragged()
        for row, length in enumerate(self.LENGTHS):
            stack[row, length:] = np.nan
        mask = np.random.default_rng(6).random(stack.shape) < 0.2
        np.testing.assert_array_equal(
            ika.scores_batch(stack, where=mask),
            np.where(mask, ika.scores_batch(stack), 0.0))

    def test_single_position(self, monkeypatch):
        ika, stack = IkaSST(), self._ragged()
        mask = np.zeros(stack.shape, dtype=bool)
        mask[2, 120] = True
        blocks = self._counted(monkeypatch)
        masked = ika.scores_batch(stack, lengths=self.LENGTHS, where=mask)
        assert blocks == [1]
        assert masked[2, 120] == ika.scores(stack[2, :151])[120] > 0.0
        assert np.count_nonzero(masked) == 1

    @pytest.mark.parametrize("edges_only", [False, True])
    def test_empty_selection_never_reaches_the_kernel(self, edges_only,
                                                      monkeypatch):
        """All ``False``, or ``True`` only where no window pair exists
        (the ``span`` leading / trailing positions and the padding)."""
        ika, stack = IkaSST(), self._ragged()
        mask = np.zeros(stack.shape, dtype=bool)
        if edges_only:
            for row, length in enumerate(self.LENGTHS):
                mask[row, :17] = mask[row, length - 16:] = True
        blocks = self._counted(monkeypatch)
        masked = ika.scores_batch(stack, lengths=self.LENGTHS, where=mask)
        assert blocks == [] and not masked.any()
        assert masked.shape == stack.shape

    def test_validation_is_kept(self):
        ika, stack = IkaSST(), self._ragged()
        for bad in (np.ones(240, dtype=bool), np.ones((6, 239), dtype=bool),
                    np.ones((5, 240), dtype=bool)):
            with pytest.raises(ParameterError):
                ika.scores_batch(stack, lengths=self.LENGTHS, where=bad)
        nothing = np.zeros(stack.shape, dtype=bool)
        with pytest.raises(ParameterError):
            ika.scores_batch(stack, lengths=(240,) * 5, where=nothing)
        with pytest.raises(InsufficientDataError):
            ika.scores_batch(np.zeros((2, 33)),
                             where=np.zeros((2, 33), dtype=bool))
