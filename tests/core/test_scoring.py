"""Tests for change-score post-processing and declaration."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.core.robust import median_and_mad
from repro.core.scoring import (ChangeDeclarationPolicy, PERSISTENCE_MINUTES,
                                candidate_mask, classify_change,
                                confirm_candidate, declare_changes,
                                estimate_change_start,
                                robust_normalise, robust_normalise_batch)
from repro.exceptions import InsufficientDataError, ParameterError


class TestRobustNormalise:
    def test_baseline_statistics(self, rng):
        x = rng.normal(50.0, 2.0, size=300)
        z = robust_normalise(x)
        assert abs(np.median(z)) < 0.05
        assert np.std(z) == pytest.approx(1.0, rel=0.15)

    def test_baseline_prefix_only(self, rng):
        x = np.r_[rng.normal(0, 1, 100), rng.normal(100, 1, 100)]
        z = robust_normalise(x, baseline=100)
        # Post-change values measured in baseline sigmas.
        assert np.median(z[100:]) == pytest.approx(100.0, rel=0.1)

    def test_constant_series_safe(self):
        z = robust_normalise(np.full(50, 3.0))
        assert np.all(z == 0.0)

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            robust_normalise([])

    def test_bad_baseline_raises(self, rng):
        with pytest.raises(ParameterError):
            robust_normalise(rng.normal(size=10), baseline=11)

    @given(st.integers(0, 2 ** 31), st.floats(0.1, 1e4),
           st.floats(-1e4, 1e4))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_property(self, seed, scale, shift):
        """Normalisation removes affine transformations of the input."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=100)
        z1 = robust_normalise(x)
        z2 = robust_normalise(scale * x + shift)
        np.testing.assert_allclose(z1, z2, atol=1e-6)


class TestEstimateChangeStart:
    def test_finds_step_start(self, rng):
        x = 0.1 * rng.normal(size=200)
        x[120:] += 5.0
        start = estimate_change_start(x, detected_at=140, baseline=120)
        assert 118 <= start <= 122

    def test_no_deviation_returns_detection(self, rng):
        x = 0.1 * rng.normal(size=100)
        assert estimate_change_start(x, detected_at=50) == 50

    def test_out_of_range_raises(self, rng):
        with pytest.raises(ParameterError):
            estimate_change_start(rng.normal(size=10), detected_at=10)


class TestClassifyChange:
    def test_step_classified_as_level_shift(self, rng):
        x = 0.05 * rng.normal(size=100)
        x[50:] += 3.0
        assert classify_change(x, start=50, detected_at=60) == "level_shift"

    def test_gradual_ramp_classified_as_ramp(self, rng):
        x = 0.05 * rng.normal(size=120)
        x[40:100] += np.linspace(0, 3.0, 60)
        x[100:] += 3.0
        assert classify_change(x, start=45, detected_at=85) == "ramp"

    def test_tiny_segment_defaults_to_level_shift(self):
        x = np.array([0.0, 5.0])
        assert classify_change(x, 1, 1, context=0) == "level_shift"


class TestChangeDeclarationPolicy:
    def test_defaults(self):
        p = ChangeDeclarationPolicy()
        assert p.persistence == PERSISTENCE_MINUTES == 7

    @pytest.mark.parametrize("kwargs", [
        dict(score_threshold=0.0), dict(persistence=0),
        dict(deviation_sigmas=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            ChangeDeclarationPolicy(**kwargs)


class TestDeclareChanges:
    def _scores_for(self, x):
        from repro.core.ika import IkaSST
        return IkaSST().scores(robust_normalise(x, baseline=100))

    def test_declares_persistent_step(self, step_series):
        xs = robust_normalise(step_series, baseline=100)
        changes = declare_changes(xs, self._scores_for(step_series))
        assert len(changes) >= 1
        change = changes[0]
        assert 95 <= change.start_index <= 108
        assert change.direction == 1
        assert change.index >= change.start_index

    def test_rejects_one_off_spike(self, rng):
        x = 10.0 + 0.5 * rng.normal(size=200)
        x[100:103] += 6.0          # 3-minute excursion < 7-minute rule
        xs = robust_normalise(x, baseline=100)
        changes = declare_changes(xs, self._scores_for(x))
        assert changes == []

    def test_accepts_just_long_enough_excursion(self, rng):
        x = 10.0 + 0.3 * rng.normal(size=200)
        x[100:100 + PERSISTENCE_MINUTES + 2] += 6.0
        xs = robust_normalise(x, baseline=100)
        changes = declare_changes(xs, self._scores_for(x))
        assert len(changes) >= 1

    def test_no_changes_on_noise(self, noise_series):
        xs = robust_normalise(noise_series, baseline=100)
        assert declare_changes(xs, self._scores_for(noise_series)) == []

    def test_detects_downward_change(self, rng):
        x = 10.0 + 0.5 * rng.normal(size=200)
        x[100:] -= 3.0
        xs = robust_normalise(x, baseline=100)
        changes = declare_changes(xs, self._scores_for(x))
        assert changes and changes[0].direction == -1

    def test_first_only_stops_early(self, rng):
        x = 10.0 + 0.3 * rng.normal(size=300)
        x[100:] += 4.0
        x[200:] += 4.0
        xs = robust_normalise(x, baseline=100)
        scores = self._scores_for(x)
        all_changes = declare_changes(xs, scores)
        first = declare_changes(xs, scores, first_only=True)
        assert len(first) == 1
        assert len(all_changes) >= len(first)

    def test_lookahead_shifts_declaration_index(self, rng):
        x = 10.0 + 0.3 * rng.normal(size=200)
        x[100:] += 4.0
        xs = robust_normalise(x, baseline=100)
        scores = self._scores_for(x)
        without = declare_changes(xs, scores)
        with_la = declare_changes(xs, scores, lookahead=16)
        assert with_la[0].index >= without[0].index
        # Same underlying change.
        assert abs(with_la[0].start_index - without[0].start_index) <= 2

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ParameterError):
            declare_changes(rng.normal(size=50), rng.normal(size=40))

    def test_negative_lookahead_raises(self, rng):
        x = rng.normal(size=50)
        with pytest.raises(ParameterError):
            declare_changes(x, np.zeros(50), lookahead=-1)

    def test_delay_floor_is_persistence(self, rng):
        """A declared change is never faster than the persistence rule."""
        x = 10.0 + 0.1 * rng.normal(size=200)
        x[100:] += 8.0
        xs = robust_normalise(x, baseline=100)
        changes = declare_changes(xs, self._scores_for(x))
        assert changes
        change = changes[0]
        assert change.index - change.start_index >= 0
        # Confirmation needs at least `persistence` bins from its
        # candidate; candidates cannot precede the start by much.
        assert change.index >= change.start_index + 3


def _reference_declare(x, s, policy, first_only=False, lookahead=0):
    """The declaration scan with :func:`confirm_candidate` run per armed
    index — the rule ``declare_changes`` reads off its gating table."""
    changes, resume = [], 0
    for t in np.flatnonzero(s > policy.score_threshold):
        if t < resume:
            continue
        declared = confirm_candidate(x, s, int(t), policy, lookahead)
        if declared is None:
            continue
        changes.append(declared)
        if first_only:
            break
        resume = declared.index + 1
    return changes


class TestGatingTable:
    @given(st.integers(0, 2 ** 31), st.integers(1, 5), st.integers(1, 9),
           st.sampled_from([64, 1 << 16]))
    @settings(max_examples=40, deadline=None)
    def test_every_row_equals_the_per_candidate_statistics(
            self, seed, n_series, persistence, block_cells):
        """Bitwise, over ragged lengths, repeated rows, ``c = 0``,
        windows that do not fit and across table block boundaries."""
        rng = np.random.default_rng(seed)
        series = [rng.normal(size=rng.integers(persistence, 60)).round(1)
                  for _ in range(n_series)]           # rounding makes ties
        candidates = [np.sort(rng.integers(0, x.size,
                                           size=rng.integers(0, 12)))
                      for x in series]                # repeats allowed
        candidates[0] = np.append(0, candidates[0])
        policy = ChangeDeclarationPolicy(persistence=persistence)
        with mock.patch.object(scoring, "_TABLE_BLOCK_CELLS", block_cells):
            meds, scales, window_meds, finite = scoring._gating_table(
                series, candidates, policy)
        assert finite.all()
        pairs = [(x, c) for x, row in zip(series, candidates) for c in row]
        assert len(pairs) == meds.size == scales.size == window_meds.size
        for j, (x, c) in enumerate(pairs):
            assert (meds[j], scales[j]) == median_and_mad(x[:max(1, c)])
            if c + persistence <= x.size:
                assert window_meds[j] == np.median(x[c:c + persistence])
            else:
                assert np.isnan(window_meds[j])

    def test_one_row_table_is_its_slice_of_a_stacked_table(self, rng):
        x, other = rng.normal(size=80), rng.normal(size=30)
        candidates = np.array([0, 3, 40, 77])
        policy = ChangeDeclarationPolicy()
        for single, stacked in zip(
                scoring._gating_table([x], [candidates], policy)[:3],
                scoring._gating_table([other, x, other],
                                      [np.array([5]), candidates,
                                       np.empty(0, np.intp)], policy)):
            np.testing.assert_array_equal(single, stacked[1:])

    def test_non_finite_rows_are_flagged_not_tabled(self, rng):
        """NaN padding cannot encode a NaN sample: the row is reported
        and its directions withheld, the other rows are unaffected."""
        clean, dirty = rng.normal(size=40), rng.normal(size=50)
        dirty[45] = np.inf
        candidates = [np.array([20, 30]), np.array([10])]
        policy = ChangeDeclarationPolicy()
        assert scoring._gating_table([clean, dirty], candidates,
                                     policy)[3].tolist() == [True, False]
        both = scoring._confirmed_directions([clean, dirty], candidates,
                                             policy)
        assert both[1] is None
        np.testing.assert_array_equal(both[0], scoring._confirmed_directions(
            [clean], candidates[:1], policy)[0])

    def test_no_candidates(self):
        table = scoring._gating_table([np.zeros(20)], [np.empty(0, np.intp)],
                                      ChangeDeclarationPolicy())
        assert [part.size for part in table] == [0, 0, 0, 1]
        assert [row.tolist() for row in scoring._confirmed_directions(
            [np.zeros(20)], [np.empty(0, np.intp)],
            ChangeDeclarationPolicy())] == [[]]


class TestDeclareFromTable:
    """``declare_changes`` reads one gating table; ``confirm_candidate``
    run candidate by candidate is the rule it must reproduce."""

    @staticmethod
    def _case(seed, length=260):
        from repro.core.ika import IkaSST
        rng = np.random.default_rng(seed)
        x = 10.0 + 0.4 * rng.normal(size=length)
        for at in rng.integers(60, length - 20, size=seed % 3):
            x[at:] += rng.choice([-4.0, 3.0, 5.0])
        if seed % 2:
            at = rng.integers(60, length - 20)
            x[at:at + 3] += 7.0                        # one-off spike
        xs = robust_normalise(x, baseline=50)
        return xs, IkaSST().scores(xs)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("first_only,lookahead",
                             [(False, 0), (False, 16), (True, 16)])
    def test_equals_per_candidate_scan(self, seed, first_only, lookahead):
        xs, scores = self._case(seed)
        policy = ChangeDeclarationPolicy()
        assert declare_changes(xs, scores, policy, first_only, lookahead) \
            == _reference_declare(xs, scores, policy, first_only, lookahead)

    def test_stack_rows_equal_single_rows(self):
        """One table for the stack — rows without any armed candidate in
        between must not shift their neighbours' slices."""
        cases = [self._case(seed) for seed in (2, 5)]
        quiet = np.zeros(260)
        stack = np.vstack([cases[0][0], quiet, cases[1][0], quiet])
        scores = np.vstack([cases[0][1], quiet, cases[1][1], quiet])
        declared = declare_changes(stack, scores, lookahead=16)
        assert declared == [declare_changes(x, s, lookahead=16)
                            for x, s in zip(stack, scores)]
        assert declared[0] and declared[2]
        assert declared[1] == declared[3] == []

    def test_stack_rejects_bad_input(self, rng):
        x = rng.normal(size=(2, 50))
        with pytest.raises(ParameterError):
            declare_changes(x, np.zeros((2, 40)))
        with pytest.raises(ParameterError):
            declare_changes(x, np.zeros(50))
        with pytest.raises(ParameterError):
            declare_changes(x[None], np.zeros((1, 2, 50)))
        bad = x.copy()
        bad[1, 7] = np.nan
        with pytest.raises(ParameterError):
            declare_changes(bad, np.zeros((2, 50)))


class TestRobustNormaliseBatch:
    def test_rows_match_per_series_bitwise(self, rng):
        stack = rng.normal(50.0, 2.0, size=(5, 200))
        batched = robust_normalise_batch(stack)
        for row in range(stack.shape[0]):
            np.testing.assert_array_equal(batched[row],
                                          robust_normalise(stack[row]))

    def test_scalar_and_per_row_baselines(self, rng):
        stack = rng.normal(size=(4, 150))
        scalar = robust_normalise_batch(stack, baselines=80)
        per_row = robust_normalise_batch(stack, baselines=[80, 60, 80, 100])
        for row in range(4):
            np.testing.assert_array_equal(
                scalar[row], robust_normalise(stack[row], baseline=80))
        for row, baseline in enumerate([80, 60, 80, 100]):
            np.testing.assert_array_equal(
                per_row[row],
                robust_normalise(stack[row], baseline=baseline))

    def test_stats_override_per_row(self, rng):
        stack = rng.normal(size=(3, 120))
        stats = [None, (0.5, 2.0), None]
        batched = robust_normalise_batch(stack, baselines=60, stats=stats)
        np.testing.assert_array_equal(
            batched[0], robust_normalise(stack[0], baseline=60))
        np.testing.assert_array_equal(
            batched[1],
            robust_normalise(stack[1], baseline=60, stats=(0.5, 2.0)))

    def test_rejects_non_2d_and_bad_baselines(self, rng):
        with pytest.raises(ParameterError):
            robust_normalise_batch(rng.normal(size=50))
        stack = rng.normal(size=(2, 50))
        with pytest.raises(ParameterError):
            robust_normalise_batch(stack, baselines=[10])
        with pytest.raises(ParameterError):
            robust_normalise_batch(stack, baselines=[10, 51])
        with pytest.raises(ParameterError):
            robust_normalise_batch(stack, baselines=0)


class TestCandidateMask:
    def test_matches_threshold_scan(self, rng):
        scores = rng.uniform(0.0, 2.0, size=100)
        policy = ChangeDeclarationPolicy()
        mask = candidate_mask(scores, policy)
        np.testing.assert_array_equal(
            mask, scores > policy.score_threshold)

    def test_accepts_2d_stack(self, rng):
        scores = rng.uniform(0.0, 2.0, size=(3, 80))
        mask = candidate_mask(scores)
        assert mask.shape == scores.shape
        policy = ChangeDeclarationPolicy()
        for row in range(3):
            np.testing.assert_array_equal(
                mask[row], candidate_mask(scores[row], policy))
