"""Cross-cutting property-based tests on the library's core invariants.

These complement the per-module tests with properties that hold across
randomly generated inputs (hypothesis): invariances of the detection
transform, equivalence of the streaming and offline paths, and algebraic
identities of the evaluation machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.funnel import Funnel
from repro.core.ika import IkaSST
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import robust_normalise
from repro.eval.confusion import ConfusionMatrix
from repro.live import IncrementalDetector
from repro.telemetry.timeseries import TimeSeries

seeds = st.integers(0, 2 ** 31)


class TestDetectionInvariances:
    @given(seeds, st.floats(0.5, 50.0), st.floats(-100.0, 100.0))
    @settings(max_examples=15, deadline=None)
    def test_scores_affine_invariant(self, seed, scale, shift):
        """Scoring a*x + b after normalisation equals scoring x:
        FUNNEL's verdicts cannot depend on the KPI's units."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=120)
        x[60:] += 4.0
        ika = IkaSST()
        s1 = ika.scores(robust_normalise(x))
        s2 = ika.scores(robust_normalise(scale * x + shift))
        np.testing.assert_allclose(s1, s2, atol=1e-5)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_detection_mirror_symmetry(self, seed):
        """Negating the series flips the detected direction only."""
        rng = np.random.default_rng(seed)
        x = 10.0 + rng.normal(0, 0.5, size=200)
        x[120:] += 4.0
        up = Funnel().detect(x, change_index=120)
        down = Funnel().detect(-x, change_index=120)
        assert len(up) == len(down)
        for a, b in zip(up, down):
            assert a.index == b.index
            assert a.start_index == b.start_index
            assert a.direction == -b.direction

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_streaming_equals_offline(self, seed):
        """The incremental detector's declaration is the first offline one."""
        rng = np.random.default_rng(seed)
        x = 10.0 + rng.normal(0, 0.5, size=220)
        magnitude = float(rng.uniform(3.5, 8.0))
        x[120:] += magnitude
        offline = Funnel().detect(x, change_index=120)
        online = IncrementalDetector(change_index=120).extend(x)
        assert bool(offline) == (online is not None)
        if offline:
            assert online.index == offline[0].index

    @given(seeds, st.integers(1, 40))
    @settings(max_examples=10, deadline=None)
    def test_prefix_padding_does_not_undetect(self, seed, pad):
        """Extending the quiet baseline never removes a detection."""
        rng = np.random.default_rng(seed)
        x = 10.0 + rng.normal(0, 0.5, size=200)
        x[120:] += 5.0
        base = Funnel().detect(x, change_index=120)
        padded = np.r_[10.0 + rng.normal(0, 0.5, size=pad), x]
        shifted = Funnel().detect(padded, change_index=120 + pad)
        assert bool(base) == bool(shifted)


class TestBatchedScoringParity:
    """``scores_batch`` is the deployed cross-series path; the per-point
    ``scores_reference`` is the specification.  Pin them element-wise
    over random stacks, parameters, and NaN-padded ragged layouts."""

    @given(seeds, st.integers(1, 5), st.integers(80, 160),
           st.sampled_from([(5, 2), (7, 3), (9, 3), (9, 5)]))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_reference(self, seed, n_series, length, shape):
        omega, eta = shape
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(n_series, length))
        stack[:, length // 2:] += rng.uniform(0.0, 5.0, size=(n_series, 1))
        ika = IkaSST(ImprovedSSTParams(omega=omega, eta=eta))
        batched = ika.scores_batch(stack)
        for row in range(n_series):
            np.testing.assert_allclose(
                batched[row], ika.scores_reference(stack[row]), atol=1e-10)
            np.testing.assert_array_equal(batched[row],
                                          ika.scores(stack[row]))

    @given(seeds, st.lists(st.integers(70, 150), min_size=2, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_ragged_nan_stack_matches_reference(self, seed, lengths):
        rng = np.random.default_rng(seed)
        width = max(lengths)
        padded = np.full((len(lengths), width), np.nan)
        rows = []
        for i, n in enumerate(lengths):
            row = rng.normal(size=n)
            row[n // 2:] += 4.0
            rows.append(row)
            padded[i, :n] = row
        ika = IkaSST()
        batched = ika.scores_batch(padded)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(
                batched[i, :row.size], ika.scores_reference(row),
                atol=1e-10)
            assert not batched[i, row.size:].any()


class TestEvaluationAlgebra:
    matrices = st.builds(
        ConfusionMatrix,
        tp=st.integers(0, 500), tn=st.integers(0, 500),
        fp=st.integers(0, 500), fn=st.integers(0, 500),
    )

    @given(matrices, matrices)
    @settings(max_examples=50, deadline=None)
    def test_addition_commutes(self, a, b):
        left = a + b
        right = b + a
        assert (left.tp, left.tn, left.fp, left.fn) == \
            (right.tp, right.tn, right.fp, right.fn)

    @given(matrices, st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_scaling_preserves_rates(self, m, factor):
        scaled = m.scaled(factor)
        for attr in ("precision", "recall", "tnr", "accuracy"):
            original = getattr(m, attr)
            after = getattr(scaled, attr)
            if np.isnan(original):
                assert np.isnan(after)
            else:
                assert after == pytest.approx(original)

    @given(matrices)
    @settings(max_examples=50, deadline=None)
    def test_accuracy_between_recall_and_tnr(self, m):
        """Accuracy is a weighted mean of recall and TNR."""
        if m.positives == 0 or m.negatives == 0:
            return
        lo = min(m.recall, m.tnr)
        hi = max(m.recall, m.tnr)
        assert lo - 1e-12 <= m.accuracy <= hi + 1e-12


class TestTimeSeriesAlgebra:
    @given(seeds, st.integers(1, 5), st.integers(10, 60))
    @settings(max_examples=30, deadline=None)
    def test_resample_preserves_mean(self, seed, factor, n):
        rng = np.random.default_rng(seed)
        usable = (n // factor) * factor
        if usable == 0:
            return
        ts = TimeSeries(0, 60, rng.normal(size=n))
        coarse = ts.resample(factor)
        assert coarse.values.mean() == pytest.approx(
            ts.values[:usable].mean())

    @given(seeds, st.integers(0, 20), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_slice_is_subset(self, seed, lo_bins, width):
        rng = np.random.default_rng(seed)
        ts = TimeSeries(0, 60, rng.normal(size=50))
        lo = lo_bins * 60
        hi = lo + width * 60
        sub = ts.slice_time(lo, hi)
        for i, value in enumerate(sub.values):
            assert value == ts.values[lo_bins + i]
