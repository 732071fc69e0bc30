"""Tests for Hankel matrices and the implicit operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hankel import (HankelOperator, diagonal_average,
                               future_matrix, hankel_matrix, past_matrix)
from repro.exceptions import InsufficientDataError, ParameterError


class TestHankelMatrix:
    def test_columns_are_shifted_windows(self):
        x = np.arange(10.0)
        m = hankel_matrix(x, window=3, count=4)
        assert m.shape == (3, 4)
        np.testing.assert_array_equal(m[:, 0], [0, 1, 2])
        np.testing.assert_array_equal(m[:, 3], [3, 4, 5])

    def test_start_offset(self):
        x = np.arange(10.0)
        m = hankel_matrix(x, window=2, count=2, start=5)
        np.testing.assert_array_equal(m[:, 0], [5, 6])
        np.testing.assert_array_equal(m[:, 1], [6, 7])

    def test_antidiagonals_are_constant(self):
        x = np.arange(20.0)
        m = hankel_matrix(x, window=4, count=5)
        for i in range(4):
            for j in range(5):
                assert m[i, j] == x[i + j]

    def test_too_short_series_raises(self):
        with pytest.raises(InsufficientDataError):
            hankel_matrix(np.arange(5.0), window=4, count=4)

    def test_invalid_window_raises(self):
        with pytest.raises(ParameterError):
            hankel_matrix(np.arange(10.0), window=1, count=2)

    def test_invalid_count_raises(self):
        with pytest.raises(ParameterError):
            hankel_matrix(np.arange(10.0), window=3, count=0)

    def test_negative_start_raises(self):
        with pytest.raises(ParameterError):
            hankel_matrix(np.arange(10.0), window=3, count=2, start=-1)

    def test_result_is_a_copy(self):
        x = np.arange(10.0)
        m = hankel_matrix(x, window=3, count=3)
        m[0, 0] = 99.0
        assert x[0] == 0.0

    def test_nan_input_rejected(self):
        x = np.arange(10.0)
        x[3] = np.nan
        with pytest.raises(ParameterError):
            hankel_matrix(x, window=3, count=3)


class TestPastFutureMatrices:
    def test_past_latest_sample_is_t_minus_1(self):
        x = np.arange(40.0)
        b = past_matrix(x, t=20, window=5, count=6)
        # Last column is q(t-1): ends at x[19].
        assert b[-1, -1] == 19.0

    def test_past_needs_enough_lead(self):
        with pytest.raises(InsufficientDataError):
            past_matrix(np.arange(40.0), t=5, window=5, count=6)

    def test_future_first_sample_is_t(self):
        x = np.arange(40.0)
        a = future_matrix(x, t=20, window=5, count=6)
        assert a[0, 0] == 20.0

    def test_future_with_lag(self):
        x = np.arange(40.0)
        a = future_matrix(x, t=20, window=5, count=4, lag=3)
        assert a[0, 0] == 23.0

    def test_future_negative_lag_rejected(self):
        with pytest.raises(ParameterError):
            future_matrix(np.arange(40.0), t=20, window=5, count=4, lag=-1)

    def test_min_series_length_is_tight(self):
        t, w, c = 20, 5, 6
        n = t + w + c - 1          # the future windows end at t + w + c - 2
        future_matrix(np.arange(float(n)), t=t, window=w, count=c)
        with pytest.raises(InsufficientDataError):
            future_matrix(np.arange(float(n - 1)), t=t, window=w, count=c)


class TestDiagonalAverage:
    def test_roundtrip_on_true_hankel(self):
        x = np.arange(12.0)
        m = hankel_matrix(x, window=4, count=6)
        np.testing.assert_allclose(diagonal_average(m), x[:9])

    def test_shape(self):
        m = np.ones((3, 5))
        assert diagonal_average(m).shape == (7,)

    def test_single_column(self):
        m = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(diagonal_average(m), [1.0, 2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            diagonal_average(np.empty((0, 0)))

    @given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, window, count, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=window + count - 1)
        m = hankel_matrix(x, window=window, count=count)
        np.testing.assert_allclose(diagonal_average(m), x, atol=1e-12)


class TestHankelOperator:
    def test_matvec_matches_dense(self, rng):
        x = rng.normal(size=60)
        op = HankelOperator(x, window=7, count=9, start=3)
        b = hankel_matrix(x, window=7, count=9, start=3)
        v = rng.normal(size=7)
        np.testing.assert_allclose(op.matvec(v), b @ (b.T @ v), atol=1e-10)

    def test_correlate_is_bt_v(self, rng):
        x = rng.normal(size=40)
        op = HankelOperator(x, window=5, count=6)
        b = hankel_matrix(x, window=5, count=6)
        v = rng.normal(size=5)
        np.testing.assert_allclose(op.correlate(v), b.T @ v, atol=1e-12)

    def test_expand_is_b_u(self, rng):
        x = rng.normal(size=40)
        op = HankelOperator(x, window=5, count=6)
        b = hankel_matrix(x, window=5, count=6)
        u = rng.normal(size=6)
        np.testing.assert_allclose(op.expand(u), b @ u, atol=1e-12)

    def test_past_constructor_matches_past_matrix(self, rng):
        x = rng.normal(size=80)
        op = HankelOperator.past(x, t=40, window=9, count=9)
        b = past_matrix(x, 40, 9, 9)
        v = rng.normal(size=9)
        np.testing.assert_allclose(op.matvec(v), b @ (b.T @ v), atol=1e-10)

    def test_past_needs_lead(self, rng):
        with pytest.raises(InsufficientDataError):
            HankelOperator.past(rng.normal(size=80), t=5, window=9, count=9)

    def test_wrong_vector_length_rejected(self, rng):
        op = HankelOperator(rng.normal(size=40), window=5, count=6)
        with pytest.raises(ParameterError):
            op.correlate(np.ones(6))
        with pytest.raises(ParameterError):
            op.expand(np.ones(5))

    def test_operator_is_symmetric_psd(self, rng):
        x = rng.normal(size=50)
        op = HankelOperator(x, window=6, count=8)
        b = hankel_matrix(x, window=6, count=8)
        dense_c = b @ b.T
        # Symmetry via random vectors: <u, Cv> == <Cu, v>.
        for _ in range(5):
            u, v = rng.normal(size=6), rng.normal(size=6)
            assert abs(u @ op.matvec(v) - op.matvec(u) @ v) < 1e-9
            assert v @ op.matvec(v) >= -1e-9
        np.testing.assert_allclose(
            np.column_stack([op.matvec(e) for e in np.eye(6)]), dense_c,
            atol=1e-10,
        )

    def test_slice_is_independent_copy(self):
        x = np.arange(20.0)
        op = HankelOperator(x, window=3, count=4)
        x[0] = 999.0
        assert op.correlate(np.array([1.0, 0.0, 0.0]))[0] == 0.0

    @given(st.integers(2, 10), st.integers(1, 10), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_implicit_equals_explicit_property(self, window, count, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=window + count + 5)
        op = HankelOperator(x, window=window, count=count)
        b = hankel_matrix(x, window=window, count=count)
        v = rng.normal(size=window)
        np.testing.assert_allclose(op.matvec(v), b @ (b.T @ v),
                                   atol=1e-8, rtol=1e-8)
