"""Tests for the robust statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.robust import (MAD_TO_SIGMA, mad, median, median_and_mad,
                               robust_zscores, window_pair)
from repro.exceptions import InsufficientDataError, ParameterError

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestMedianAndMad:
    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_mad_of_constant_is_zero(self):
        assert mad([5.0] * 10) == 0.0

    def test_mad_known_value(self):
        # values 1..7: median 4, deviations [3,2,1,0,1,2,3], MAD 2.
        assert mad(list(range(1, 8))) == 2.0

    def test_mad_with_explicit_center(self):
        assert mad([1.0, 2.0, 3.0], center=0.0) == 2.0

    def test_combined_matches_separate(self, rng):
        x = rng.normal(size=101)
        med, scale = median_and_mad(x)
        assert med == median(x)
        assert scale == mad(x)

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            median([])
        with pytest.raises(InsufficientDataError):
            mad([])

    def test_mad_robust_to_outliers(self, rng):
        x = rng.normal(size=200)
        contaminated = x.copy()
        contaminated[:20] += 1e6
        _, clean_scale = median_and_mad(x)
        _, dirty_scale = median_and_mad(contaminated)
        # 10% contamination moves MAD by far less than it moves std.
        assert dirty_scale < 2.0 * clean_scale
        assert contaminated.std() > 100 * x.std()

    def test_mad_to_sigma_consistency(self, rng):
        x = rng.normal(0.0, 3.0, size=200_000)
        _, scale = median_and_mad(x)
        assert abs(MAD_TO_SIGMA * scale - 3.0) < 0.05

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_mad_nonnegative_property(self, values):
        assert mad(values) >= 0.0

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.floats(-100, 100, allow_nan=False),
           st.floats(0.001, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_affine_equivariance_property(self, values, shift, scale):
        """median(a*x + b) == a*median(x) + b, MAD(a*x+b) == a*MAD(x)."""
        x = np.asarray(values)
        med0, mad0 = median_and_mad(x)
        med1, mad1 = median_and_mad(scale * x + shift)
        assert med1 == pytest.approx(scale * med0 + shift, rel=1e-9,
                                     abs=1e-6)
        assert mad1 == pytest.approx(scale * mad0, rel=1e-9, abs=1e-6)


class TestSortedMiddles:
    """``median`` / ``mad`` / ``median_and_mad`` pick the sorted middles
    themselves; what they must return is ``np.median``'s value."""

    SIZES = list(range(1, 61)) + [79, 80, 81, 239, 240, 241, 1440]

    @staticmethod
    def _reference(x):
        med = float(np.median(x))
        return med, float(np.median(np.abs(x - med)))

    @pytest.mark.parametrize("magnitude", [10.0 ** k for k in range(-4, 5)])
    def test_byte_equal_to_np_median(self, magnitude):
        rng = np.random.default_rng(int(np.log10(magnitude)) + 4)
        for n in self.SIZES:
            for draw in range(23):
                x = rng.normal(0.0, magnitude, size=n)
                if draw % 3 == 0:
                    x = np.round(x, 1)              # ties
                if draw % 11 == 0:
                    x[:] = x[0]                     # zero MAD
                got, expected = median_and_mad(x), self._reference(x)
                assert got == expected
                assert (median(x), mad(x), mad(x, 0.5)) == (
                    expected[0], expected[1],
                    float(np.median(np.abs(x - 0.5))))
                # With both zeros in the input the sign of a zero
                # median is the sort's (or the partition's) to choose.
                if not (x == 0.0).any():
                    assert np.array(got).tobytes() == \
                        np.array(expected).tobytes()


class TestRobustZscores:
    def test_centering(self, rng):
        x = rng.normal(10.0, 2.0, size=1001)
        z = robust_zscores(x)
        assert abs(np.median(z)) < 1e-9

    def test_zero_mad_infinite_tail(self):
        x = np.array([1.0] * 9 + [5.0])
        z = robust_zscores(x)
        assert np.all(z[:9] == 0.0)
        assert np.isinf(z[9]) and z[9] > 0

    def test_zero_mad_negative_direction(self):
        x = np.array([1.0] * 9 + [-5.0])
        z = robust_zscores(x)
        assert np.isinf(z[9]) and z[9] < 0


class TestWindowPair:
    def test_shapes_and_contents(self):
        x = np.arange(50.0)
        before, after = window_pair(x, t=20, half_width=5)
        np.testing.assert_array_equal(before, np.arange(15.0, 20.0))
        np.testing.assert_array_equal(after, np.arange(20.0, 25.0))

    def test_boundary_exact_fit(self):
        x = np.arange(10.0)
        before, after = window_pair(x, t=5, half_width=5)
        assert before.size == after.size == 5

    def test_out_of_range_raises(self):
        x = np.arange(10.0)
        with pytest.raises(InsufficientDataError):
            window_pair(x, t=2, half_width=5)
        with pytest.raises(InsufficientDataError):
            window_pair(x, t=8, half_width=5)

    def test_bad_width_raises(self):
        with pytest.raises(ParameterError):
            window_pair(np.arange(10.0), t=5, half_width=0)
