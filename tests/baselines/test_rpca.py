"""Tests for Robust PCA (inexact ALM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rpca import robust_pca
from repro.exceptions import ParameterError


def low_rank_plus_sparse(rng, m=30, n=40, rank=2, n_outliers=20,
                         outlier_scale=10.0):
    u = rng.normal(size=(m, rank))
    v = rng.normal(size=(rank, n))
    low = u @ v
    sparse = np.zeros((m, n))
    idx = rng.choice(m * n, size=n_outliers, replace=False)
    sparse.flat[idx] = outlier_scale * rng.choice([-1.0, 1.0],
                                                  size=n_outliers)
    return low, sparse


class TestRobustPca:
    def test_exact_recovery(self, rng):
        low, sparse = low_rank_plus_sparse(rng)
        result = robust_pca(low + sparse)
        assert result.converged
        np.testing.assert_allclose(result.low_rank, low, atol=1e-3)
        np.testing.assert_allclose(result.sparse, sparse, atol=1e-3)

    def test_decomposition_sums_to_input(self, rng):
        low, sparse = low_rank_plus_sparse(rng)
        d = low + sparse
        result = robust_pca(d)
        np.testing.assert_allclose(result.low_rank + result.sparse, d,
                                   atol=1e-5)

    def test_rank_recovered(self, rng):
        low, sparse = low_rank_plus_sparse(rng, rank=3)
        result = robust_pca(low + sparse)
        s = np.linalg.svd(result.low_rank, compute_uv=False)
        assert np.sum(s > 1e-9 * s[0]) == 3

    def test_pure_low_rank_gives_empty_sparse(self, rng):
        low, _ = low_rank_plus_sparse(rng, n_outliers=0)
        result = robust_pca(low)
        assert np.abs(result.sparse).max() < 1e-4

    def test_zero_matrix(self):
        result = robust_pca(np.zeros((5, 6)))
        assert result.converged
        assert not result.low_rank.any()
        assert np.all(result.sparse == 0.0)

    def test_spike_in_time_series_trajectory_goes_to_sparse(self, rng):
        from repro.core.hankel import hankel_matrix
        x = 10.0 + 0.1 * rng.normal(size=40)
        x[20] += 8.0
        trajectory = hankel_matrix(x, window=8, count=33)
        result = robust_pca(trajectory)
        # The spike's anti-diagonal dominates the sparse component.
        spike_cells = [abs(result.sparse[i, 20 - i]) for i in range(8)]
        assert max(spike_cells) > 1.0

    def test_invalid_inputs(self, rng):
        with pytest.raises(ParameterError):
            robust_pca(np.zeros(5))
        with pytest.raises(ParameterError):
            robust_pca(np.zeros((0, 3)))
        with pytest.raises(ParameterError):
            robust_pca(rng.normal(size=(3, 3)), sparsity=-1.0)
        bad = rng.normal(size=(3, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ParameterError):
            robust_pca(bad)

    def test_nonstrict_returns_partial(self, rng):
        d = rng.normal(size=(20, 20))
        result = robust_pca(d, max_iterations=1)
        assert not result.converged
        assert result.iterations == 1

    def test_higher_sparsity_weight_means_smaller_sparse(self, rng):
        low, sparse = low_rank_plus_sparse(rng)
        d = low + sparse
        loose = robust_pca(d, sparsity=0.05)
        tight = robust_pca(d, sparsity=0.8)
        assert (np.count_nonzero(np.abs(tight.sparse) > 1e-6)
                <= np.count_nonzero(np.abs(loose.sparse) > 1e-6))

    @given(st.integers(0, 2 ** 31), st.integers(5, 15), st.integers(5, 15))
    @settings(max_examples=15, deadline=None)
    def test_reconstruction_property(self, seed, m, n):
        """L + S == D always holds at convergence tolerance."""
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(m, 1))
        v = rng.normal(size=(1, n))
        d = u @ v
        result = robust_pca(d, max_iterations=300)
        residual = np.linalg.norm(d - result.low_rank - result.sparse)
        denominator = np.linalg.norm(d) or 1.0
        assert residual / denominator < 1e-5
