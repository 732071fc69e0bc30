"""Tests for the Lanczos tridiagonalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hankel import HankelOperator, past_matrix
from repro.core.lanczos import krylov_dimension, lanczos
from repro.exceptions import ParameterError


def random_psd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T


def product(c):
    """The matvec of a dense operator."""
    return lambda v: c @ v


class TestLanczos:
    def test_basis_is_orthonormal(self, rng):
        c = random_psd(rng, 12)
        result = lanczos(product(c), rng.normal(size=12), k=6)
        q = result.basis
        np.testing.assert_allclose(q.T @ q, np.eye(result.k), atol=1e-8)

    def test_tridiagonal_is_projection(self, rng):
        """T_k == Q^T C Q — the defining Lanczos identity."""
        c = random_psd(rng, 10)
        result = lanczos(product(c), rng.normal(size=10), k=5)
        q = result.basis
        np.testing.assert_allclose(result.tridiagonal(), q.T @ c @ q,
                                   atol=1e-7)

    def test_full_dimension_recovers_spectrum(self, rng):
        c = random_psd(rng, 7)
        result = lanczos(product(c), rng.normal(size=7), k=7)
        ritz = np.linalg.eigvalsh(result.tridiagonal())
        true = np.linalg.eigvalsh(c)
        np.testing.assert_allclose(np.sort(ritz), np.sort(true), atol=1e-6)

    def test_extreme_ritz_values_converge_fast(self, rng):
        c = random_psd(rng, 30)
        result = lanczos(product(c), rng.normal(size=30), k=10)
        ritz_max = np.linalg.eigvalsh(result.tridiagonal()).max()
        true_max = np.linalg.eigvalsh(c).max()
        assert ritz_max <= true_max + 1e-8
        assert ritz_max > 0.9 * true_max

    def test_seed_is_first_basis_vector(self, rng):
        c = random_psd(rng, 8)
        seed = rng.normal(size=8)
        result = lanczos(product(c), seed, k=4)
        np.testing.assert_allclose(result.basis[:, 0],
                                   seed / np.linalg.norm(seed), atol=1e-12)

    def test_breakdown_on_invariant_subspace(self):
        # Seeding with an exact eigenvector makes the Krylov space
        # 1-dimensional: the recursion must stop after one step.
        c = np.diag([4.0, 3.0, 2.0, 1.0])
        seed = np.array([1.0, 0.0, 0.0, 0.0])
        result = lanczos(product(c), seed, k=4)
        assert result.breakdown
        assert result.k == 1
        assert result.alpha[0] == pytest.approx(4.0)

    def test_works_with_hankel_operator(self, rng):
        x = rng.normal(size=60)
        op = HankelOperator.past(x, t=30, window=9, count=9)
        b = past_matrix(x, 30, 9, 9)
        seed = rng.normal(size=9)
        r_implicit = lanczos(op.matvec, seed, k=5)
        r_dense = lanczos(product(b @ b.T), seed, k=5)
        np.testing.assert_allclose(r_implicit.alpha, r_dense.alpha,
                                   atol=1e-8)
        np.testing.assert_allclose(r_implicit.beta, r_dense.beta, atol=1e-8)

    def test_zero_seed_rejected(self, rng):
        with pytest.raises(ParameterError):
            lanczos(product(random_psd(rng, 5)), np.zeros(5), k=3)

    def test_k_bounds(self, rng):
        c = random_psd(rng, 5)
        seed = rng.normal(size=5)
        with pytest.raises(ParameterError):
            lanczos(product(c), seed, k=0)
        with pytest.raises(ParameterError):
            lanczos(product(c), seed, k=6)

    def test_non_square_operator_rejected(self, rng):
        with pytest.raises(ParameterError):
            lanczos(product(rng.normal(size=(5, 4))), rng.normal(size=4), k=2)

    @given(st.integers(4, 12), st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_ritz_values_interlace_property(self, n, seed_int):
        """All Ritz values lie within the spectrum's range (PSD case)."""
        rng = np.random.default_rng(seed_int)
        c = random_psd(rng, n)
        k = max(1, n // 2)
        result = lanczos(product(c), rng.normal(size=n), k=k)
        ritz = np.linalg.eigvalsh(result.tridiagonal())
        true = np.linalg.eigvalsh(c)
        assert ritz.min() >= true.min() - 1e-7
        assert ritz.max() <= true.max() + 1e-7


class TestKrylovDimension:
    def test_paper_eq14(self):
        # k = 2*eta for even eta, 2*eta - 1 for odd eta.
        assert krylov_dimension(1) == 1
        assert krylov_dimension(2) == 4
        assert krylov_dimension(3) == 5
        assert krylov_dimension(4) == 8

    def test_invalid(self):
        with pytest.raises(ParameterError):
            krylov_dimension(0)
