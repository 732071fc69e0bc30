"""Lanczos tridiagonalisation for the IKA fast path (paper section 3.2.3).

``lanczos(matvec, seed, k)`` reduces a symmetric positive semi-definite
operator ``C``, given as its product ``v -> C v``, to a ``k x k`` symmetric
tridiagonal matrix ``T_k`` whose eigenpairs approximate those of ``C``
restricted to the Krylov subspace ``span{seed, C seed, ..., C^{k-1} seed}``.
The paper runs ``Lanczos(C, beta_i(t), k)`` with ``C = B(t) B(t)^T``
applied *implicitly* (see :meth:`repro.core.hankel.HankelOperator.matvec`),
which is the entire source of FUNNEL's speed advantage over exact-SVD SST.

The implementation uses full reorthogonalisation: ``k`` is tiny (``2*eta``
or ``2*eta - 1``, i.e. 5 or 6 in practice) so the O(k^2 w) cost is
negligible and the numerical robustness is worth it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import ParameterError

__all__ = ["LanczosResult", "lanczos", "krylov_dimension"]

#: Relative size under which a Lanczos residual counts as zero.
BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class LanczosResult:
    """Output of :func:`lanczos`.

    Attributes:
        alpha: diagonal of ``T_k`` (length ``k``).
        beta: subdiagonal of ``T_k`` (length ``k - 1``).
        basis: the ``n x k`` orthonormal Lanczos basis ``Q``.
        breakdown: True if the recursion terminated early because the
            Krylov subspace became invariant; ``alpha``/``beta``/``basis``
            are truncated to the achieved dimension.
    """

    alpha: np.ndarray
    beta: np.ndarray
    basis: np.ndarray
    breakdown: bool

    @property
    def k(self) -> int:
        return self.alpha.size

    def tridiagonal(self) -> np.ndarray:
        """``T_k`` as a dense ``k x k`` array."""
        t = np.diag(self.alpha)
        idx = np.arange(self.k - 1)
        t[idx, idx + 1] = self.beta
        t[idx + 1, idx] = self.beta
        return t


def lanczos(matvec: Callable[[np.ndarray], np.ndarray], seed: np.ndarray,
            k: int) -> LanczosResult:
    """Run ``k`` Lanczos steps of an operator from ``seed``.

    Args:
        matvec: the product ``v -> C v`` of a symmetric PSD operator ``C``.
        seed: the starting vector (the paper uses the future direction
            ``beta_i(t)``); it is normalised internally.
        k: the Krylov dimension (see :func:`krylov_dimension`).

    The recursion stops early when a residual falls to ``BREAKDOWN_TOL``
    of the step's scale: it is then considered zero.

    Raises:
        ParameterError: for an invalid ``k``, a zero seed, or a seed/operator
            dimension mismatch.
    """
    q = np.asarray(seed, dtype=np.float64).ravel()
    n = q.size
    if k < 1:
        raise ParameterError("Krylov dimension k must be >= 1, got %d" % k)
    if k > n:
        raise ParameterError(
            "Krylov dimension k=%d exceeds operator dimension %d" % (k, n)
        )
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise ParameterError("Lanczos seed vector is zero")
    q = q / norm

    basis = np.empty((n, k), dtype=np.float64)
    alpha = np.empty(k, dtype=np.float64)
    beta = np.empty(max(k - 1, 0), dtype=np.float64)

    basis[:, 0] = q
    prev = np.zeros(n, dtype=np.float64)
    prev_beta = 0.0
    achieved = k
    broke = False

    for j in range(k):
        w = np.asarray(matvec(basis[:, j]), dtype=np.float64)
        if w.shape != (n,):
            raise ParameterError(
                "operator returned shape %s for a length-%d vector"
                % (w.shape, n)
            )
        alpha[j] = basis[:, j] @ w
        w = w - alpha[j] * basis[:, j] - prev_beta * prev
        # Full reorthogonalisation against the basis built so far; k is at
        # most 2*eta so this costs O(k * n) per step.
        w -= basis[:, :j + 1] @ (basis[:, :j + 1].T @ w)
        if j == k - 1:
            break
        b = np.linalg.norm(w)
        scale = max(abs(alpha[j]), prev_beta, 1.0)
        if b <= BREAKDOWN_TOL * scale:
            achieved = j + 1
            broke = True
            break
        beta[j] = b
        prev = basis[:, j]
        prev_beta = b
        basis[:, j + 1] = w / b

    return LanczosResult(
        alpha=alpha[:achieved].copy(),
        beta=beta[:max(achieved - 1, 0)].copy(),
        basis=basis[:, :achieved].copy(),
        breakdown=broke,
    )


def krylov_dimension(eta: int) -> int:
    """The paper's Eq. 14: ``k = 2*eta`` if eta is even else ``2*eta - 1``."""
    if eta < 1:
        raise ParameterError("eta must be >= 1, got %d" % eta)
    return 2 * eta if eta % 2 == 0 else 2 * eta - 1
