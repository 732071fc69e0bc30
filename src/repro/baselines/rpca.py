"""Robust PCA via the Inexact Augmented Lagrange Multiplier method.

The MRLS baseline ([18], PRISM) builds robust local subspaces by
iterating SVDs under an l1 criterion; the paper's complexity discussion
points at Lin, Chen & Ma's ALM algorithm ([17]) as the canonical way such
decompositions are computed.  This module implements the inexact ALM for

    minimise  ||L||_* + lambda * ||S||_1   subject to  D = L + S

i.e. the separation of an observation matrix ``D`` into a low-rank part
``L`` (the local subspace / normal behaviour) and a sparse part ``S``
(outliers, spikes and behaviour changes).  Every iteration performs one
full SVD — this is precisely the cost that makes MRLS four orders of
magnitude slower than FUNNEL in Table 2, so no attempt is made to
shortcut it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ParameterError

__all__ = ["RpcaResult", "robust_pca"]


@dataclass(frozen=True)
class RpcaResult:
    """Decomposition ``D = low_rank + sparse`` with convergence metadata."""

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    converged: bool


def _shrink(matrix: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise soft-thresholding (the l1 proximal operator)."""
    return np.sign(matrix) * np.maximum(np.abs(matrix) - tau, 0.0)


def _svd_shrink(matrix: np.ndarray, tau: float) -> np.ndarray:
    """Singular-value thresholding (the nuclear-norm proximal operator)."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt


def robust_pca(observations: np.ndarray, sparsity: Optional[float] = None,
               tolerance: float = 1e-7,
               max_iterations: int = 200) -> RpcaResult:
    """Inexact-ALM Robust PCA of ``observations``.

    Args:
        observations: the ``m x n`` data matrix ``D``.
        sparsity: the trade-off ``lambda``; defaults to the standard
            ``1 / sqrt(max(m, n))``.
        tolerance: relative Frobenius residual at which to stop.
        max_iterations: iteration cap; a result that hits it is returned
            with ``converged=False``.

    Returns:
        The :class:`RpcaResult` decomposition.
    """
    d = np.asarray(observations, dtype=np.float64)
    if d.ndim != 2 or d.size == 0:
        raise ParameterError(
            "observations must be a non-empty 2-D matrix, got shape %s"
            % (d.shape,)
        )
    if not np.all(np.isfinite(d)):
        raise ParameterError("observations contain NaN or infinite values")
    m, n = d.shape
    if sparsity is None:
        sparsity = 1.0 / np.sqrt(max(m, n))
    if sparsity <= 0:
        raise ParameterError("sparsity must be positive, got %g" % sparsity)

    norm_fro = np.linalg.norm(d)
    if norm_fro == 0.0:
        zeros = np.zeros_like(d)
        return RpcaResult(zeros, zeros.copy(), iterations=0, converged=True)

    # Standard inexact-ALM initialisation (Lin et al., Algorithm 5).
    norm_two = np.linalg.svd(d, compute_uv=False)[0]
    norm_inf = np.abs(d).max() / sparsity
    dual_norm = max(norm_two, norm_inf)
    y = d / dual_norm
    mu = 1.25 / norm_two
    mu_cap = mu * 1e7
    rho = 1.5

    low_rank = np.zeros_like(d)
    sparse = np.zeros_like(d)
    converged = False
    iteration = 0

    while iteration < max_iterations:
        iteration += 1
        low_rank = _svd_shrink(d - sparse + y / mu, 1.0 / mu)
        sparse = _shrink(d - low_rank + y / mu, sparsity / mu)
        residual = d - low_rank - sparse
        y = y + mu * residual
        mu = min(mu * rho, mu_cap)
        if np.linalg.norm(residual) / norm_fro < tolerance:
            converged = True
            break

    return RpcaResult(low_rank=low_rank, sparse=sparse,
                      iterations=iteration, converged=converged)
