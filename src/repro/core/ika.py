"""IKA-accelerated improved SST — paper section 3.2.3, Eq. 13-14.

The exact path in :mod:`repro.core.rsst` spends almost all of its time in
the SVD of the past Hankel matrix.  The Implicit Krylov Approximation of
Ide & Tsuda (2007) removes it:

* ``C = B(t) B(t)^T`` is never formed — matrix-vector products with ``C``
  are evaluated implicitly from the raw samples ("matrix compression and
  implicit inner product calculation",
  :class:`repro.core.hankel.HankelOperator`);
* for each future direction ``beta_i(t)``, ``k`` Lanczos steps seeded at
  ``beta_i`` produce a ``k x k`` tridiagonal ``T_k`` with
  ``k = 2*eta`` (eta even) or ``2*eta - 1`` (eta odd) — Eq. 14;
* ``numpy.linalg.eigh`` diagonalises ``T_k`` (LAPACK's implicit QL/QR
  routine for a tridiagonal this small); because the seed is the first
  Lanczos basis vector, the squared first components of the top ``eta``
  eigenvectors of ``T_k`` are exactly the squared projections of
  ``beta_i`` onto the Ritz approximations of the past subspace, giving
  Eq. 13::

      phi_i(t) ~= 1 - sum_{j=1..eta} x_j(1)^2

Two code paths compute the same transform:

* :meth:`IkaSST.score_at` / :meth:`IkaSST.scores_reference` — the
  literal per-point algorithm above (one Lanczos recursion and one
  ``k x k`` eigensolve per future direction).  This is the specification.
* :meth:`IkaSST.scores` / :meth:`IkaSST.scores_batch` — the deployed
  path: the identical recursion evaluated for *every* window of *every*
  series simultaneously with batched NumPy primitives (strided Hankel
  views, ``einsum`` for the implicit products, stacked ``eigh`` for the
  tiny tridiagonals).  In a compiled implementation the per-point path
  is already fast; under an interpreter the batching recovers the
  paper's per-window cost profile without changing a single arithmetic
  step.  The test suite pins the two paths to each other.

The unit of ``scores_batch`` is the **window pair**: a score is a
function of two ``span = 2*omega - 1`` sample slices, the one starting at
its position (future) and the one ending just before it (past).  The
stack is ravelled, the pairs of every row — whatever the row lengths —
join one flat list, and the list is scored in blocks of at most
``_BLOCK_PAIRS`` (window, future direction) pairs: one
``(block, omega, omega)`` eigh and one Lanczos recursion covering all
``eta`` directions per block, so memory is bounded by the block, not by
the stack height.  The list is also where work is *skipped*: a ``where=``
mask keeps only the pairs of the positions it sets, and the declaration
rule (:func:`repro.core.scoring.declare_changes`) sets those whose
persistence already confirmed — a few percent of a quiet stack.
``scores(x)`` is literally ``scores_batch(x[None])[0]``;
that a row scores identically whichever stack or block it is part of
follows from each block gathering its slices into one contiguous array
(fixed strides for any batch) and from nothing else being read: stacked
``eigh``, per-window norms and per-slice medians are element-independent.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import as_float_array
from .hankel import HankelOperator, future_matrix
from .lanczos import krylov_dimension, lanczos
from .rsst import ImprovedSSTParams, median_mad_gate

__all__ = ["IkaSST"]

#: (window, future direction) pairs scored per kernel block —
#: ``_BLOCK_PAIRS // eta`` windows.  ``scores_batch`` materialises the
#: past/future Hankel stacks, the Lanczos basis and the ``eigh`` inputs
#: for one block at a time, so its working set is bounded by this
#: constant (~2 MB at omega = 9) instead of growing with stack height.
_BLOCK_PAIRS = 512


class IkaSST:
    """Fast improved-SST scorer (the algorithm FUNNEL deploys online).

    Produces the same gated change score as
    :class:`repro.core.rsst.ImprovedSST` up to Krylov-approximation error,
    replacing the past-matrix SVD with ``eta`` implicit Lanczos recursions
    of dimension ``k <= 2*eta``.

    Example:
        >>> import numpy as np
        >>> x = np.r_[np.zeros(60), np.ones(60)] + 0.01
        >>> scorer = IkaSST()
        >>> scores = scorer.scores(x)
        >>> 50 < int(np.argmax(scores)) < 95
        True
    """

    def __init__(self, params: Optional[ImprovedSSTParams] = None) -> None:
        self.params = params or ImprovedSSTParams()
        self.krylov_k = krylov_dimension(self.params.eta)

    # ------------------------------------------------------------------
    # Reference (per-point) path
    # ------------------------------------------------------------------

    def future_pairs(self, series: Sequence[float],
                     t: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(lambda_{1:eta}, beta_{1:eta})`` of ``A(t) A(t)^T``.

        Uses the eigen-decomposition of the small ``omega x omega`` Gram
        matrix rather than an SVD of the trajectory matrix.
        """
        p = self.params
        a = future_matrix(series, t, p.omega, p.gamma, lag=0)
        gram = a @ a.T
        lam, vec = np.linalg.eigh(gram)        # ascending
        lam = np.clip(lam, 0.0, None)
        if p.future_directions == "largest":
            sel = slice(-1, -(p.eta + 1), -1)
        else:
            sel = slice(0, p.eta)
        return lam[sel].copy(), vec[:, sel].copy()

    def _phi(self, operator: HankelOperator, beta: np.ndarray) -> float:
        """Eq. 13: discordance of one future direction via Lanczos."""
        p = self.params
        k = min(self.krylov_k, operator.window)
        result = lanczos(operator.matvec, beta, k)
        _, vectors = np.linalg.eigh(result.tridiagonal())
        # eigh sorts ascending; the top-eta Ritz pairs are last.
        eta = min(p.eta, result.k)
        first_components = vectors[0, -eta:]
        phi = 1.0 - float(np.sum(first_components ** 2))
        return min(max(phi, 0.0), 1.0)

    def raw_score_at(self, series: Sequence[float], t: int) -> float:
        """Ungated blended score ``xhat(t)`` (Eq. 9 via Eq. 13)."""
        p = self.params
        operator = HankelOperator.past(series, t, p.omega, p.delta)
        lam, betas = self.future_pairs(series, t)
        total = float(lam.sum())
        if total <= 0.0:
            return 0.0
        score = 0.0
        for i in range(lam.size):
            if lam[i] <= 0.0:
                continue
            score += lam[i] * self._phi(operator, betas[:, i])
        return float(score / total)

    def score_at(self, series: Sequence[float], t: int) -> float:
        """Gated score ``xtilde(t)`` of Eq. 11 at one index."""
        raw = self.raw_score_at(series, t)
        if not self.params.gated:
            return raw
        return raw * median_mad_gate(series, t, self.params.omega)

    def scores_reference(self, series: Sequence[float]) -> np.ndarray:
        """Per-point path over the whole series (tests/validation only)."""
        x = as_float_array(series)
        lo, hi = self._score_range(x.size)
        out = np.zeros(x.size, dtype=np.float64)
        for t in range(lo, hi):
            out[t] = self.score_at(x, t)
        return out

    # ------------------------------------------------------------------
    # Deployed (batched) path
    # ------------------------------------------------------------------

    def scores(self, series: Sequence[float]) -> np.ndarray:
        """Gated scores for every scoreable index (batched evaluation).

        The result has the same length as ``series``; edge indices whose
        embedding does not fit hold ``0.0``.  Delegates to
        :meth:`scores_batch` with a single-row stack, so the per-series
        and cross-series paths are the same arithmetic by construction.
        """
        x = as_float_array(series)
        return self.scores_batch(x[None, :], lengths=(x.size,))[0]

    def scores_batch(self, stacked: Sequence[Sequence[float]],
                     lengths: Optional[Sequence[int]] = None,
                     where=None) -> np.ndarray:
        """Gated scores for a ``(n_series, T)`` stack of series at once.

        Every row is scored exactly as :meth:`scores` would score it in
        isolation — bitwise, not merely numerically (see the module
        docstring).

        Ragged stacks: trailing NaNs mark a row as shorter, or pass
        explicit per-row ``lengths`` (which also disables the NaN
        interpretation — rows are scored verbatim up to their length,
        and whatever pads them beyond it is never read).

        ``where``, a boolean mask of the stack's shape, restricts the
        kernel to the positions it sets: those hold bitwise the score
        the unrestricted call gives them, every other entry ``0.0``.
        The stack is validated either way; an empty selection returns
        zeros without touching the kernel.

        Returns:
            ``(n_series, T)`` array; for each row the entries beyond its
            effective length, and the edge indices whose embedding does
            not fit, hold ``0.0``.
        """
        stack = np.ascontiguousarray(stacked, dtype=np.float64)
        if stack.ndim != 2:
            raise ParameterError(
                "scores_batch needs a 2-D (n_series, T) stack, got ndim=%d"
                % stack.ndim)
        n_series, width = stack.shape
        if lengths is None:
            finite = np.isfinite(stack)
            rev_first = np.argmax(finite[:, ::-1], axis=1)
            row_lengths = np.where(finite.any(axis=1), width - rev_first, 0)
        else:
            row_lengths = np.asarray(lengths, dtype=np.intp)
            if row_lengths.shape != (n_series,):
                raise ParameterError(
                    "lengths must have one entry per row (%d), got %r"
                    % (n_series, row_lengths.shape))
        if where is not None:
            where = np.asarray(where, dtype=bool)
            if where.shape != stack.shape:
                raise ParameterError(
                    "where must have the stack's shape %r, got %r"
                    % (stack.shape, where.shape))

        out = np.zeros(stack.shape, dtype=np.float64)
        if not n_series:
            return out
        shortest = int(row_lengths.min())
        if shortest < 0 or row_lengths.max() > width:
            raise ParameterError("row lengths must be in [0, %d]" % width)
        self._score_range(shortest)
        # One pair per (row, t).  Over the ravelled stack its future
        # slice starts at row * width + t — also where its score lands —
        # and its past slice ``span`` samples earlier; slice starts that
        # straddle two rows or reach into padding belong to no pair.
        p, span = self.params, self.params.lead
        counts = row_lengths - (2 * span - 1)
        ends = np.cumsum(counts)
        first = np.arange(span, span + n_series * width, width)
        future = np.repeat(first - (ends - counts), counts)
        future += np.arange(ends[-1])
        if where is not None:
            future = future[where.reshape(-1)[future]]
            if not future.size:
                return out
        # slices[s] = flat[s : s + span]; windows[s] is the same slice in
        # its Hankel layout, windows[s, j] = flat[s + j : s + j + omega].
        # The bare constructor bounds-checks like ``sliding_window_view``,
        # at a thirtieth of the call cost.
        item, n_slices = stack.itemsize, stack.size - span + 1
        slices = np.ndarray((n_slices, span), np.float64, stack,
                            strides=(item, item))
        windows = np.ndarray((n_slices, p.delta, p.omega), np.float64, stack,
                             strides=(item, item, item))
        scores = self._raw_scores(windows, future)
        if p.gated:
            scores *= self._gates(slices, future)
        out.reshape(-1)[future] = scores
        return out

    def _score_range(self, size: int) -> Tuple[int, int]:
        p = self.params
        lo, hi = p.first_index(), p.last_index(size)
        if hi <= lo:
            raise InsufficientDataError(
                "series of length %d is shorter than the window %d"
                % (size, p.window_length)
            )
        return lo, hi

    def _raw_scores(self, windows: np.ndarray,
                    future: np.ndarray) -> np.ndarray:
        """Raw blended score of every pair, ``future`` holding the flat
        start of each pair's future slice."""
        # Integer-array indexing copies: each block is C-contiguous with
        # the same strides whatever rows it was gathered from, and each
        # window's arithmetic is independent of its neighbours.
        step = max(1, _BLOCK_PAIRS // self.params.eta)
        raw = np.empty(future.size, dtype=np.float64)
        for start in range(0, raw.size, step):
            block = future[start:start + step]
            raw[start:start + step] = self._raw_block(
                windows[block], windows[block - self.params.lead])
        return raw

    def _raw_block(self, fut: np.ndarray, past: np.ndarray) -> np.ndarray:
        """Raw blended scores of one ``(B, delta, omega)`` window block."""
        p = self.params
        eta = p.eta
        k = min(self.krylov_k, p.omega)

        # Eigen-pairs of A A^T via the omega x omega Gram matrices.
        gram = np.einsum("tjw,tjv->twv", fut, fut)
        lam_all, vec_all = np.linalg.eigh(gram)    # ascending per window
        lam_all = np.maximum(lam_all, 0.0)
        if p.future_directions == "largest":
            lam = lam_all[:, :-(eta + 1):-1]       # (B, eta) descending
            betas = vec_all[:, :, :-(eta + 1):-1]  # (B, omega, eta)
        else:
            lam = lam_all[:, :eta]
            betas = vec_all[:, :, :eta]

        # One Lanczos recursion for all directions: direction-major
        # (eta * B) seeds against the past block repeated eta times.
        # Copied contiguous first: a one-window block would reshape to a
        # strided view, whose norm sums in another order.
        seeds = np.ascontiguousarray(betas.transpose(2, 0, 1))
        phi = self._phi_batched(np.concatenate([past] * eta),
                                seeds.reshape(-1, p.omega), k,
                                eta).reshape(eta, -1).T

        total = lam.sum(axis=1)
        raw = np.zeros(fut.shape[0], dtype=np.float64)
        ok = total > 0.0
        raw[ok] = np.einsum("ti,ti->t", lam[ok], phi[ok]) / total[ok]
        return raw

    def _phi_batched(self, past: np.ndarray, seeds: np.ndarray, k: int,
                     eta: int) -> np.ndarray:
        """Eq. 13 for one seed per past window, all windows at once.

        ``past`` has shape ``(T, delta, omega)`` with ``past[t, j]`` the
        j-th column of ``B(t)``; ``seeds`` is ``(T, omega)``.  Runs the
        same Lanczos recursion as :func:`repro.core.lanczos.lanczos`
        vectorised over ``t``, then diagonalises the stacked ``k x k``
        tridiagonals with one stacked ``eigh``, the solver the per-point
        path calls once per tridiagonal.
        """
        n_t, _, omega = past.shape
        basis = np.zeros((n_t, omega, k), dtype=np.float64)
        alpha = np.zeros((n_t, k), dtype=np.float64)
        off = np.zeros((n_t, max(k - 1, 1)), dtype=np.float64)

        # np.linalg.norm's own row 2-norm, less its argument handling.
        q = seeds / np.sqrt(np.add.reduce(seeds * seeds, axis=1,
                                          keepdims=True))
        basis[:, :, 0] = q
        prev = np.zeros_like(q)
        prev_beta = np.zeros(n_t, dtype=np.float64)

        for j in range(k):
            qj = basis[:, :, j]
            # Implicit C v = B (B^T v): two sliding-dot einsum products.
            pv = np.einsum("tdw,tw->td", past, qj)
            w = np.einsum("tdw,td->tw", past, pv)
            alpha[:, j] = np.einsum("tw,tw->t", qj, w)
            if j == k - 1:
                break
            w = w - alpha[:, j, None] * qj - prev_beta[:, None] * prev
            # Full reorthogonalisation against the basis so far.
            coeffs = np.einsum("twj,tw->tj", basis[:, :, :j + 1], w)
            w = w - np.einsum("twj,tj->tw", basis[:, :, :j + 1], coeffs)
            b = np.sqrt(np.add.reduce(w * w, axis=1))
            alive = b > 1e-12
            if alive.all():
                off[:, j] = b
            else:                     # breakdown: zero the dead rows
                w = np.where(alive[:, None], w, 0.0)
                off[:, j] = np.where(alive, b, 0.0)
                b = np.where(alive, b, 1.0)
            prev = qj
            prev_beta = off[:, j]
            basis[:, :, j + 1] = w / b[:, None]

        # Stack the tridiagonals and diagonalise them together.
        tk = np.zeros((n_t, k, k), dtype=np.float64)
        idx = np.arange(k)
        tk[:, idx, idx] = alpha
        if k > 1:
            sub = off[:, :k - 1]
            tk[:, idx[:-1], idx[1:]] = sub
            tk[:, idx[1:], idx[:-1]] = sub
        _, vecs = np.linalg.eigh(tk)               # ascending per t
        top = vecs[:, 0, -min(eta, k):]            # first components
        phi = 1.0 - np.sum(top ** 2, axis=1)
        return np.clip(phi, 0.0, 1.0)

    @staticmethod
    def _gates(slices: np.ndarray, future: np.ndarray) -> np.ndarray:
        """Eq. 11 gate factor of every pair (see ``_raw_scores``).

        Median and MAD are taken once per slice some pair reads — all
        of them on a whole series, two per row on a one-window segment
        — and, ``span`` being odd, each is one order statistic: the
        middle of a partition, which is what ``np.median`` returns.
        """
        span, mid = slices.shape[1], slices.shape[1] // 2
        past = future - span
        read = np.zeros(slices.shape[0], dtype=bool)
        read[future] = read[past] = True
        row = np.cumsum(read) - 1             # slice start -> block row
        block = slices[read]
        block.partition(mid, axis=1)
        meds = block[:, mid].copy()
        np.abs(np.subtract(block, meds[:, None], out=block), out=block)
        block.partition(mid, axis=1)
        mads = block[:, mid]
        before, after = row[past], row[future]
        return np.sqrt(np.abs(meds[before] - meds[after])) + \
            np.sqrt(np.abs(mads[before] - mads[after]))
