"""Improved (robust) SST — paper section 3.2.2, Eq. 8-12.

Classic SST (section 3.2.1) scores a point ``t`` by the discordance
between the ``eta``-dimensional dominant subspace ``U_eta`` of the past
Hankel matrix ``B(t)`` (Eq. 1-2) and the single direction ``beta(t)`` of
maximum energy in the future Hankel matrix ``A(t)`` (Eq. 3-5):
``x_s(t) = 1 - ||U_eta^T beta||`` (Eq. 6-7).  Unchanged dynamics keep
``beta`` (almost) inside ``U_eta`` and the score near zero; a behaviour
change rotates it out and the score approaches one.  It has five free
parameters, and on white noise the dominant future direction is random,
so its raw scores are large everywhere.

Two robustness fixes over that classic transform:

1. **Multi-eigenvector future subspace.**  Instead of scoring only the
   single dominant future direction, the improved SST extracts ``eta``
   eigenvectors ``beta_i(t)`` of ``A(t) A(t)^T`` and blends their
   discordances with the past subspace, weighted by eigenvalue::

       phi_i(t) = 1 - sum_j (beta_i^T u_j)^2          (Eq. 10)
       xhat(t)  = sum_i lambda_i phi_i / sum_i lambda_i   (Eq. 9)

   The paper's Eq. 8 text says the eigenvectors with the *smallest*
   eigenvalues are used; taken literally those are the noise directions of
   the future window and carry no change energy.  Robust-SST (Mohammad &
   Nishida 2009), which the section cites as its basis, weights the
   *principal* directions.  Both variants are implemented; the default is
   ``future_directions="largest"`` which reproduces the paper's detection
   behaviour (see DESIGN.md, "Interpretation notes").

2. **Median/MAD gating** (Eq. 11-12).  The raw score is multiplied by
   ``sqrt(|median_a - median_b|) * sqrt(|MAD_a - MAD_b|)`` over the
   ``(2*omega - 1)``-point windows before/after the evaluated point, so
   sections where neither the robust location nor the robust scale of the
   series moves are filtered to ~zero even if subspace noise produced a
   spurious raw score.

Because the gate magnitudes carry the units of the KPI, callers that
compare scores against a fixed threshold should feed a robustly
normalised series (see :func:`repro.core.scoring.robust_normalise`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import as_float_array
from .hankel import future_matrix, past_matrix
from .robust import median_and_mad, window_pair

__all__ = ["ImprovedSSTParams", "ImprovedSST", "median_mad_gate"]


@dataclass(frozen=True)
class ImprovedSSTParams:
    """Parameters of the improved SST.

    The paper's recipe (section 3.2.2) removes three of classic SST's five
    free parameters: ``rho = 0``, ``gamma = delta = omega`` and ``eta = 3``,
    leaving only ``omega`` to choose per service (5 for quick mitigation,
    15 for precise assessment, 9 in the paper's evaluation).
    """

    omega: int = 9
    eta: int = 3
    future_directions: str = "largest"
    gated: bool = True

    def __post_init__(self) -> None:
        if self.omega < 2:
            raise ParameterError("omega must be >= 2, got %d" % self.omega)
        if not 1 <= self.eta <= self.omega:
            raise ParameterError(
                "eta must be in [1, omega]=[1, %d], got %d"
                % (self.omega, self.eta)
            )
        if self.future_directions not in ("largest", "smallest"):
            raise ParameterError(
                "future_directions must be 'largest' or 'smallest', got %r"
                % (self.future_directions,)
            )

    @property
    def delta(self) -> int:
        return self.omega

    @property
    def gamma(self) -> int:
        return self.omega

    @property
    def lead(self) -> int:
        """Samples required strictly before the evaluated point.

        Both the past embedding (``omega + delta - 1``) and the gate window
        (``2*omega - 1``) need exactly this many samples.
        """
        return 2 * self.omega - 1

    @property
    def lookahead(self) -> int:
        """Samples required at/after the evaluated point (rho = 0)."""
        return 2 * self.omega - 1

    @property
    def window_length(self) -> int:
        """Sliding-window length ``W``; ``omega = 9`` gives the paper's 34."""
        return self.lead + self.lookahead

    def first_index(self) -> int:
        return self.lead

    def last_index(self, n: int) -> int:
        return n - self.lookahead + 1


def median_mad_gate(series: Sequence[float], t: int, omega: int) -> float:
    """The Eq. 11 gate factor at index ``t``.

    Computes ``sqrt(|median_a - median_b|) + sqrt(|MAD_a - MAD_b|)`` over
    the ``(2*omega - 1)``-point windows before and after ``t``: zero when
    *neither* the robust location nor the robust scale moves (the
    "sections where the median and the MAD remain nearly constant" the
    paper filters), responsive to a pure level shift through the median
    term and to a pure variance change through the MAD term.  A literal
    product of the two terms would vanish on a noise-free level shift
    (``delta MAD = 0``), contradicting the filter's stated intent — see
    DESIGN.md, "Interpretation notes".
    """
    before, after = window_pair(series, t, 2 * omega - 1)
    med_a, mad_a = median_and_mad(before)
    med_b, mad_b = median_and_mad(after)
    return float(np.sqrt(abs(med_a - med_b)) + np.sqrt(abs(mad_a - mad_b)))


class ImprovedSST:
    """Robust SST change-score computer (exact SVD path).

    The IKA-accelerated equivalent is
    :class:`repro.core.ika.IkaSST`; both share this parameter object and
    produce scores that agree to within Krylov-approximation error (an
    invariant asserted by the test suite).
    """

    def __init__(self, params: Optional[ImprovedSSTParams] = None) -> None:
        self.params = params or ImprovedSSTParams()

    # -- subspace pieces ---------------------------------------------------

    def past_subspace(self, series: Sequence[float], t: int) -> np.ndarray:
        """``U_eta(t)``: top ``eta`` left singular vectors of ``B(t)``."""
        p = self.params
        b = past_matrix(series, t, p.omega, p.delta)
        u, _, _ = np.linalg.svd(b, full_matrices=False)
        return u[:, :p.eta]

    def future_pairs(self, series: Sequence[float],
                     t: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(lambda_{1:eta}, beta_{1:eta})`` of ``A(t) A(t)^T`` (Eq. 8).

        Returns eigenvalues (descending for ``"largest"``, ascending for
        ``"smallest"``) and the matching eigenvectors as columns.
        """
        p = self.params
        a = future_matrix(series, t, p.omega, p.gamma, lag=0)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        lam = s ** 2
        if p.future_directions == "largest":
            return lam[:p.eta], u[:, :p.eta]
        return lam[::-1][:p.eta], u[:, ::-1][:, :p.eta]

    # -- scores ------------------------------------------------------------

    def raw_score_at(self, series: Sequence[float], t: int) -> float:
        """Ungated blended score ``xhat(t)`` of Eq. 9."""
        u_eta = self.past_subspace(series, t)
        lam, betas = self.future_pairs(series, t)
        total = float(lam.sum())
        if total <= 0.0:
            # A zero future window has no dynamics at all: no change.
            return 0.0
        # phi_i = 1 - sum_j (beta_i . u_j)^2  for every i at once.
        proj = u_eta.T @ betas                      # (eta, eta)
        phi = 1.0 - np.sum(proj ** 2, axis=0)
        phi = np.clip(phi, 0.0, 1.0)
        return float((lam @ phi) / total)

    def score_at(self, series: Sequence[float], t: int) -> float:
        """Gated score ``xtilde(t)`` of Eq. 11 (or raw if gating disabled)."""
        raw = self.raw_score_at(series, t)
        if not self.params.gated:
            return raw
        return raw * median_mad_gate(series, t, self.params.omega)

    def scores(self, series: Sequence[float]) -> np.ndarray:
        """Gated scores for every scoreable index; zeros at the edges."""
        x = as_float_array(series)
        p = self.params
        lo, hi = p.first_index(), p.last_index(x.size)
        if hi <= lo:
            raise InsufficientDataError(
                "series of length %d is shorter than the window %d"
                % (x.size, p.window_length)
            )
        out = np.zeros(x.size, dtype=np.float64)
        for t in range(lo, hi):
            out[t] = self.score_at(x, t)
        return out
