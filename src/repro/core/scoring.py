"""Change-score post-processing: from scores to declared KPI changes.

The transforms in :mod:`repro.core.rsst` / :mod:`repro.core.ika` output a
per-sample change score.  This module turns scores into the paper's
notion of a *KPI change* (section 2.3): a non-transient behaviour change —
a level shift or a ramp up/down — declared only after it persists for at
least :data:`PERSISTENCE_MINUTES` time-bins (section 4.1: "we set a
threshold of 7 minutes in FUNNEL to declare a change in a time series as
a level-shift or ramp-up/down rather than a one-off event").

The paper's rule is a conjunction — score above threshold *and*
persistent — and says nothing about the order of evaluation; ours is
cheap half first (:func:`declare_changes`: *table, kernel, scan*): the
persistence half never reads a score and costs a seventh of one, so it
decides which positions the SST kernel is asked to score at all — a
quiet row costs no kernel time, a declaration asks for no score but the
one that armed it, and a row read for its first reportable change costs
nothing before that change can start nor after it has its answer.

It also provides the robust normalisation that makes gated scores
comparable across KPIs of wildly different magnitudes, the estimation of
a change's *start* index (used for detection-delay evaluation, section
4.4), and the level-shift vs. ramp classification of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import DetectedChange, as_float_array
from .robust import MAD_TO_SIGMA, _middle, median_and_mad

__all__ = [
    "PERSISTENCE_MINUTES",
    "robust_normalise",
    "robust_normalise_batch",
    "estimate_change_start",
    "classify_change",
    "ChangeDeclarationPolicy",
    "candidate_mask",
    "declare_changes",
]

#: Minimum duration (in 1-minute bins) a deviation must persist before it
#: is declared a KPI change rather than a one-off event.
PERSISTENCE_MINUTES = 7

#: Scale regulariser of :func:`robust_normalise` for constant baselines.
EPSILON = 1e-9


def robust_normalise(series: Sequence[float],
                     baseline: Optional[int] = None) -> np.ndarray:
    """Centre/scale a series by the median/MAD of its baseline prefix.

    ``(x - median) / (MAD_TO_SIGMA * MAD + EPSILON)`` where the statistics
    are computed over the first ``baseline`` samples (the pre-change
    period), or the whole series when ``baseline`` is ``None``.  After this
    transform the Eq. 11 gate magnitudes are in robust-sigma units, so one
    fixed declaration threshold works for every KPI.

    The one-row case of :func:`robust_normalise_batch`.
    """
    return robust_normalise_batch(as_float_array(series)[None, :],
                                  baseline)[0]


def _per_row(name: str, values, n_rows: int, lo: int, hi: int) -> np.ndarray:
    """``values`` — one int shared by every row, or one per row — as a
    per-row array, every entry in ``[lo, hi]``."""
    rows = np.asarray(values, dtype=np.intp)
    if rows.ndim == 0:
        rows = np.full(n_rows, rows)
    if rows.shape != (n_rows,) or (
            n_rows and not lo <= rows.min() <= rows.max() <= hi):
        raise ParameterError(
            "%s must be in [%d, %d], one for every row or one per row "
            "(%d), got %r" % (name, lo, hi, n_rows, rows.tolist()))
    return rows


def robust_normalise_batch(
    stacked: Sequence[Sequence[float]],
    baselines=None,
    stats: Optional[Sequence[Optional[Tuple[float, float]]]] = None,
) -> np.ndarray:
    """:func:`robust_normalise` for a ``(n_series, T)`` stack at once.

    Row ``i`` of the result is bitwise what the row alone gives, and
    what ``median_and_mad(stacked[i, :baselines[i]])`` would centre and
    scale it to: the per-row medians/MADs are the same exact order
    statistics of the same prefix samples (:func:`_prefix_median_mad`)
    and the centre/scale transform broadcasts elementwise.

    Args:
        stacked: the ``(n_series, T)`` KPI stack.
        baselines: ``None`` (whole rows), one int shared by every row,
            or a per-row sequence of prefix lengths.
        stats: optional per-row ``(median, MAD)`` entries; rows whose
            entry is ``None`` compute their statistics from the prefix.
    """
    x = np.asarray(stacked, dtype=np.float64)
    if x.ndim != 2:
        raise ParameterError(
            "robust_normalise_batch needs a 2-D stack, got ndim=%d" % x.ndim)
    n_series, width = x.shape
    if width == 0:
        raise InsufficientDataError("cannot normalise empty series")
    row_baselines = _per_row("baselines", width if baselines is None
                             else baselines, n_series, 1, width)

    meds = np.empty(n_series, dtype=np.float64)
    scales = np.empty(n_series, dtype=np.float64)
    todo = np.ones(n_series, dtype=bool)
    if stats is not None:
        if len(stats) != n_series:
            raise ParameterError(
                "stats must have one entry per row (%d), got %d"
                % (n_series, len(stats)))
        for i, entry in enumerate(stats):
            if entry is not None:
                meds[i] = float(entry[0])
                scales[i] = float(entry[1])
                todo[i] = False
    if todo.any():
        meds[todo], scales[todo] = _prefix_median_mad(
            x, np.flatnonzero(todo), row_baselines[todo])
    return (x - meds[:, None]) / (MAD_TO_SIGMA * scales[:, None] + EPSILON)


def estimate_change_start(series: Sequence[float], detected_at: int,
                          baseline: Optional[int] = None,
                          threshold_sigmas: float = 3.0) -> int:
    """Estimate the index at which a detected change actually started.

    Scans backwards from ``detected_at`` and returns the first index of the
    trailing run of samples that deviate from the pre-change baseline by
    more than ``threshold_sigmas`` robust sigmas.  If nothing qualifies
    (e.g. a slow ramp still inside the noise band), returns
    ``detected_at`` itself.  The one-item case of :func:`_change_starts`.

    Args:
        series: the KPI samples.
        detected_at: index at which the detector declared the change.
        baseline: number of leading samples that are definitely
            pre-change; defaults to ``detected_at``.
    """
    x = as_float_array(series)
    if not 0 <= detected_at < x.size:
        raise ParameterError(
            "detected_at=%d outside series of length %d"
            % (detected_at, x.size)
        )
    if baseline is None:
        baseline = detected_at
    baseline = max(1, min(baseline, detected_at))
    med, scale = median_and_mad(x[:baseline])
    band = threshold_sigmas * (MAD_TO_SIGMA * scale + 1e-9)
    return int(_change_starts(x[None, :], np.zeros(1, np.intp), np.array(
        [detected_at]), np.array([med]), np.array([band]))[0])


def _change_starts(stack: np.ndarray, rows: np.ndarray, ends: np.ndarray,
                   meds: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """:func:`estimate_change_start`'s backward scan of ``stack[rows[i],
    :ends[i] + 1]`` against ``meds[i]`` and ``bands[i]``, elementwise."""
    cols = np.arange(int(ends.max()) + 1)
    inside = ((np.abs(stack[rows, :cols.size] - meds[:, None])
               <= bands[:, None]) & (cols <= ends[:, None]))
    return np.minimum(np.where(inside, cols, -1).max(axis=1) + 1, ends)


def _step_fit_sse(segments: np.ndarray) -> np.ndarray:
    """Best single-step (level-shift) fit SSE over each row: what the row
    alone gives, since every sum runs along one row."""
    best = ((segments - segments.mean(axis=1, keepdims=True)) ** 2).sum(
        axis=1)
    cumsum = segments.cumsum(axis=1)
    split = np.arange(1, segments.shape[1])
    left = cumsum[:, :-1]
    sse = ((segments ** 2).sum(axis=1)[:, None] - left ** 2 / split
           - (cumsum[:, -1:] - left) ** 2 / (segments.shape[1] - split))
    # NaN splits never win, as in a scan
    return np.maximum(np.fmin(best, np.fmin.reduce(sse, axis=1)), 0.0)


def classify_change(series: Sequence[float], start: int,
                    detected_at: int) -> str:
    """Classify a change as ``"level_shift"`` or ``"ramp"`` (Fig. 2).

    Compares the best piecewise-constant (step) fit with the best linear
    fit over the change region plus 10 samples on each side.  A
    level shift is fit much better by the step; a gradual ramp by the
    line.  Ties (both fits comparable) default to ``"level_shift"``,
    matching the paper's observation that level shifts are the common
    case immediately after a software change.  The one-item case of
    :func:`_change_kinds`.
    """
    x = as_float_array(series)
    return _change_kinds(x[None, :], [0], [x.size], [start],
                         [detected_at])[0]


def _change_kinds(stack: np.ndarray, rows: Sequence[int],
                  lengths: Sequence[int], starts: Sequence[int],
                  indices: Sequence[int]) -> List[str]:
    """:func:`classify_change` for every item — row ``rows[i]`` up to
    ``lengths[i]``, ``starts[i]``, ``indices[i]`` — with one step fit
    per segment length and one ``lstsq`` ramp fit per item."""
    groups: dict = {}                   # segment length -> (item, lo)
    for item, (start, index, length) in enumerate(zip(starts, indices,
                                                      lengths)):
        lo = max(start - 10, 0)
        groups.setdefault(min(length, index + 11) - lo, []).append((item, lo))
    kinds = ["level_shift"] * len(starts)
    for size, members in groups.items():
        if size < 4:
            continue
        segments = np.array([stack[rows[item], lo:lo + size]
                             for item, lo in members])
        design = np.ones((size, 2))             # [t, 1]
        design[:, 0] = np.arange(size)
        for (item, _), segment, step_sse in zip(
                members, segments, _step_fit_sse(segments).tolist()):
            coef = np.linalg.lstsq(design, segment, rcond=None)[0]
            resid = segment - design @ coef         # the ramp fit
            if float(resid @ resid) < 0.8 * step_sse:
                kinds[item] = "ramp"
    return kinds


@dataclass(frozen=True)
class ChangeDeclarationPolicy:
    """How raw change scores become declared KPI changes.

    Attributes:
        score_threshold: gated-score level that arms a candidate change.
            With robustly normalised input (see :func:`robust_normalise`)
            the gate is in sigma-ish units.  Arming is deliberately
            sensitive — the median-persistence confirmation is the
            false-positive gatekeeper, so a low arming threshold costs
            little and keeps detection delay short.
        persistence: bins the deviation must persist (paper: 7 minutes).
        deviation_sigmas: how far (in robust sigmas of the pre-change
            baseline) the persisting samples must sit from the baseline
            median for the persistence check to count them.
    """

    score_threshold: float = 0.3
    persistence: int = PERSISTENCE_MINUTES
    deviation_sigmas: float = 3.0

    def __post_init__(self) -> None:
        if self.score_threshold <= 0:
            raise ParameterError("score_threshold must be positive")
        if self.persistence < 1:
            raise ParameterError("persistence must be >= 1 bin")
        if self.deviation_sigmas <= 0:
            raise ParameterError("deviation_sigmas must be positive")


#: Padded prefix cells sorted per gating-table block: the table walks
#: its (row, position) pairs in blocks, so the two sort buffers stay
#: ~128 kB however many positions a stack holds.  The table is the hot
#: loop of a declaration and the cap was swept (ROADMAP item 3): 2^12 ..
#: 2^16 read 605 / 655 / 683-711 / 555 / 533-563 ``engine_fleet`` work/s.
_TABLE_BLOCK_CELLS = 1 << 14


def _prefix_median_mad(stack: np.ndarray, rows: np.ndarray,
                       baselines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``median_and_mad(stack[r, :b])`` for many ``(r, b)`` pairs at once.

    Median and MAD are exact order statistics: sorting a NaN-padded
    prefix matrix and averaging the two middle order statistics yields
    bitwise the values ``np.median`` computes per prefix (``np.median``
    takes the mean of the two partitioned middles for even sizes and the
    single middle otherwise), whatever the padded width.  Requires
    finite samples — NaN padding is how shorter prefixes are encoded.
    """
    width = int(baselines.max())
    pick = np.arange(baselines.size)
    lo = (baselines - 1) // 2
    hi = baselines // 2

    srt = np.where(np.arange(width)[None, :] < baselines[:, None],
                   stack[rows, :width], np.nan)
    srt.sort(axis=1)
    meds = np.where(lo == hi, srt[pick, lo],
                    (srt[pick, lo] + srt[pick, hi]) / 2.0)
    # The deviations of a sorted prefix are the same multiset; the NaN
    # padding stays NaN and sorts last again.
    sdev = np.abs(srt - meds[:, None])
    sdev.sort(axis=1)
    scales = np.where(lo == hi, sdev[pick, lo],
                      (sdev[pick, lo] + sdev[pick, hi]) / 2.0)
    return meds, scales


def _gating_table(padded: Tuple[np.ndarray, np.ndarray],
                  candidates: Sequence[np.ndarray],
                  policy: ChangeDeclarationPolicy) -> Tuple[
                      np.ndarray, np.ndarray, np.ndarray]:
    """Per-position confirmation statistics for a ragged stack, in bulk.

    ``candidates[i]`` holds the positions to decide on row ``i`` of the
    padded stack — every one a declaration could come from.  For each
    the persistence rule consumes the baseline
    ``median_and_mad(x[:max(1, c)])`` and the persistence window's
    ``median(x[c:c+persistence])``.  The table computes them all (every
    row of a stack, every detector of a pool pass; one series is the
    one-row case) with two NaN-padded sorts per block of positions and
    one axis-median, bitwise equal to the per-candidate calls (pinned in
    ``tests/core/test_scoring.py``).  ``padded`` is ``(stack,
    lengths)``: row ``i`` holds ``lengths[i]`` finite samples, NaN after
    them — the padding cannot encode a non-finite sample, so a caller
    refuses those first.

    Returns ``(meds, scales, window_medians)`` aligned with the
    concatenated candidates; a window median is NaN when the window does
    not fit its series (the rule rejects those).
    """
    stack, lengths = padded
    sizes = [c.size for c in candidates]
    meds = np.empty(sum(sizes), dtype=np.float64)
    scales = np.empty(meds.size, dtype=np.float64)
    window_meds = np.full(meds.size, np.nan)
    if not meds.size:
        return meds, scales, window_meds
    rows = np.repeat(np.arange(len(sizes)), sizes)
    flat = np.concatenate(candidates)

    baselines = np.maximum(flat, 1)
    step = max(1, _TABLE_BLOCK_CELLS // int(baselines.max()))
    for start in range(0, flat.size, step):
        block = slice(start, start + step)
        meds[block], scales[block] = _prefix_median_mad(
            stack, rows[block], baselines[block])

    fits = flat + policy.persistence <= lengths[rows]
    if fits.any():
        # The sorted middles again: ``np.median``'s value at a tenth of
        # its per-call cost, which a round of a few positions would feel.
        cols = flat[fits, None] + np.arange(policy.persistence)
        windows = stack[rows[fits, None], cols]
        windows.sort(axis=1)
        window_meds[fits] = _middle(windows)
    return meds, scales, window_meds


def _screened(padded, candidates: Sequence[np.ndarray], sizes: Sequence[int],
              policy: ChangeDeclarationPolicy) -> Optional[np.ndarray]:
    """Which of the concatenated ``candidates`` (``sizes[i]`` of them on
    row ``i``) no order-statistic bound rejects: what
    :func:`_gating_table` still has to decide (``None``: every one).

    A row's positions go in chunks of ``p = persistence``, anchored at
    the multiples ``a`` of ``p``, and one sort of an anchor's prefix,
    ``S = sort(x[:a])``, bounds every position ``b = a + d`` of its
    chunk: the median of ``x[:b]`` lies in ``[S[(b - 1)//2 - d],
    S[b//2]]``, and its MAD is at least half the shortest span of ``k =
    (a + p - 2)//2 + 2 - p`` consecutive samples of ``S``.  A position
    whose window median stays within the band that MAD floor allows of
    both ends of the bracket cannot confirm, nor can one whose window
    does not fit.  Exact, not approximate: each comparison is monotone
    in the bounded quantity (derivation, floats included:
    ``docs/algorithms.md`` section 5).  Only rows of ``2 p`` candidates
    or more are screened (below that the screen's own passes cost more
    than the sorts it saves; the sweep is in the same section), and only
    if four times each sample is still finite, so no sum or difference
    of two of them can overflow.
    """
    stack, lengths = padded
    p = policy.persistence
    if max(sizes, default=0) < 2 * p:
        return None
    sizes = np.asarray(sizes, dtype=np.intp)
    screen = sizes >= 2 * p
    with np.errstate(over="ignore"):
        screen[screen] = (np.isfinite(4.0 * stack[screen]).sum(axis=1)
                          == lengths[screen])
    flat = np.concatenate(candidates)
    rows = np.repeat(np.arange(sizes.size), sizes)
    keep = ~screen[rows] | (flat + p <= lengths[rows])
    anchors = flat - flat % p
    tested = np.flatnonzero(screen[rows] & keep & (anchors >= p))
    if not tested.size:
        return keep
    rows, pos, anchors = rows[tested], flat[tested], anchors[tested]
    windows = stack[rows[:, None], pos[:, None] + np.arange(p)]
    windows.sort(axis=1)
    window_meds = _middle(windows)

    first = np.ones(pos.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (anchors[1:] != anchors[:-1])
    chunk = np.cumsum(first) - 1
    chunk_rows, chunk_anchors = rows[first], anchors[first]
    reject = np.empty(pos.size, dtype=bool)
    step = max(1, _TABLE_BLOCK_CELLS // int(chunk_anchors.max()))
    for start in range(0, chunk_rows.size, step):
        a = chunk_anchors[start:start + step, None]
        width = int(a.max())
        srt = np.where(np.arange(width) < a, stack[
            chunk_rows[start:start + step], :width], np.nan)
        srt.sort(axis=1)
        # Span of S[j : j + k]; k grows with a, so the widest chunk's
        # last start bounds every chunk's, and a start past a chunk's
        # own last one reads its NaN padding, which fmin skips.
        k = (a + p - 2) // 2 + 2 - p
        starts = np.arange(width - int(k.max()) + 1)
        spans = np.take(srt, (np.arange(0, srt.size, width)[:, None] + k - 1)
                        + starts) - srt[:, :starts.size]
        # Half the span needs no margin: fl(u + v) <= 2 max(fl u, fl v).
        floors = np.fmin.reduce(spans, axis=1) * 0.5
        begin, end = np.searchsorted(chunk, [start, start + step])
        at, b = chunk[begin:end] - start, pos[begin:end]
        d = b - anchors[begin:end]
        band = policy.deviation_sigmas * (MAD_TO_SIGMA * floors[at] + 1e-9)
        w = window_meds[begin:end]
        reject[begin:end] = ((w - srt[at, (b - 1) // 2 - d] <= band)
                             & (srt[at, b // 2] - w <= band))
    keep[tested[reject]] = False
    return keep


def _confirmed_directions(padded: Tuple[np.ndarray, np.ndarray],
                          candidates: Sequence[np.ndarray],
                          policy: ChangeDeclarationPolicy
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The persistence rule: :func:`_screened`, then one
    :func:`_gating_table` over what the screen could not reject, both on
    the ``(stack, lengths)`` of finite rows the table reads.

    Returns ``(directions, meds, bands)`` over the concatenated
    candidates: ``0`` where the rule rejects a position (window median
    inside the deviation band around the baseline median, or no window:
    NaN compares false), else the direction ``+1`` / ``-1``, with the
    baseline median and band a declaration's start reads.
    """
    sizes = [c.size for c in candidates]
    keep = _screened(padded, candidates, sizes, policy)
    if keep is not None:
        bounds = list(accumulate(sizes, initial=0))
        candidates = [c[keep[s:e]] for c, s, e
                      in zip(candidates, bounds, bounds[1:])]
    meds, scales, window_meds = _gating_table(padded, candidates, policy)
    deviations = window_meds - meds
    bands = policy.deviation_sigmas * (MAD_TO_SIGMA * scales + 1e-9)
    directions = np.where(np.abs(deviations) > bands, np.sign(deviations),
                          0.0).astype(np.intp)
    if keep is None:
        return directions, meds, bands
    full, stats = np.zeros(keep.size, np.intp), np.full((2, keep.size), np.nan)
    if directions.any():                # what a declaration reads
        full[keep], stats[0, keep], stats[1, keep] = directions, meds, bands
    return full, stats[0], stats[1]


def _score_and_scan(where: np.ndarray, ask, policy: ChangeDeclarationPolicy,
                    horizon: int) -> Tuple[List[List[int]], np.ndarray]:
    """*Kernel, scan* for a stack whose gating table is done.

    ``where`` marks the confirmed positions and ``ask(mask)`` returns
    a stack holding the scores of the positions a mask of that shape
    sets.  Asks once, walks each row's armed positions oldest first — a
    declaration covers ``[t, t + horizon]`` and scanning resumes after
    it — and returns each row's declaring positions and the scores.
    """
    scores = ask(where)
    chains = []
    for armed in where & candidate_mask(scores, policy):
        chain, resume = [], 0
        for t in np.flatnonzero(armed).tolist():
            if t >= resume:
                chain.append(t)
                resume = t + horizon + 1
        chains.append(chain)
    return chains, scores


def _declared_changes(padded: Tuple[np.ndarray, np.ndarray],
                      chains: Sequence[tuple], gated: Tuple[np.ndarray, ...],
                      policy: ChangeDeclarationPolicy, lookahead: int,
                      first_only: bool) -> List[tuple]:
    """What the declaring positions of a pass declare, every row at once.

    ``chains[i]`` is ``(row, positions, offset, scores, since)``: row
    ``row`` of ``padded`` declares at ``positions``, oldest first; ``t``'s
    entry of ``gated`` (:func:`_confirmed_directions`) is at ``offset +
    t`` and its score at ``scores[t]``.  A change is declared once all
    consumed samples exist, so the persistence threshold floors FUNNEL's
    delay (section 4.4); its start reuses the table's baseline.  Returns
    per chain its reportable changes (under ``first_only`` the first)
    and the index of the last one walked."""
    stack, lengths = padded
    directions, meds, bands = gated
    horizon = max(policy.persistence - 1, lookahead)
    rows, positions, flat = map(np.array, zip(*[
        (row, t, offset + t) for row, chain, offset, _, _ in chains
        for t in chain]))
    starts = _change_starts(stack, rows, positions + policy.persistence - 1,
                            meds[flat], bands[flat]).tolist()
    kept, walks, at = [], [], 0   # (row, position, item, scores)
    for row, chain, _, scores, since in chains:
        first = len(kept)
        for item in range(at, at + len(chain)):
            if _reportable(starts[item], since):
                kept.append((row, chain[item - at], item, scores))
                if first_only:
                    break
        walks.append((first, len(kept), chain[item - at] + horizon))
        at += len(chain)
    kinds = _change_kinds(stack, [row for row, _, _, _ in kept],
                          [lengths[row] for row, _, _, _ in kept],
                          [starts[item] for _, _, item, _ in kept],
                          [t + horizon for _, t, _, _ in kept])
    changes = [DetectedChange(
        index=t + horizon, start_index=starts[item], score=float(scores[t]),
        kind=kind, direction=int(directions[flat[item]]))
        for (_, t, item, scores), kind in zip(kept, kinds)]
    return [(changes[first:end], walked) for first, end, walked in walks]


def _reportable(start_index, since):
    """Could the software change at bin ``since`` have caused a change
    that started at ``start_index`` (elementwise for arrays)?  A change
    that started before it is by definition pre-existing; a 1-bin slack
    tolerates start-estimation jitter."""
    return start_index >= since - 1


def declare_changes(series: Sequence[float], scores,
                    policy: Optional[ChangeDeclarationPolicy] = None,
                    first_only: bool = False,
                    lookahead: int = 0, since=None):
    """Apply the declaration rule: score above threshold *and* persistent.

    A position declares a change when its score exceeds the threshold
    and the *median* of the ``persistence`` bins starting at it deviates
    from the pre-position baseline median by more than
    ``deviation_sigmas`` robust sigmas — a median over the persistence
    window is what "lasting more than 7 minutes" means for a noisy
    series: a one-off spike or a sub-threshold wobble cannot move it,
    while a genuine level shift or ramp does even when individual bins
    dip back into the noise band.  A position that fails either half is
    simply skipped and scanning resumes.

    The conjunction is evaluated cheap half first — *table, kernel,
    scan* — in rounds over stretches of positions in time order: a
    gating table decides persistence over the pending rows' next stretch
    (it never reads a score), the scores are asked for only where it
    confirms, and the scan walks the armed survivors oldest first.  A
    position declares iff it is confirmed, armed and outside every
    earlier declaration's ``[t, t + horizon]`` — nothing to its right
    matters — so the rounds give the one-pass chain: what scoring
    everything and confirming the armed positions one by one (the
    reference in ``tests/live/oracle.py``) gives.  A row leaves when it
    has no positions left or, under ``first_only``, its answer; where the
    stretches end and the first starts (without ``first_only``: one,
    the whole row) is derived in ``docs/algorithms.md`` section 5.

    Args:
        series: the (normalised or raw) KPI samples — or a
            ``(n_series, T)`` stack of them: one gating table a round
            covers every row, and a series is just the one-row case.
        scores: the per-sample change scores, same shape as ``series``
            — or a callable that computes them on demand: handed a
            boolean mask of the 2-D stack's shape, it returns a finite
            array of that shape holding the score wherever the mask is
            set (:meth:`repro.core.ika.IkaSST.scores_batch` with
            ``where=``).  It is called once a round, for the confirmed
            positions — not at all when none confirms.
        policy: declaration thresholds; defaults are the paper's.
        first_only: return only each row's first reportable change (the
            engine and the online deployment mode — one alert per item
            is enough) and stop deciding the row there.
        lookahead: extra future samples the *score* at an index consumed
            (``2*omega - 2`` for the SST family).  In deployment the
            score at position ``t`` is only computable once those
            samples have arrived, so the declaration index — and hence
            the detection delay of section 4.4 — must account for them.
        since: the software change's bin index — one for every row, or
            one per row.  Only changes starting at/after it (1-bin
            slack) are reportable and returned; an earlier one still
            blocks its ``[t, t + horizon]``.  ``None``: every declared
            change is reportable.

    Returns:
        Reportable changes ordered by detection index, each carrying the
        declaring position's score, the estimated start index,
        classification and direction; for a stack, one such list per row.
    """
    x = np.asarray(series, dtype=np.float64)
    every = None if callable(scores) else np.asarray(scores, dtype=np.float64)
    shape = x.shape if every is None else every.shape
    if x.ndim not in (1, 2) or shape != x.shape:
        raise ParameterError(
            "series %r and scores %r must be equal-length series or "
            "equal-shape stacks" % (x.shape, shape))
    # Checked here, not in ``ask``: a quiet stack never asks.
    if not (np.isfinite(x).all()
            and (every is None or np.isfinite(every).all())):
        raise ParameterError("series or scores contain NaN or infinite values")
    stack = np.atleast_2d(x)
    n_rows, width = stack.shape
    if every is not None:                  # every score already in hand
        every = every.reshape(stack.shape)
        scores = lambda where: every
    policy = policy or ChangeDeclarationPolicy()
    if lookahead < 0:
        raise ParameterError("lookahead must be >= 0")
    since = _per_row("since", 0 if since is None else since, n_rows, 0, width)

    def ask(where: np.ndarray) -> np.ndarray:
        got = np.asarray(scores(where), dtype=np.float64)
        if got.shape != where.shape or not np.isfinite(got).all():
            raise ParameterError(
                "scores must be a finite stack of shape %r, got %r"
                % (where.shape, got.shape))
        return got

    # A declaration needs its index inside the series: later positions
    # cannot declare whatever their window and score say.
    horizon = max(policy.persistence - 1, lookahead)
    last = max(0, width - horizon)
    # The padding is per call, not per round.
    padded = (stack, np.full(n_rows, width))
    out: List[List[DetectedChange]] = [[] for _ in range(n_rows)]
    # Per row, the stretch ``[cursor, end)`` its next round decides: the
    # cursor is past every position tabled and every declared stretch.
    # Under ``first_only`` a row starts ``horizon`` positions before its
    # first end — nothing earlier is reportable or reaches past that end —
    # and over, from bin 0, if one declares: something earlier may block it.
    ends = (np.clip(since - policy.persistence, 0, last).tolist()
            if first_only else [last] * n_rows)
    cursor = [max(0, end - horizon) if first_only else 0 for end in ends]
    lead_in = True
    step = policy.persistence
    pending = list(range(n_rows)) if last else []
    while pending:
        candidates = [np.arange(0)] * n_rows
        for row in pending:
            candidates[row] = np.arange(cursor[row], ends[row])
        gated = _confirmed_directions(padded, candidates, policy)
        chains, redo = [[]] * n_rows, set()
        if gated[0].any():
            confirmed = gated[0] != 0
            sizes = [c.size for c in candidates]
            where = np.zeros(stack.shape, dtype=bool)
            where[np.repeat(np.arange(n_rows), sizes)[confirmed],
                  np.concatenate(candidates)[confirmed]] = True
            chains, got = _score_and_scan(where, ask, policy, horizon)
            offsets = list(accumulate(sizes, initial=0))
            redo = {row for row in pending
                    if lead_in and cursor[row] and chains[row]}
            declaring = [(row, chains[row], offsets[row] - cursor[row],
                          got[row], since[row]) for row in pending
                         if chains[row] and row not in redo]
            for (row, *_), (kept, _) in zip(declaring, _declared_changes(
                    padded, declaring, gated, policy, lookahead, first_only)
                    if declaring else ()):
                out[row] += kept
        for row in pending:
            if row in redo:
                cursor[row] = 0
                continue
            if chains[row]:             # decided too: nothing in it declares
                ends[row] = max(ends[row], chains[row][-1] + horizon + 1)
            cursor[row] = ends[row]
            ends[row] = min(last, cursor[row] + step)
        lead_in = False
        step *= 2
        pending = [row for row in pending if cursor[row] < last
                   and not (first_only and out[row])]
    return out if x.ndim == 2 else out[0]


def candidate_mask(scores: Sequence[float],
                   policy: Optional[ChangeDeclarationPolicy] = None
                   ) -> np.ndarray:
    """Boolean mask of armed candidate indices (``score > threshold``).

    Accepts a 1-D score series or a 2-D ``(n_series, T)`` stack.
    """
    s = np.asarray(scores, dtype=np.float64)
    policy = policy or ChangeDeclarationPolicy()
    return s > policy.score_threshold
