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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import DetectedChange, as_float_array
from .robust import MAD_TO_SIGMA, median_and_mad

__all__ = [
    "PERSISTENCE_MINUTES",
    "robust_normalise",
    "robust_normalise_batch",
    "estimate_change_start",
    "classify_change",
    "ChangeDeclarationPolicy",
    "candidate_mask",
    "declare_changes",
    "confirm_candidate",
]

#: Minimum duration (in 1-minute bins) a deviation must persist before it
#: is declared a KPI change rather than a one-off event.
PERSISTENCE_MINUTES = 7


def robust_normalise(series: Sequence[float], baseline: Optional[int] = None,
                     epsilon: float = 1e-9,
                     stats: Optional[Tuple[float, float]] = None) -> np.ndarray:
    """Centre/scale a series by the median/MAD of its baseline prefix.

    ``(x - median) / (MAD_TO_SIGMA * MAD + epsilon)`` where the statistics
    are computed over the first ``baseline`` samples (the pre-change
    period), or the whole series when ``baseline`` is ``None``.  After this
    transform the Eq. 11 gate magnitudes are in robust-sigma units, so one
    fixed declaration threshold works for every KPI.

    Args:
        series: the KPI samples.
        baseline: length of the pre-change prefix the statistics cover.
        epsilon: scale regulariser for constant baselines.
        stats: precomputed ``(median, MAD)`` of the baseline prefix —
            pass the cached value (see
            :class:`repro.engine.cache.BaselineStatsCache`) to skip the
            recomputation; must equal what ``median_and_mad`` would
            return on the same prefix.

    The one-row case of :func:`robust_normalise_batch`.
    """
    return robust_normalise_batch(as_float_array(series)[None, :], baseline,
                                  epsilon, [stats])[0]


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
    epsilon: float = 1e-9,
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
        epsilon: scale regulariser for constant baselines.
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
    return (x - meds[:, None]) / (MAD_TO_SIGMA * scales[:, None] + epsilon)


def estimate_change_start(series: Sequence[float], detected_at: int,
                          baseline: Optional[int] = None,
                          threshold_sigmas: float = 3.0) -> int:
    """Estimate the index at which a detected change actually started.

    Scans backwards from ``detected_at`` and returns the first index of the
    trailing run of samples that deviate from the pre-change baseline by
    more than ``threshold_sigmas`` robust sigmas.  If nothing qualifies
    (e.g. a slow ramp still inside the noise band), returns
    ``detected_at`` itself.

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
    start = detected_at
    for i in range(detected_at, -1, -1):
        if abs(x[i] - med) > band:
            start = i
        else:
            break
    return start


def _step_fit_sse(segment: np.ndarray) -> float:
    """Best single-step (level-shift) fit SSE over ``segment``."""
    n = segment.size
    best = float(np.sum((segment - segment.mean()) ** 2))
    cumsum = np.cumsum(segment)
    total = cumsum[-1]
    sq_total = float(np.sum(segment ** 2))
    for split in range(1, n):
        left_sum = cumsum[split - 1]
        right_sum = total - left_sum
        sse = (sq_total
               - left_sum ** 2 / split
               - right_sum ** 2 / (n - split))
        if sse < best:
            best = sse
    return max(best, 0.0)


def _ramp_fit_sse(segment: np.ndarray) -> float:
    """Least-squares linear (ramp) fit SSE over ``segment``."""
    n = segment.size
    t = np.arange(n, dtype=np.float64)
    design = np.column_stack([t, np.ones(n)])
    coef, _, _, _ = np.linalg.lstsq(design, segment, rcond=None)
    resid = segment - design @ coef
    return float(resid @ resid)


def classify_change(series: Sequence[float], start: int, detected_at: int,
                    context: int = 10) -> str:
    """Classify a change as ``"level_shift"`` or ``"ramp"`` (Fig. 2).

    Compares the best piecewise-constant (step) fit with the best linear
    fit over the change region plus ``context`` samples on each side.  A
    level shift is fit much better by the step; a gradual ramp by the
    line.  Ties (both fits comparable) default to ``"level_shift"``,
    matching the paper's observation that level shifts are the common
    case immediately after a software change.
    """
    x = as_float_array(series)
    lo = max(0, start - context)
    hi = min(x.size, detected_at + context + 1)
    segment = x[lo:hi]
    if segment.size < 4:
        return "level_shift"
    step_sse = _step_fit_sse(segment)
    ramp_sse = _ramp_fit_sse(segment)
    return "ramp" if ramp_sse < 0.8 * step_sse else "level_shift"


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


def _gating_table(series, candidates: Sequence[np.ndarray],
                  policy: ChangeDeclarationPolicy) -> Tuple[
                      np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-position confirmation statistics for a ragged stack, in bulk.

    ``candidates[i]`` holds the positions to decide on the 1-D series
    ``series[i]`` — every one a declaration could come from.  For each
    the persistence rule consumes the baseline
    ``median_and_mad(x[:max(1, c)])`` and the persistence window's
    ``median(x[c:c+persistence])``.  The table computes them all (every
    row of a stack, every detector of a pool pass; one series is the
    one-row case) with two NaN-padded sorts per block of positions and
    one axis-median, bitwise equal to the per-candidate calls (pinned in
    ``tests/core/test_scoring.py``).  A caller that tables the same
    rows stretch after stretch passes ``series`` as the ``(stack,
    lengths, finite)`` it would be padded to here, built once.

    Returns ``(meds, scales, window_medians, finite)``: the statistics
    aligned with the concatenated candidates — a window median is NaN
    when the window does not fit its series (:func:`confirm_candidate`
    rejects those) — and, per series, whether all its samples are
    finite; the NaN padding cannot encode a series that is not, so its
    statistics are meaningless.
    """
    if isinstance(series, tuple):
        stack, lengths, finite = series
    else:
        lengths = np.array([len(x) for x in series], dtype=np.intp)
        stack = np.full((lengths.size, int(lengths.max(initial=0))), np.nan)
        for row, x in enumerate(series):
            stack[row, :lengths[row]] = x
        finite = np.isfinite(stack).sum(axis=1) == lengths
    sizes = [c.size for c in candidates]
    meds = np.empty(sum(sizes), dtype=np.float64)
    scales = np.empty(meds.size, dtype=np.float64)
    window_meds = np.full(meds.size, np.nan)
    if not meds.size:
        return meds, scales, window_meds, finite
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
        lo, hi = (policy.persistence - 1) // 2, policy.persistence // 2
        window_meds[fits] = (windows[:, lo] if lo == hi else
                             (windows[:, lo] + windows[:, hi]) / 2.0)
    return meds, scales, window_meds, finite


def _confirmed_directions(series, candidates: Sequence[np.ndarray],
                          policy: ChangeDeclarationPolicy
                          ) -> List[Optional[np.ndarray]]:
    """The persistence rule over one :func:`_gating_table`.

    Entry ``[i][j]`` is ``0`` where :func:`confirm_candidate` rejects
    ``candidates[i][j]`` (window median inside the deviation band, or no
    window: NaN compares false) and the declared direction ``+1`` /
    ``-1`` where it confirms — the same comparison on the same floats.
    Entry ``[i]`` is ``None`` for a series with non-finite samples: the
    caller runs :func:`confirm_candidate` on it instead.
    """
    meds, scales, window_meds, finite = _gating_table(series, candidates,
                                                      policy)
    deviations = window_meds - meds
    bands = policy.deviation_sigmas * (MAD_TO_SIGMA * scales + 1e-9)
    flat = np.where(np.abs(deviations) > bands, np.sign(deviations),
                    0.0).astype(np.intp)
    out, start = [], 0
    for row, ok in zip(candidates, finite.tolist()):
        out.append(flat[start:start + row.size] if ok else None)
        start += row.size
    return out


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


def _declared_change(x: np.ndarray, scores: np.ndarray, candidate: int,
                     direction: int, policy: ChangeDeclarationPolicy,
                     lookahead: int) -> Optional[DetectedChange]:
    """What a confirmed candidate declares.  The change is declared at
    the wall-clock bin by which all consumed samples exist: the later of
    the persistence window's end and the scoring lookahead horizon — so
    FUNNEL's detection delay has the persistence threshold as its floor
    (paper section 4.4)."""
    detected_at = candidate + max(policy.persistence - 1, lookahead)
    if detected_at >= x.size:
        return None
    start = estimate_change_start(
        x, min(candidate + policy.persistence - 1, detected_at),
        baseline=candidate, threshold_sigmas=policy.deviation_sigmas,
    )
    return DetectedChange(
        index=detected_at,
        start_index=start,
        score=float(scores[candidate]),
        kind=classify_change(x, start, detected_at),
        direction=direction,
    )


def _reportable(change: DetectedChange, since: int) -> bool:
    """Could the software change at bin ``since`` have caused ``change``?
    A change that started before it is by definition pre-existing; a
    1-bin slack absorbs start-estimation jitter."""
    return change.start_index >= since - 1


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
    everything and confirming the armed positions one by one
    (:func:`confirm_candidate`) gives.  A row leaves when it has no
    positions left or, under ``first_only``, its answer; where the
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
    # The padding and its finite check are per call, not per round.
    padded = (stack, np.full(n_rows, width), np.ones(n_rows, dtype=bool))
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
        found = _confirmed_directions(padded, candidates, policy)
        where = np.zeros(stack.shape, dtype=bool)
        for row in pending:
            where[row, cursor[row]:ends[row]] = found[row] != 0
        chains, got = (_score_and_scan(where, ask, policy, horizon)
                       if where.any() else ([[]] * n_rows, None))
        for row in pending:
            if lead_in and cursor[row] and chains[row]:
                cursor[row] = 0
                continue
            for t in chains[row]:
                change = _declared_change(
                    stack[row], got[row], t,
                    int(found[row][t - cursor[row]]), policy, lookahead)
                if _reportable(change, since[row]):
                    out[row].append(change)
                    if first_only:
                        break
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


def confirm_candidate(x: np.ndarray, scores: np.ndarray, candidate: int,
                      policy: ChangeDeclarationPolicy,
                      lookahead: int = 0) -> Optional[DetectedChange]:
    """Run the persistence check for a candidate armed at ``candidate``.

    Confirms when the median of ``x[candidate : candidate+persistence]``
    sits more than the deviation band away from the pre-candidate
    baseline median, each computed with a plain ``np.median``.

    This is the reference rule of :func:`declare_changes`: the gating
    table is tested against it, and a live scan falls back to it for a
    series carrying non-finite samples, which the table cannot encode.
    """
    end = candidate + policy.persistence
    if end > x.size:
        return None
    baseline = max(1, candidate)
    med, scale = median_and_mad(x[:baseline])
    band = policy.deviation_sigmas * (MAD_TO_SIGMA * scale + 1e-9)

    window_median = float(np.median(x[candidate:end]))
    deviation = window_median - med
    if abs(deviation) <= band:
        return None
    return _declared_change(x, scores, candidate,
                            1 if deviation > 0 else -1, policy, lookahead)
