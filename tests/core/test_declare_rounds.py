"""Stop at the answer: ``declare_changes`` in rounds, ``first_only`` and
``since``.

Under ``first_only`` a row leaves the declaration pass at its first
*reportable* change — one starting at/after the row's ``since`` — and the
pass runs in rounds over stretches of positions (the first is the
``horizon`` positions before ``since - persistence`` — the lead-in; a
declaration inside it sends the row back to bin 0 — then widths
``persistence``, 2x, 4x ...).  What must come out is defined without any of that: score every position,
confirm each armed candidate oldest first (``tests/live/oracle.py``),
keep the reportable ones, take the first.  Compared as whole
:class:`~repro.types.DetectedChange` s, ``score`` and ``kind`` included.

Also here: every input check fires before the first round, whatever the
rounds would have asked for, and the work a stack costs is bounded where
the rule says it is — counted at ``IkaSST._raw_scores`` and at
``_confirmed_directions``, where a position is decided (screened out or
tabled).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.core.funnel import Funnel, FunnelConfig
from repro.core.ika import IkaSST
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import (ChangeDeclarationPolicy, _reportable,
                                declare_changes, robust_normalise)
from repro.exceptions import InsufficientDataError, ParameterError

from ..live.oracle import _confirmed, eager_changes
from ..live.test_lazy_eager import SHAPES as COMMON_SHAPES
from ..live.test_lazy_eager import _series as common_series
from .test_scoring import padded

CONFIG = FunnelConfig()
#: bins from a declaring position to its declaration index (w = 9, p = 7)
HORIZON = 16
SINCE = 80


def stretch_ends(since, width, config=CONFIG):
    """The documented schedule: where each round's stretch ends."""
    persistence = config.policy.persistence
    last = width - max(persistence - 1, config.sst.lookahead - 1)
    ends, step = [min(max(since - persistence, 0), last)], persistence
    while ends[-1] < last:
        ends.append(min(last, ends[-1] + step))
        step *= 2
    return ends


def _noise(seed, size=240):
    return 10.0 + np.random.default_rng(seed).normal(0, 0.5, size=size)


def _blocked():
    """A bump before the change declares, is not reportable, and its
    stretch covers the first candidates of the real shift."""
    x = _noise(1)
    x[73:81] += 7.0
    x[79:] -= 6.0
    return x, SINCE


def _early_bump():
    """The bump's ``[t, t + horizon]`` ends before the lead-in starts:
    the row never looks at it."""
    x = _noise(8)
    x[25:33] += 7.0
    x[82:] -= 6.0
    return x, SINCE


def _lead_in():
    """The bump declares inside the lead-in: the row starts over."""
    x = _noise(9)
    x[62:70] += 7.0
    x[82:] -= 6.0
    return x, SINCE


def _chained():
    """A bump before the lead-in blocks a dip inside it, which would
    otherwise block the real shift's first candidate."""
    x = _noise(10)
    x[51:59] += 7.0
    x[64:68] -= 7.0
    x[79:] -= 6.0
    return x, SINCE


def _straddle():
    """Declares at 93, inside the stretch [80, 94): its own
    ``[t, t + horizon]`` reaches 109."""
    x = _noise(2)
    x[96:] += 4.0
    return x, SINCE


def _late_ramp():
    x = _noise(3)
    x[190:215] += np.linspace(0, 5, 25)
    x[215:] += 5.0
    return x, SINCE


def _two():
    """Two reportable changes (the second late enough for the raised
    level to have become the prefix median)."""
    x = 50.0 + np.random.default_rng(20).normal(0, 1.0, size=420)
    x[120:] += 8.0
    x[320:] -= 14.0
    return x, 100


def _quiet():
    return _noise(5), SINCE


FIXTURES = {"blocked": _blocked, "straddle": _straddle,
            "late-ramp": _late_ramp, "two": _two, "quiet": _quiet,
            "early-bump": _early_bump, "lead-in": _lead_in,
            "chained": _chained}


def _scored(x, since, config=CONFIG):
    """The normalised series and every score: the eager side's inputs."""
    xs = robust_normalise(x, baseline=max(since, 1))
    return xs, IkaSST(config.sst).scores(xs)


def _chain(x, since, cursor=0, config=CONFIG):
    """Every declaration of the full scan from ``cursor`` on, reportable
    or not, as ``(position, change)``."""
    xs, scores = _scored(x, since, config)
    horizon = max(config.policy.persistence - 1, config.sst.lookahead - 1)
    return [(change.index - horizon, change)
            for _, change in _confirmed(xs, scores, config, cursor)]


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_first_only_is_the_head_of_the_full_scan(self, name):
        x, since = FIXTURES[name]()
        expected = eager_changes(x, since)
        xs, scores = _scored(x, since)
        # The rule itself, every score in hand ...
        assert declare_changes(xs, scores, CONFIG.policy, True, HORIZON,
                               since=since) == expected[:1]
        assert declare_changes(xs, scores, CONFIG.policy, False, HORIZON,
                               since=since) == expected
        # ... and through the pipeline, scores on demand.
        funnel = Funnel()
        assert funnel.detect(x, since) == expected
        assert funnel.detect(x, since, first_only=True) == expected[:1]
        assert funnel.assess(x, since).change == (expected or [None])[0]

    def test_blocked_fixture_blocks(self):
        """Forgetting the pre-change declaration when the later
        stretches are scanned would report an earlier position."""
        x, since = _blocked()
        chain = _chain(x, since)
        (bump_at, bump), (at, change) = chain
        assert bump.start_index < since - 1 <= change.start_index
        assert bump_at < since - CONFIG.policy.persistence   # first stretch
        forgetful = _chain(x, since, cursor=since - CONFIG.policy.persistence)
        assert bump_at < forgetful[0][0] <= bump_at + HORIZON < at
        assert forgetful[0][1].start_index >= since - 1

    def test_straddle_fixture_straddles(self):
        x, since = _straddle()
        (at, change), = _chain(x, since)
        end = next(e for e in stretch_ends(since, x.size) if e > at)
        assert at < end <= at + HORIZON
        # The row leaves in that round, and its ``score`` is the one
        # cell the threshold compared: nothing past what confirms is
        # asked, inside the declared stretch or beyond the round's end.
        xs, scores = _scored(x, since)
        assert change.score == scores[at]
        asked = np.zeros(x.size, dtype=bool)

        def ask(where):
            asked[:] |= where[0]
            return IkaSST().scores_batch(xs[None, :], where=where)

        assert declare_changes(xs[None, :], ask, CONFIG.policy, True, HORIZON,
                               since=since) == [[change]]
        confirmed = scoring._confirmed_directions(
            padded([xs]), [np.arange(end)], CONFIG.policy)[0] != 0
        assert asked[at] and not asked[end:].any()
        assert not (asked[:end] & ~confirmed).any()

    @staticmethod
    def _tabled(x, since):
        """The row's positions per table call, and what came out."""
        xs, scores = _scored(x, since)
        with mock.patch.object(scoring, "_confirmed_directions",
                               wraps=scoring._confirmed_directions) as table:
            declared = declare_changes(xs, scores, CONFIG.policy, True,
                                       HORIZON, since=since)
        return [call.args[1][0].tolist()
                for call in table.call_args_list], declared

    def test_early_bump_is_never_tabled(self):
        x, since = _early_bump()
        p0 = since - CONFIG.policy.persistence
        (bump_at, bump), (at, change) = _chain(x, since)
        assert bump_at + HORIZON < p0 - HORIZON and at >= p0
        tabled, declared = self._tabled(x, since)
        assert tabled[0] == list(range(p0 - HORIZON, p0))
        assert tabled[1][0] == p0                  # no fallback
        assert declared == [change] == eager_changes(x, since)[:1]

    @pytest.mark.parametrize("name", ["lead-in", "chained", "blocked"])
    def test_a_declaration_in_the_lead_in_restarts_the_row(self, name):
        x, since = FIXTURES[name]()
        p0 = since - CONFIG.policy.persistence
        tabled, declared = self._tabled(x, since)
        assert tabled[0] == list(range(p0 - HORIZON, p0))
        assert tabled[1] == list(range(p0))        # the fallback
        assert declared == eager_changes(x, since)[:1] != []

    def test_chained_fixture_chains(self):
        """Starting the scan at the lead-in, without the fallback, lets
        the dip declare and block the position that reports."""
        x, since = _chained()
        start = since - CONFIG.policy.persistence - HORIZON
        (bump_at, bump), (at, change) = _chain(x, since)
        assert bump_at < start and _reportable(change.start_index, since)
        (dip_at, dip), (late, _) = _chain(x, since, cursor=start)
        assert start <= dip_at <= bump_at + HORIZON < at <= dip_at + HORIZON
        assert late > at and not _reportable(dip.start_index, since)

    def test_late_ramp_declares_in_the_last_round(self):
        x, since = _late_ramp()
        (at, change), = _chain(x, since)
        assert at >= stretch_ends(since, x.size)[-2]
        assert change.kind == "ramp"

    def test_second_change_is_never_built(self):
        x, since = _two()
        assert len(eager_changes(x, since)) == 2
        with mock.patch.object(scoring, "_change_kinds",
                               wraps=scoring._change_kinds) as built:
            assert len(Funnel().detect(x, since, first_only=True)) == 1
            assert sum(len(call.args[1]) for call in built.call_args_list) \
                == 1
            assert len(Funnel().detect(x, since)) == 2
            assert sum(len(call.args[1]) for call in built.call_args_list) \
                == 3


#: the lazy/eager property's shapes, plus three the rounds must get right
SHAPES = COMMON_SHAPES + ("late-ramp", "two-visible", "blocked")


def _series(rng, n, since, shape):
    if shape in COMMON_SHAPES:
        return common_series(rng, n, since, shape)
    x = 10.0 + rng.normal(0, 0.5, size=n)
    size = float(rng.choice([-6.0, -4.0, 4.0, 7.0]))
    if shape == "late-ramp":              # declares in the last rounds
        at = n - int(rng.integers(30, 50))
        x[at:at + 15] += np.linspace(0.0, size, 15)
        x[at + 15:] += size
    elif shape == "two-visible":          # across zero: the second arms too
        at = since + int(rng.integers(0, 12))
        x[at:] += size
        x[at + int(rng.integers(18, 61)):] -= 1.75 * size
    else:                                 # a bump, the shift in its stretch
        bump = since - int(rng.integers(5, 12))
        x[bump:bump + 8] += 7.0
        x[bump + int(rng.integers(5, 9)):] -= 6.0
    return x


@st.composite
def stacks(draw):
    config = FunnelConfig(
        sst=ImprovedSSTParams(omega=draw(st.sampled_from([3, 5, 9]))),
        policy=ChangeDeclarationPolicy(
            persistence=draw(st.sampled_from([3, 7, 12]))))
    height = draw(st.sampled_from([1, 3, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    n = int(rng.integers(170, 260)) if height < 17 \
        else int(rng.integers(120, 150))
    indices = [int(rng.integers(40, 90)) if rng.random() < 0.8
               else int(rng.integers(12, 20)) for _ in range(height)]
    stack = np.vstack([
        _series(rng, n, since, SHAPES[int(rng.integers(len(SHAPES)))])
        for since in indices])
    return config, stack, indices


@given(stacks())
@settings(max_examples=30, deadline=None)
def test_first_only_equals_head_of_the_eager_scan(case):
    config, stack, indices = case
    expected = [eager_changes(row, since, config)
                for row, since in zip(stack, indices)]
    funnel = Funnel(config)
    assert funnel.detect_batch(stack, indices) == expected
    assert funnel.detect_batch(stack, indices, first_only=True) == \
        [changes[:1] for changes in expected]
    # The rule on its own, every score in hand, mixed ``since`` per row.
    normalised = np.vstack([robust_normalise(row, baseline=max(since, 1))
                            for row, since in zip(stack, indices)])
    scores = IkaSST(config.sst).scores_batch(normalised)
    assert declare_changes(
        normalised, scores, config.policy, True, config.sst.lookahead - 1,
        since=indices) == [changes[:1] for changes in expected]
    # The premise of the first stretch, its end and its start: nothing
    # declared from before ``since - persistence`` is reportable.
    horizon = max(config.policy.persistence, config.sst.lookahead) - 1
    for x, row, since in zip(normalised, scores, indices):
        for _, change in _confirmed(x, row, config):
            if change.index - horizon < since - config.policy.persistence:
                assert not _reportable(change.start_index, since)


class TestValidatesFirst:
    """Every check runs before the first round, on a stack so quiet that
    no round would ever have asked for a score."""

    QUIET = np.zeros((3, 60))

    @pytest.fixture(autouse=True)
    def _no_work(self):
        """Nothing is tabled or scored on the way to the error."""
        with mock.patch.object(scoring, "_confirmed_directions",
                               side_effect=AssertionError("decided")):
            yield

    @staticmethod
    def _never(where):
        raise AssertionError("asked")

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match="equal-shape"):
            declare_changes(self.QUIET, np.zeros((3, 59)), first_only=True)

    def test_non_finite_series(self):
        bad = self.QUIET.copy()
        bad[2, 59] = np.inf
        with pytest.raises(ParameterError, match="NaN or infinite"):
            declare_changes(bad, self._never, first_only=True, since=30)

    def test_non_finite_score_array_on_a_quiet_stack(self):
        """No position confirms, so no round ever asks: the array is
        checked up front or not at all."""
        scores = np.zeros_like(self.QUIET)
        scores[1, 40] = np.nan
        for first_only in (False, True):
            with pytest.raises(ParameterError, match="NaN or infinite"):
                declare_changes(self.QUIET, scores, first_only=first_only)

    def test_negative_lookahead(self):
        with pytest.raises(ParameterError, match="lookahead"):
            declare_changes(self.QUIET, self._never, lookahead=-1)

    @pytest.mark.parametrize("since", [
        [10, 20], [[10, 20, 30]], [10, 20, 61], [-1, 20, 30], -1, 61])
    def test_since_is_one_in_range_entry_per_row(self, since):
        with pytest.raises(ParameterError, match="since"):
            declare_changes(self.QUIET, self._never, since=since)

    @pytest.mark.parametrize("width", [9, 20, 33])
    @pytest.mark.parametrize("first_only", [False, True])
    def test_series_too_short_to_score(self, width, first_only):
        """One bin short of a window pair (w = 9: 34 bins) is refused
        whether or not a position would have confirmed and asked."""
        with pytest.raises(InsufficientDataError, match="shorter than"):
            Funnel().detect_batch(np.zeros((2, width)), [5, 5],
                                  first_only=first_only)

    @pytest.mark.parametrize("shape", [(3, 16), (3, 5), (3, 0), (0, 60),
                                       (16,), (0,)])
    def test_no_declarable_position_is_no_work(self, shape):
        """Narrower than the horizon, or empty: empty lists, without a
        table or kernel call."""
        declared = declare_changes(np.zeros(shape), self._never,
                                   first_only=True, lookahead=HORIZON)
        assert declared == ([[]] * shape[0] if len(shape) == 2 else [])


@pytest.mark.parametrize("since", [None, 0, 3, 7])
def test_an_empty_first_stretch_starts_the_row_at_the_next(since):
    """``since - persistence <= 0`` (or no ``since``): nothing can only
    block, so the row starts with the first ``persistence`` positions."""
    x = _noise(7)
    x[40:] += 4.0
    xs, scores = _scored(x, 30)
    expected = [change for _, change in _confirmed(xs, scores, CONFIG)]
    assert expected[0].start_index == 40
    with mock.patch.object(scoring, "_confirmed_directions",
                           wraps=scoring._confirmed_directions) as table:
        assert declare_changes(xs, scores, CONFIG.policy, True, HORIZON,
                               since=since) == expected[:1]
    tabled = [call.args[1][0] for call in table.call_args_list]
    assert tabled[0].size == 0
    assert tabled[1].tolist() == list(range(CONFIG.policy.persistence))


def test_mixed_since_in_one_stack_starts_each_row_where_it_can():
    """``since < persistence + horizon``: no room for a lead-in, the row
    starts at bin 0; its neighbours start at theirs."""
    stack = np.vstack([_noise(seed) for seed in (11, 12, 13, 14)])
    stack[:, 100:] += 4.0
    indices = [SINCE, 15, 22, 24]
    normalised = np.vstack([robust_normalise(row, baseline=since)
                            for row, since in zip(stack, indices)])
    scores = IkaSST().scores_batch(normalised)
    with mock.patch.object(scoring, "_confirmed_directions",
                           wraps=scoring._confirmed_directions) as table:
        assert declare_changes(
            normalised, scores, CONFIG.policy, True, HORIZON,
            since=indices) == [eager_changes(row, since)[:1]
                               for row, since in zip(stack, indices)]
    assert [c.tolist() for c in table.call_args_list[0].args[1]] == [
        list(range(57, 73)), list(range(8)), list(range(15)),
        list(range(1, 17))]


class TestWorkBound:
    """A 12 x 240 stack with an 8-sigma shift at bin 80."""

    ROWS, WIDTH = 12, 240

    @classmethod
    def _stack(cls, shift=4.0):
        stack = 10.0 + np.random.default_rng(31).normal(
            0, 0.5, size=(cls.ROWS, cls.WIDTH))
        stack[:, SINCE:] += shift
        return stack

    @staticmethod
    def _counted(monkeypatch):
        """``(windows per kernel call, positions decided per table)``."""
        windows, tabled = [], []
        raw, decide = IkaSST._raw_scores, scoring._confirmed_directions

        def counting_raw(self, pairs, future):
            windows.append(future.size)
            return raw(self, pairs, future)

        def counting_decide(series, candidates, policy):
            tabled.append([c.copy() for c in candidates])
            return decide(series, candidates, policy)

        monkeypatch.setattr(IkaSST, "_raw_scores", counting_raw)
        monkeypatch.setattr(scoring, "_confirmed_directions", counting_decide)
        return windows, tabled

    def test_a_declared_row_costs_nothing_more(self, monkeypatch):
        stack, since = self._stack(), [SINCE] * self.ROWS
        windows, tabled = self._counted(monkeypatch)
        every = Funnel().detect_batch(stack, since)
        assert all(len(changes) == 1 for changes in every)
        # Without first_only: every position tabled, and the plateau
        # scored for as long as it confirms (until the raised level has
        # become the prefix median, some 50 positions a row).
        assert sum(windows) >= 45 * self.ROWS
        assert sum(c.size for call in tabled for c in call) == \
            (self.WIDTH - HORIZON) * self.ROWS
        del windows[:], tabled[:]
        assert Funnel().detect_batch(stack, since, first_only=True) == every
        # With it: the lead-in, then the schedule until the answer, and
        # a kernel call holds the positions that confirmed, no more.
        assert sum(windows) <= 6 * self.ROWS
        assert sum(c.size for call in tabled for c in call) <= 30 * self.ROWS
        assert sum(c.size for c in tabled[0]) == HORIZON * self.ROWS
        ends = stretch_ends(SINCE, self.WIDTH)
        assert len(tabled) <= len(ends)
        for row in range(self.ROWS):         # nothing is tabled twice
            positions = np.concatenate([call[row] for call in tabled])
            assert positions.tolist() == list(range(
                ends[0] - HORIZON, ends[0] - HORIZON + positions.size))
            assert positions[-1] + 1 in ends

    def test_without_first_only_it_is_one_stretch(self, monkeypatch):
        """One table over every declarable position, one ask for what
        confirms — the calls the single-pass rule made, in its order;
        a declared stretch that holds unconfirmed positions (row 0 ends
        inside its own) is not asked about again."""
        stack, since = self._stack(), [SINCE] * self.ROWS
        stack[0, SINCE + 8:] -= 4.0
        normalised = np.vstack([robust_normalise(row, baseline=SINCE)
                                for row in stack])
        scorer, calls = IkaSST(), []
        _, tabled = self._counted(monkeypatch)

        def ask(where):
            calls.append((where.copy(), len(tabled)))
            return scorer.scores_batch(normalised, where=where)

        declared = declare_changes(normalised, ask, lookahead=HORIZON,
                                   since=since)
        assert [[p.tolist() for p in call] for call in tabled] == \
            [[list(range(self.WIDTH - HORIZON))] * self.ROWS]
        (confirmed, after), = calls
        assert after == 1                         # table first, once
        found = scoring._confirmed_directions(padded(normalised), tabled[0],
                                              ChangeDeclarationPolicy())[0]
        assert confirmed[:, :self.WIDTH - HORIZON].tolist() == \
            (found.reshape(self.ROWS, -1) != 0).tolist()
        assert not confirmed[:, self.WIDTH - HORIZON:].any()
        at = declared[0][0].index - HORIZON
        assert not confirmed[0, at:at + HORIZON + 1].all()

    def test_a_quiet_stack_is_tabled_once_and_never_scored(self, monkeypatch):
        """Once from the lead-in on: the bins before it are not tabled
        at all."""
        stack = np.round(self._stack(shift=0.0), 1)           # ties
        windows, tabled = self._counted(monkeypatch)
        assert Funnel().detect_batch(stack, [SINCE] * self.ROWS,
                                     first_only=True) == [[]] * self.ROWS
        assert windows == []
        ends = stretch_ends(SINCE, self.WIDTH)
        assert len(tabled) == len(ends)
        for row in range(self.ROWS):
            positions = np.concatenate([call[row] for call in tabled])
            assert positions.tolist() == list(range(ends[0] - HORIZON,
                                                    self.WIDTH - HORIZON))
