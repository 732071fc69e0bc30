"""lazy == eager: the table-first declaration program against the
reference that scores everything first (``tests/live/oracle.py``).

``src/`` asks the kernel only where the gating table confirms and keeps
no score between passes; the reference scores every position of the
received prefix and confirms each armed candidate on its own.  They must
agree on whole :class:`~repro.types.DetectedChange` s — ``index``,
``start_index``, ``direction``, ``score``, ``kind`` — offline on stacks
and live on every call, and the work the lazy program hands the kernel
must be exactly the confirmed positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.funnel import Funnel, FunnelConfig
from repro.core.ika import IkaSST
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import (ChangeDeclarationPolicy, confirm_candidate,
                                robust_normalise)
from repro.exceptions import InsufficientDataError, ParameterError
from repro.live import DetectorPool, IncrementalDetector
from repro.live.pool import GATED_CANDIDATES_METRIC, SCORED_WINDOWS_METRIC
from repro.obs.metrics import MetricsRegistry

from .oracle import EagerDetector, _confirmed, eager_changes

SHAPES = ("quiet", "step", "ramp", "spike", "two", "pre-shift")


def _series(rng, n, change_index, shape):
    x = 10.0 + rng.normal(0, 0.5, size=n)
    at = change_index + int(rng.integers(0, 12))
    size = float(rng.choice([-6.0, -4.0, 4.0, 7.0]))
    if shape == "step":
        x[at:] += size
    elif shape == "ramp":
        length = int(rng.integers(8, 25))
        x[at:at + length] += np.linspace(0.0, size, length)[:n - at]
        x[at + length:] += size
    elif shape == "spike":
        x[at] += 9.0                      # one bin: never persistent
    elif shape == "two":                  # the resume chain
        x[at:] += size
        x[at + int(rng.integers(18, 61)):] += size
    elif shape == "pre-shift":            # confirmed, not reportable
        x[change_index - int(rng.integers(25, 40)):] += size
        if rng.random() < 0.5:
            x[at + 20:] -= size
    return x


@st.composite
def cases(draw):
    omega = draw(st.sampled_from([3, 5, 9]))
    config = FunnelConfig(
        sst=ImprovedSSTParams(omega=omega),
        policy=ChangeDeclarationPolicy(
            persistence=draw(st.sampled_from([3, 7, 12]))))
    height = draw(st.sampled_from([1, 3, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    n = int(rng.integers(150, 200)) if height < 17 \
        else int(rng.integers(110, 130))
    flaw = draw(st.sampled_from([None, None, None, "nan", "short"]))
    if flaw == "short":
        n = 4 * omega - 3                 # one bin short of a window pair
    indices = [int(rng.integers(60, 90)) if flaw != "short"
               else int(rng.integers(1, n)) for _ in range(height)]
    stack = np.vstack([
        _series(rng, n, ci, SHAPES[int(rng.integers(len(SHAPES)))]
                if flaw != "short" else "quiet") for ci in indices])
    if flaw == "nan":                     # arrives once every row passes
        stack[int(rng.integers(height)), int(rng.integers(100, n))] = np.nan
    pieces, fed = [], 0
    first = max(indices) if flaw != "short" else n
    step = draw(st.sampled_from([1, 4, 7, 12]))
    while fed < n:                        # baseline backfill, then chunks
        size = first if not pieces else \
            int(rng.integers(1, step + 1)) if step > 1 else 1
        pieces.append((fed, min(n, fed + size)))
        fed = pieces[-1][1]
    chunk = draw(st.sampled_from([1, 4, 7, 12]))
    deadline = int(rng.integers(1, len(pieces) + 1))   # flush after it
    return config, stack, indices, pieces[:deadline], chunk


def _raises(call):
    try:
        return None, call()
    except (ParameterError, InsufficientDataError) as error:
        return type(error), None


@given(cases())
@settings(max_examples=30, deadline=None)
def test_lazy_equals_eager(case):
    config, stack, indices, pieces, chunk = case
    # Offline: one stacked call against the reference row by row.
    failed, lazy = _raises(lambda: Funnel(config).detect_batch(stack, indices))
    eager = [_raises(lambda: eager_changes(row, ci, config))
             for row, ci in zip(stack, indices)]
    if failed is None:
        assert lazy == [changes for _, changes in eager]
    else:
        assert failed in [error for error, _ in eager]
    # Live: a pool over deferred detectors (a standalone one when the
    # stack is a single row) against one eager detector per row, call by
    # call, the deadline flush being the last.
    pool = DetectorPool()
    detectors = [IncrementalDetector(ci, config, score_chunk_bins=chunk,
                                     deferred_scoring=len(indices) > 1)
                 for ci in indices]
    references = [EagerDetector(ci, config, score_chunk_bins=chunk)
                  for ci in indices]
    for step, (lo, hi) in enumerate(pieces + [(None, None)]):
        def lazily():
            if len(detectors) == 1:
                found = (detectors[0].flush() if lo is None
                         else detectors[0].extend(stack[0, lo:hi]))
                return {} if found is None else {0: found}
            for detector, row in zip(detectors, stack):
                if lo is not None and detector.declared is None:
                    assert detector.extend(row[lo:hi]) is None
            return dict(pool.score_pending(detectors, flush=lo is None))

        def eagerly():
            found = {}
            for i, (reference, row) in enumerate(zip(references, stack)):
                if reference.declared is None:
                    change = (reference.flush() if lo is None
                              else reference.extend(row[lo:hi]))
                    if change is not None:
                        found[i] = change
            return found

        failed, found = _raises(lazily)
        expected_failure, expected = _raises(eagerly)
        assert failed == expected_failure, step
        if failed is not None:
            return                        # both refused the same call
        assert found == expected, step
    assert [d.declared for d in detectors] == \
        [r.declared for r in references]


class TestKernelWork:
    """Windows handed to the kernel == confirmed positions, and none
    for the rest of a declared stretch (a declaration's ``score`` is the
    declaring position's) — counted at ``IkaSST._raw_scores`` against a
    brute-force count of the rule."""

    CHANGE = 80
    #: ``persistence - 1 <`` and ``>`` the scoring lookahead: in the
    #: second a live declaration always finds scoreable bins of its
    #: stretch that no pass has decided yet — and leaves them unscored.
    CONFIGS = [FunnelConfig(), FunnelConfig(
        sst=ImprovedSSTParams(omega=5),
        policy=ChangeDeclarationPolicy(persistence=12))]

    @classmethod
    def _stack(cls):
        rng = np.random.default_rng(77)
        stack = 10.0 + rng.normal(0, 0.5, size=(4, 170))    # row 0: quiet
        stack[1, 95:108] += 5.0           # an excursion that ends
        stack[2, 45:] += 6.0              # a shift before the change ...
        stack[2, 110:] -= 6.0             # ... and the step back after it
        stack[3, 100] += 9.0              # a one-bin spike
        return stack

    @staticmethod
    def _windows(monkeypatch):
        """Window pairs per kernel call, while ``counted.on``."""
        class Counted(list):
            on = True
        counted = Counted()
        original = IkaSST._raw_scores

        def counting(self, windows, future):
            if counted.on:
                counted.append(future.size)
            return original(self, windows, future)

        monkeypatch.setattr(IkaSST, "_raw_scores", counting)
        return counted

    @staticmethod
    def _expected(config, x, n, cursor=0):
        """``(decidable, confirmed, unconfirmed)`` positions of one pass
        over ``x[:n]`` from ``cursor`` on.  Confirmed: the persistence
        window confirms and the declaration index fits — scores play no
        part.  Unconfirmed: the scoreable rest of the declared stretches,
        which nothing may score."""
        span, policy = config.sst.lead, config.policy
        horizon = max(policy.persistence - 1, span - 1)
        scoreable = set(range(span, n - span + 1))
        decidable = set(range(cursor, n - horizon)) & scoreable
        ignored = np.zeros(n)
        confirmed = {t for t in decidable if confirm_candidate(
            x[:n], ignored, t, policy, horizon) is not None}
        stretches = set()
        for _, change in _confirmed(x[:n], IkaSST(config.sst).scores(x[:n]),
                                    config, cursor, n - horizon - 1):
            stretches |= set(range(change.index - horizon, change.index + 1))
        return (len(decidable), len(confirmed),
                len((stretches & scoreable) - confirmed))

    @pytest.mark.parametrize("config", CONFIGS, ids=["w9-p7", "w5-p12"])
    def test_detect_batch_scores_confirmed_positions_and_stretches(
            self, config, monkeypatch):
        """One kernel call holding the confirmed positions; the rest of
        the declared stretches (the name's "and_stretches", scored until
        ``score`` stopped being their peak) is not asked for."""
        stack = self._stack()
        normalised = np.vstack([robust_normalise(row, baseline=self.CHANGE)
                                for row in stack])
        expected = [self._expected(config, row, row.size)
                    for row in normalised]
        eager = [eager_changes(row, self.CHANGE, config) for row in stack]
        counted = self._windows(monkeypatch)
        assert Funnel(config).detect_batch(stack, [self.CHANGE] * 4) == eager
        assert eager[0] == eager[3] == [] and len(eager[1]) == 1
        confirmed = sum(c for _, c, _ in expected)
        assert counted == [confirmed] and confirmed > 0
        # The excursion ends inside its stretch: offline that leaves
        # scoreable bins of it unconfirmed under the default config.
        unconfirmed = sum(u for _, _, u in expected)
        assert (unconfirmed > 0) == (config is self.CONFIGS[0])
        # The quiet and the spiked row cost (next to) nothing.
        assert expected[0][1] == 0 and expected[3][1] < 5

    @pytest.mark.parametrize("config", CONFIGS, ids=["w9-p7", "w5-p12"])
    def test_pooled_replay_scores_confirmed_positions_and_stretches(
            self, config, monkeypatch):
        """Live: the same count, pass by pass; the undecided bins of a
        declaring stretch are left unscored."""
        stack = self._stack()
        normalised = np.vstack([robust_normalise(row, baseline=self.CHANGE)
                                for row in stack])
        registry = MetricsRegistry()
        pool = DetectorPool(registry)
        detectors = [IncrementalDetector(self.CHANGE, config,
                                         deferred_scoring=True)
                     for _ in stack]
        references = [EagerDetector(self.CHANGE, config) for _ in stack]
        decided_to = [0] * len(stack)
        positions = confirmed = unconfirmed = 0
        counted = self._windows(monkeypatch)
        for n in range(self.CHANGE, stack.shape[1] + 1, 3):
            counted.on = False            # the reference scores too
            for i, reference in enumerate(references):
                if reference.declared is None:
                    d, c, u = self._expected(
                        config, normalised[i], n,
                        max(decided_to[i], reference._cursor))
                    positions, confirmed = positions + d, confirmed + c
                    unconfirmed += u
                    decided_to[i] = n - max(config.policy.persistence,
                                            config.sst.lead) + 1
                    reference.extend(stack[i, len(reference.series):n])
            counted.on = True
            live = [d for d in detectors if d.declared is None]
            for detector, row in zip(detectors, stack):
                if detector.declared is None:
                    detector.extend(row[len(detector):n])
            pool.score_pending(live)
        assert [d.declared for d in detectors] == \
            [r.declared for r in references]
        assert [d.declared is not None for d in detectors][:2] == \
            [False, True]
        assert sum(counted) == confirmed
        assert (unconfirmed > 0) == (config is not self.CONFIGS[0])
        counters = registry.snapshot()["counters"]
        assert counters[SCORED_WINDOWS_METRIC]["values"][0]["value"] == \
            confirmed
        assert counters[GATED_CANDIDATES_METRIC]["values"][0]["value"] == \
            positions

    def test_quiet_stack_scores_next_to_nothing(self, monkeypatch):
        rng = np.random.default_rng(3)
        stack = 10.0 + rng.normal(0, 0.5, size=(12, 240))
        counted = self._windows(monkeypatch)
        assert Funnel().detect_batch(stack, [120] * 12) == [[]] * 12
        assert sum(counted) < 0.05 * 12 * (240 - 2 * 17 + 1)
