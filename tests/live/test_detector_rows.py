"""Row ``r`` of a ``k``-row detector is a one-row detector fed the same bins.

A live session holds its trackers as the rows of one
:class:`~repro.live.detector.IncrementalDetector`: a drained block is
one column write, a pass covers every pending row.  A hypothesis state
machine drives one such detector (scored by a
:class:`~repro.live.pool.DetectorPool`, as the service scores it) and
``k`` one-row twins, each scored by a pass of its own, with the same
steps — blocks of 1-12 bins over every row, single-row deliveries of
other widths (ragged lengths), rows turning done or degraded at random
ticks (frozen: a block still names them and must not reach them),
deadline flushes, ``state_dict`` / ``load_state`` round trips, and
snapshots carrying a non-finite sample, which ``load_state`` refuses
without touching the row — and after every step requires, row by row,
the twin's ``state_dict`` (bins, stats, chunk gate and scan cursor),
declaration and length, and that a pass tables the twins' normalised
prefixes byte for byte and declares exactly what the twins' own passes
declared.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

import repro.live.detector as detector_module
from repro.core.funnel import FunnelConfig
from repro.core.rsst import ImprovedSSTParams
from repro.core.scoring import ChangeDeclarationPolicy
from repro.exceptions import CheckpointError
from repro.live import DetectorPool, IncrementalDetector

from .oracle import alone, detector_state

CONFIGS = (
    FunnelConfig(sst=ImprovedSSTParams(omega=3),
                 policy=ChangeDeclarationPolicy(persistence=3)),
    FunnelConfig(sst=ImprovedSSTParams(omega=5),
                 policy=ChangeDeclarationPolicy(persistence=7)),
)
BINS = 500


@contextmanager
def tabled_prefixes(reads):
    """Record the bytes of every normalised prefix a pass tables."""
    table = detector_module._confirmed_directions

    def recorded(series, candidates, policy):
        stack, lengths = series
        reads.extend(row[:n].tobytes() for row, n in zip(stack, lengths))
        return table(series, candidates, policy)

    detector_module._confirmed_directions = recorded
    try:
        yield
    finally:
        detector_module._confirmed_directions = table


class RowsMachine(RuleBasedStateMachine):

    @initialize(k=st.integers(2, 5), seed=st.integers(0, 2 ** 31),
                config=st.sampled_from(CONFIGS),
                chunk=st.sampled_from([1, 3, 7]), aligned=st.booleans())
    def setup(self, k, seed, config, chunk, aligned):
        rng = np.random.default_rng(seed)
        self.indices = [int(rng.integers(20, 50)) for _ in range(k)]
        self.series = []
        for change_index in self.indices:
            x = 10.0 + rng.normal(0, 0.5, size=BINS)
            if rng.random() < 0.8:
                x[change_index + int(rng.integers(0, 30)):] += float(
                    rng.choice([-5.0, 5.0]))
            self.series.append(x)
        self.config, self.chunk = config, chunk
        self.matrix = IncrementalDetector(self.indices, config,
                                          score_chunk_bins=chunk)
        self.twins = [IncrementalDetector(change_index, config,
                                          score_chunk_bins=chunk)
                      for change_index in self.indices]
        self.frozen = [False] * k
        self.pool = DetectorPool()
        # Admission backfills each row up to around its change, or every
        # row to one length (a session's trackers, then in lockstep).
        for row, change_index in enumerate(self.indices):
            self.one_row_of(row, max(self.indices) if aligned else
                            change_index + int(rng.integers(-5, 10)))

    def _next(self, row, width):
        n = self.twins[row].length()
        return self.series[row][n:n + width]

    def _score(self, passes, flush=False):
        """Run each twin's own pass, then one pool pass over the matrix:
        it declares what they declared."""
        expected, reads = {}, []
        with tabled_prefixes(reads):
            for row, run in passes:
                declared = run()
                if declared is not None:
                    expected[row] = declared
        twin_reads, reads[:] = list(reads), []
        with tabled_prefixes(reads):
            found = self.pool.score_pending([self.matrix], flush=flush)
        assert len(found) == len(expected)
        assert {row: change for _, row, change in found} == expected
        # Row by row (the twins ran in row order), the table read the
        # twin's normalised prefix, byte for byte.
        assert reads == twin_reads

    @rule(width=st.integers(1, 12))
    def block(self, width):
        """One drained block: every row named, frozen ones included."""
        width = min([width] + [BINS - twin.length() for twin in self.twins])
        if width <= 0:
            return
        block = np.vstack([self._next(row, width)
                           for row in range(len(self.twins))])
        assert self.matrix.extend(block) is None
        self._score([(row, partial(alone, twin, block[row]))
                     for row, twin in enumerate(self.twins)
                     if not self.frozen[row]])

    @rule(data=st.data(), width=st.integers(1, 40))
    def one_row(self, data, width):
        """A healed single-key delivery: the rows' lengths go ragged."""
        self.one_row_of(data.draw(st.integers(0, len(self.twins) - 1)),
                        width)

    def one_row_of(self, row, width):
        bins = self._next(row, width)
        self.matrix.extend(bins, [row])
        self._score([] if self.frozen[row] else
                    [(row, partial(alone, self.twins[row], bins))])

    @rule(data=st.data())
    def freeze(self, data):
        """The row's KPI is done or degraded."""
        row = data.draw(st.integers(0, len(self.twins) - 1))
        self.matrix.freeze(row)
        self.frozen[row] = True

    @rule()
    def flush(self):
        self._score([(row, twin.flush) for row, twin in enumerate(self.twins)
                     if not self.frozen[row] and twin.declarations[0] is None],
                    flush=True)

    @rule()
    def round_trip(self):
        restored = IncrementalDetector(self.indices, self.config,
                                       score_chunk_bins=self.chunk)
        for row, frozen in enumerate(self.frozen):
            restored.load_state(self.matrix.state_dict(row), row)
            if frozen:
                restored.freeze(row)
        self.matrix = restored

    @rule(data=st.data(), poison=st.sampled_from([np.nan, np.inf, -np.inf]))
    def poison(self, data, poison):
        """A snapshot carrying a non-finite sample (a corrupt checkpoint)
        is refused at the boundary: the row keeps its state."""
        row = data.draw(st.integers(0, len(self.twins) - 1))
        state = self.twins[row].state_dict()
        if not state["n"]:
            return
        state["values"][data.draw(st.integers(0, state["n"] - 1))] = poison
        for detector, at in ((self.twins[row], 0), (self.matrix, row)):
            with pytest.raises(CheckpointError, match="'values'"):
                detector.load_state(state, at)

    @invariant()
    def rows_are_their_twins(self):
        if not hasattr(self, "matrix"):
            return
        for row, twin in enumerate(self.twins):
            assert detector_state(self.matrix, row) == detector_state(twin)
            assert self.matrix.declarations[row] == twin.declarations[0]
            assert self.matrix.length(row) == twin.length()


RowsMachine.TestCase.settings = settings(max_examples=50,
                                         stateful_step_count=30,
                                         deadline=None)
TestDetectorRows = RowsMachine.TestCase
