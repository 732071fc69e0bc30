"""The metric store against an independent dict-of-lists model.

:class:`~repro.telemetry.store.MetricStore` keeps every series in one
over-allocated table and takes whole ticks as blocks; the model below
keeps a Python list per key and knows nothing about tables, rows or
caches.  A hypothesis state machine drives random interleavings of
``append`` and ``append_batch`` through both — key tuples new or
repeated (the store caches a repeated tuple's row layout), keys first
seen mid-stream, rows at different lengths after per-key appends, blocks that
must be rejected **whole** (misaligned, NaN/inf, duplicate key, wrong
shape), growth in both table dimensions, subscribers that subscribe or
cancel from inside a delivery — and after every step compares what can
be observed: ``series`` / ``range`` / ``window_matrix``, the ingest
counters, and the exact global sequence of deliveries.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exceptions import ParameterError, TelemetryError
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import TimeSeries

BIN = 60
#: more keys than the table's first row allocation, so rows grow
KEYS = [KpiKey("server", "h%02d" % i, "m") for i in range(24)]


class Rejected(Exception):
    """The model refuses an operation; carries the error the store owes."""

    def __init__(self, error):
        super().__init__(error.__name__)
        self.error = error


class ModelStore:
    """Reference semantics, one Python list per key."""

    def __init__(self):
        self.start = {}
        self.values = {}
        self.fragments = 0
        #: ``[sid, keys, wants_batch, active]`` in subscription order
        self.subs = []

    def end(self, key):
        return self.start[key] + len(self.values[key]) * BIN

    def _check_contiguous(self, key, start):
        if key in self.start and self.end(key) != start:
            raise Rejected(TelemetryError)

    def _store(self, key, start, values):
        self.start.setdefault(key, start)
        self.values.setdefault(key, []).extend(values)
        self.fragments += 1

    def append(self, key, start, width, values, deliver):
        if width != BIN:
            raise Rejected(TelemetryError)
        self._check_contiguous(key, start)
        self._store(key, start, values)
        for sub in list(self.subs):
            if sub[3] and key in sub[1]:
                deliver(sub[0], "item", [(key, start, list(values))])

    def append_batch(self, keys, start, block, deliver):
        if len(set(keys)) != len(keys):
            raise Rejected(TelemetryError)
        if np.ndim(block) != 2 or len(block) != len(keys):
            raise Rejected(ParameterError)
        if not all(np.isfinite(v) for row in block for v in row):
            raise Rejected(ParameterError)
        for key in keys:
            self._check_contiguous(key, start)
        for key, row in zip(keys, block):
            self._store(key, start, row)
        for sub in list(self.subs):
            if not sub[3]:
                continue
            matched = [(key, start, list(row))
                       for key, row in zip(keys, block) if key in sub[1]]
            if matched and sub[2]:
                deliver(sub[0], "batch", matched)
            else:
                for item in matched:
                    deliver(sub[0], "item", [item])

    def range(self, key, from_time, to_time):
        if key not in self.start:
            raise Rejected(TelemetryError)
        start, values = self.start[key], self.values[key]
        if (from_time - start) % BIN or (to_time - start) % BIN:
            raise Rejected(TelemetryError)
        lo = max(0, (from_time - start) // BIN)
        hi = max(lo, min(len(values), (to_time - start) // BIN))
        return start + lo * BIN, values[lo:hi]

    def window_matrix(self, keys, from_time, to_time):
        rows = [self.range(key, from_time, to_time)[1] for key in keys]
        expected = (to_time - from_time) // BIN
        if not rows or any(len(row) != expected for row in rows):
            raise Rejected(TelemetryError)
        return rows


class Harness:
    """Runs every operation through the store and the model, with the
    same subscriber behaviour on both sides."""

    def __init__(self):
        self.store = MetricStore(BIN)
        self.model = ModelStore()
        self.real_subs = []
        self.real_events = []
        self.model_events = []
        #: sid -> reaction still to fire on that subscriber's next delivery
        self.reactions = {}
        self.real_fired = set()
        self.model_fired = set()
        self.counter = 0.0

    def fresh(self, n):
        """``n`` values no stored bin has yet: a misplaced write shows."""
        out = [self.counter + i for i in range(n)]
        self.counter += n
        return out

    # -- subscribers -----------------------------------------------------------

    def subscribe(self, keys, wants_batch, reaction=None):
        sid = len(self.real_subs)
        self.reactions[sid] = reaction

        def on_item(key, fragment):
            assert fragment.bin_seconds == BIN
            self.real_events.append(
                (sid, "item", [(key, fragment.start,
                                fragment.values.tolist())]))
            self._react_real(sid)

        def on_batch(items):
            self.real_events.append(
                (sid, "batch", [(key, f.start, f.values.tolist())
                                for key, f in items]))
            self._react_real(sid)

        self.real_subs.append(self.store.subscribe(
            keys, on_item, batch_callback=on_batch if wants_batch else None))
        self.model.subs.append([sid, frozenset(keys), wants_batch, True])

    def cancel(self, sid):
        self.real_subs[sid].cancel()
        self.model.subs[sid][3] = False

    def _react_real(self, sid):
        reaction = self.reactions.get(sid)   # late subscribers have none
        if reaction is None or sid in self.real_fired:
            return
        self.real_fired.add(sid)
        if reaction[0] == "cancel":
            self.real_subs[reaction[1] % len(self.real_subs)].cancel()
        else:
            self.real_subs.append(self.store.subscribe(
                reaction[1], self._late_item(len(self.real_subs))))

    def _late_item(self, sid):
        return lambda key, fragment: self.real_events.append(
            (sid, "item", [(key, fragment.start, fragment.values.tolist())]))

    def _model_deliver(self, sid, kind, items):
        self.model_events.append((sid, kind, items))
        reaction = self.reactions.get(sid)
        if reaction is None or sid in self.model_fired:
            return
        self.model_fired.add(sid)
        subs = self.model.subs
        if reaction[0] == "cancel":
            subs[reaction[1] % len(subs)][3] = False
        else:
            subs.append([len(subs), frozenset(reaction[1]), False, True])

    # -- writes ----------------------------------------------------------------

    def _both(self, model_call, real_call):
        try:
            model_call()
        except Rejected as rejected:
            with pytest.raises(rejected.error):
                real_call()
        else:
            real_call()
        self.check()

    def append(self, key, start, width, values):
        self._both(
            lambda: self.model.append(key, start, width, values,
                                      self._model_deliver),
            lambda: self.store.append(key, TimeSeries(start, width, values)))

    def append_batch(self, keys, start, block):
        self._both(
            lambda: self.model.append_batch(keys, start, block,
                                            self._model_deliver),
            lambda: self.store.append_batch(keys, start, np.array(block)))

    # -- observation -----------------------------------------------------------

    def check(self):
        store, model = self.store, self.model
        assert store.appended_fragments == model.fragments
        assert self.real_events == self.model_events
        assert store.subscription_count() == \
            sum(1 for sub in model.subs if sub[3])
        assert store.keys() == sorted(model.start, key=str)
        for key in KEYS:
            assert (key in store) == (key in model.start)
            if key not in model.start:
                assert store.maybe_series(key) is None
                continue
            series = store.series(key)
            assert series.start == model.start[key]
            assert series.bin_seconds == BIN
            assert series.values.tolist() == model.values[key]
            assert series.values.flags.writeable is False

    def check_window(self, keys, from_time, to_time):
        for key in keys:
            try:
                start, values = self.model.range(key, from_time, to_time)
            except Rejected as rejected:
                with pytest.raises(rejected.error):
                    self.store.range(key, from_time, to_time)
            else:
                got = self.store.range(key, from_time, to_time)
                assert (got.start, got.values.tolist()) == (start, values)
                got.values[:] = -1.0        # an owning copy, not the table
        try:
            rows = self.model.window_matrix(keys, from_time, to_time)
        except Rejected as rejected:
            with pytest.raises(rejected.error):
                self.store.window_matrix(keys, from_time, to_time)
        else:
            matrix = self.store.window_matrix(keys, from_time, to_time)
            assert matrix.shape == (len(keys),
                                    (to_time - from_time) // BIN)
            assert matrix.tolist() == rows
            matrix[:] = -1.0
        self.check()


key_st = st.sampled_from(KEYS)
picks_st = st.lists(key_st, min_size=0, max_size=8, unique=True)
#: mostly a bin or two per fragment, sometimes enough to outgrow the
#: table's first 64-bin allocation in one or two steps
bins_st = st.one_of(st.integers(0, 3), st.integers(30, 70))
#: where a write starts relative to where the (first) key ends
shift_st = st.sampled_from([0, 0, 0, 0, BIN, -BIN, BIN // 2])


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.h = Harness()

    def _end(self, keys, fallback):
        model = self.h.model
        known = [key for key in keys if key in model.start]
        return model.end(known[0]) if known else fallback

    @rule(key=key_st, bins=bins_st, shift=shift_st,
          width=st.sampled_from([BIN, BIN, BIN, BIN // 2]),
          origin=st.integers(0, 5))
    def append(self, key, bins, shift, width, origin):
        start = self._end([key], origin * BIN) + shift
        self.h.append(key, start, width, self.h.fresh(bins))

    @rule(picks=picks_st, bins=bins_st, shift=shift_st,
          origin=st.integers(0, 5),
          same_end_only=st.booleans(),
          fault=st.sampled_from([None, None, None, None, "nan", "inf",
                                 "duplicate", "extra_row", "flat"]))
    def append_batch(self, picks, bins, shift, origin, same_end_only, fault):
        model = self.h.model
        start = self._end(picks, origin * BIN) + shift
        if same_end_only:
            # keep the keys this block can legally continue, so accepted
            # blocks over rows at different lengths stay common
            picks = [key for key in picks
                     if key not in model.start or model.end(key) == start]
        block = [self.h.fresh(bins) for _ in picks]
        keys = tuple(picks)
        if fault in ("nan", "inf") and picks and bins:
            block[-1][-1] = float(fault)
        elif fault == "duplicate" and picks:
            keys = keys + (keys[0],)
            block.append(self.h.fresh(bins))
        elif fault == "extra_row":
            block.append(self.h.fresh(bins))
        elif fault == "flat":
            block = self.h.fresh(len(picks))
        self.last_keys = keys
        self.h.append_batch(keys, start, block)

    @rule(bins=bins_st, shift=shift_st, nan=st.booleans())
    def repeat_batch(self, bins, shift, nan):
        """The previous block's key tuple object again, as a replay
        streams it: the store's cached layout for it is what writes."""
        keys = getattr(self, "last_keys", ())
        if not keys or len(set(keys)) != len(keys):
            return
        block = [self.h.fresh(bins) for _ in keys]
        if nan and bins:
            block[0][0] = float("nan")
        self.h.append_batch(keys, self._end(keys, 0) + shift, block)

    @rule(picks=st.lists(key_st, min_size=1, max_size=6, unique=True),
          wants_batch=st.booleans(),
          reaction=st.one_of(
              st.none(),
              st.tuples(st.just("cancel"), st.integers(0, 40)),
              st.tuples(st.just("subscribe"),
                        st.lists(key_st, min_size=1, max_size=4,
                                 unique=True))))
    def subscribe(self, picks, wants_batch, reaction):
        self.h.subscribe(picks, wants_batch, reaction)

    @rule(index=st.integers(0, 40))
    def cancel(self, index):
        if self.h.real_subs:
            self.h.cancel(index % len(self.h.real_subs))
            self.h.check()

    @rule(picks=picks_st, lo=st.integers(-2, 80), span=st.integers(-1, 40),
          skew=st.sampled_from([0, 0, 0, BIN // 2]))
    def read(self, picks, lo, span, skew):
        base = self._end(picks, 0) - 40 * BIN
        from_time = base + lo * BIN + skew
        self.h.check_window(picks, from_time, from_time + span * BIN)

    @invariant()
    def agrees_with_model(self):
        self.h.check()


StoreMachine.TestCase.settings = settings(max_examples=60,
                                          stateful_step_count=40,
                                          deadline=None)
TestStoreAgainstModel = StoreMachine.TestCase


class TestScriptedInterleavings:
    """The cases the issue names, driven through the same harness so
    they run on every seed, not only when hypothesis finds them."""

    def test_growth_in_both_dimensions_under_interleaving(self):
        h = Harness()
        h.subscribe(KEYS[::3], wants_batch=True)
        h.subscribe(KEYS[1::5], wants_batch=False)
        first, second = tuple(KEYS[:10]), tuple(KEYS)
        now = 0
        for tick in range(150):                  # 64-bin capacity: 2 growths
            keys = first if tick < 20 else second    # 14 keys seen mid-stream
            h.append_batch(keys, now, [h.fresh(1) for _ in keys])
            now += BIN
        assert h.store._table.shape[0] >= 24 and \
            h.store._table.shape[1] >= 150
        # per-key appends put two rows ahead of the rest ...
        h.append(KEYS[0], now, BIN, h.fresh(3))
        h.append(KEYS[1], now, BIN, h.fresh(1))
        # ... so a block over both is misaligned for one of them: whole
        # block rejected, nothing written, nobody called
        fragments = h.store.appended_fragments
        h.append_batch((KEYS[1], KEYS[0]), now + BIN,
                       [h.fresh(2), h.fresh(2)])
        assert h.store.appended_fragments == fragments
        # once they end together again, a block is legal over rows of
        # different lengths (KEYS[12] was first seen at tick 20) and
        # over a key never seen before
        h.append(KEYS[1], now + BIN, BIN, h.fresh(2))
        h.append(KEYS[12], now, BIN, h.fresh(3))
        late = KpiKey("server", "late", "m")
        keys = (KEYS[0], KEYS[12], late, KEYS[1])
        block = [h.fresh(2) for _ in keys]
        h.append_batch(keys, now + 3 * BIN, block)
        assert h.store.appended_fragments == fragments + 2 + len(keys)
        assert len(h.model.values[KEYS[0]]) == \
            len(h.model.values[KEYS[12]]) + 20
        assert h.store.series(late).start == now + 3 * BIN
        assert h.store.series(late).values.tolist() == block[2]
        h.check_window(KEYS[:3], now - 5 * BIN, now + 3 * BIN)
        h.check_window([KEYS[0], KEYS[12], KEYS[1]], now, now + 5 * BIN)
        assert len(h.real_events) > 150

    def test_rejected_block_is_atomic(self):
        """Regression: at the parent the list form ingested and counted
        ``a`` before raising on ``b``, and never delivered ``a``."""
        store = MetricStore(BIN)
        a, b = KEYS[0], KEYS[1]
        got = []
        store.subscribe([a, b], lambda key, f: got.append(key))
        store.append(b, TimeSeries(0, BIN, [1.0]))
        store.append(b, TimeSeries(BIN, BIN, [2.0]))
        assert (store.appended_fragments, got) == (2, [b, b])
        with pytest.raises(TelemetryError):
            # fine for ``a`` (new key), one bin early for ``b``
            store.append_batch((a, b), BIN, np.array([[7.0], [8.0]]))
        assert a not in store
        assert store.series(b).values.tolist() == [1.0, 2.0]
        assert store.appended_fragments == 2
        assert got == [b, b]
        for bad in (np.array([[7.0], [np.nan]]), np.array([[7.0]]),
                    np.array([7.0, 8.0])):
            with pytest.raises(ParameterError):
                store.append_batch((a, b), 2 * BIN, bad)
        with pytest.raises(TelemetryError):
            store.append_batch((a, a), 2 * BIN, np.array([[7.0], [8.0]]))
        assert a not in store and store.appended_fragments == 2
        store.append_batch((a, b), 2 * BIN, np.array([[7.0], [8.0]]))
        assert got == [b, b, a, b]

    def test_key_tuple_reuse_sees_subscription_changes(self):
        """Row and subscriber resolutions are cached per key tuple;
        subscribing, cancelling and first-seen keys must still show."""
        h = Harness()
        keys = tuple(KEYS[:6])
        h.append_batch(keys, 0, [h.fresh(1) for _ in keys])
        h.subscribe(KEYS[:2], wants_batch=True)
        h.append_batch(keys, BIN, [h.fresh(1) for _ in keys])
        h.subscribe(KEYS[4:8], wants_batch=False,
                    reaction=("cancel", 0))
        h.append_batch(keys, 2 * BIN, [h.fresh(1) for _ in keys])
        h.append_batch(keys, 3 * BIN, [h.fresh(1) for _ in keys])
        h.cancel(1)
        h.append_batch(keys, 4 * BIN, [h.fresh(1) for _ in keys])
        assert [event[0] for event in h.real_events] == \
            [0, 0, 1, 1, 1, 1]


class TestBlockWritePaths:
    """A repeated key tuple whose rows are one contiguous run with one
    start is written as one column range; any other layout by one
    scatter.  Both paths against the per-key reference, after every
    call (``Harness.append_batch`` checks series, counters and pushes)."""

    @staticmethod
    def _ticks(h, keys, now, ticks):
        for _ in range(ticks):
            h.append_batch(keys, now, [h.fresh(1) for _ in keys])
            now += BIN
        return now

    @staticmethod
    def _harness():
        h = Harness()
        h.subscribe(KEYS[2:5], wants_batch=True)
        h.subscribe(KEYS[3:4] + KEYS[9:10], wants_batch=False)
        return h

    def test_contiguous_run_at_one_length_is_one_column_range(self):
        h = self._harness()
        keys = tuple(KEYS[:8])
        now = self._ticks(h, keys, 0, 70)     # outgrows 64 bins once
        assert h.store._block_run == slice(0, 8)
        h.append_batch(keys, now, [h.fresh(3) for _ in keys])
        h.check_window(keys, 10 * BIN, 73 * BIN)

    def test_permuted_tuple_scatters(self):
        h = self._harness()
        keys = tuple(KEYS[:8])
        now = self._ticks(h, keys, 0, 3)
        permuted = keys[4:] + keys[:4]
        now = self._ticks(h, permuted, now, 3)
        assert h.store._block_run is None
        h.append_batch(permuted, now, [h.fresh(2) for _ in keys])
        h.check_window(keys[::-1], BIN, 8 * BIN)

    def test_new_keys_mixed_with_known_ones(self):
        h = self._harness()
        now = self._ticks(h, tuple(KEYS[:4]), 0, 3)
        # rows 0-5 are one run, but 4 and 5 start three bins later
        grown = tuple(KEYS[:6])
        now = self._ticks(h, grown, now, 3)
        assert h.store._block_run is None
        interleaved = (KEYS[10], KEYS[0], KEYS[11], KEYS[5])
        now = self._ticks(h, interleaved, now, 3)
        assert h.store._block_run is None
        # a tuple of only new keys, first seen together, is a run again
        fresh = tuple(KEYS[12:16])
        now = self._ticks(h, fresh, now, 3)
        assert h.store._block_run == slice(8, 12)
        h.check_window(KEYS[:6], 3 * BIN, 6 * BIN)
        h.check_window(fresh, now - 3 * BIN, now)

    def test_rows_from_append_at_different_starts_and_lengths(self):
        h = self._harness()
        h.append(KEYS[0], 0, BIN, h.fresh(5))
        h.append(KEYS[1], 2 * BIN, BIN, h.fresh(3))
        h.append(KEYS[2], 0, BIN, h.fresh(5))
        h.append(KEYS[3], 0, BIN, h.fresh(5))
        staggered, level = (KEYS[0], KEYS[1]), (KEYS[2], KEYS[3])
        self._ticks(h, staggered, 5 * BIN, 2)
        assert h.store._block_run is None         # two starts
        now = self._ticks(h, level, 5 * BIN, 2)
        assert h.store._block_run == slice(2, 4)
        # one row runs ahead: the cached run is refused whole, naming it
        h.append(KEYS[3], now, BIN, h.fresh(1))
        with pytest.raises(TelemetryError, match="h03:m starts at %d, "
                           "expected %d" % (now, now + BIN)):
            h.store.append_batch(level, now, np.zeros((2, 1)))
        h.check()
        h.append(KEYS[2], now, BIN, h.fresh(1))
        now = self._ticks(h, level, now + BIN, 2)
        h.check_window(KEYS[:4], 2 * BIN, now)

    @pytest.mark.parametrize("layout", ["run", "scatter"])
    @pytest.mark.parametrize("fault", ["gap", "nan", "duplicate"])
    def test_rejected_block_changes_nothing_on_either_path(self, layout,
                                                           fault):
        h = self._harness()
        keys = tuple(KEYS[:6]) if layout == "run" \
            else (KEYS[3], KEYS[1], KEYS[4], KEYS[0], KEYS[5], KEYS[2])
        now = self._ticks(h, tuple(KEYS[:6]), 0, 2)
        now = self._ticks(h, keys, now, 2)
        assert (h.store._block_run is None) == (layout == "scatter")
        table, events = h.store._table.copy(), len(h.real_events)
        block = [h.fresh(2) for _ in keys]
        bad_keys = keys
        if fault == "gap":
            h.append(KEYS[4], now, BIN, h.fresh(1))
            events = len(h.real_events)
            table = h.store._table.copy()
        elif fault == "nan":
            block[2][1] = float("nan")
        else:
            bad_keys = keys + (keys[1],)
            block.append(h.fresh(2))
        h.append_batch(bad_keys, now, block)      # the model rejects too
        assert len(h.real_events) == events
        assert h.store._table.tobytes() == table.tobytes()
        # the cached tuple still writes, through the same path
        run = h.store._block_run
        if fault == "gap":              # bring the other rows level
            for key in keys:
                if key != KEYS[4]:
                    h.append(key, now, BIN, h.fresh(1))
            now += BIN
        now = self._ticks(h, keys, now, 2)
        assert h.store._block_run == run
        h.check_window(keys, 0, now)
