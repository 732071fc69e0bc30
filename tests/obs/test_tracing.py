"""Tests for the span/tracer layer."""

import pytest

from repro.obs import SpanRecord, Tracer, new_span_id


class TestIds:
    def test_span_ids_unique(self):
        ids = {new_span_id() for _ in range(500)}
        assert len(ids) == 500

    def test_tracers_get_distinct_traces(self):
        assert Tracer().trace_id != Tracer().trace_id


class TestSpans:
    def test_nesting_parents_correctly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        names = [r.name for r in tracer.finished]
        assert names == ["inner", "sibling", "outer"]
        outer_rec = tracer.finished[-1]
        assert outer_rec.parent_id is None
        assert all(r.duration_s >= 0 for r in tracer.finished)

    def test_attrs_and_sorted_tuple(self):
        tracer = Tracer()
        with tracer.span("s", zebra=1, mid=3, alpha=2):
            pass
        rec = tracer.finished[0]
        assert rec.attrs == (("alpha", 2), ("mid", 3), ("zebra", 1))
        assert rec.attr("zebra") == 1
        assert rec.attr("missing", "d") == "d"

    def test_record_defaults_parent_to_current(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            rec = tracer.record("timed", 0.5, items=3)
        assert rec.parent_id == outer.span_id
        assert rec.duration_s == 0.5
        explicit = tracer.record("other", 0.1, parent_id="abc")
        assert explicit.parent_id == "abc"

    def test_record_round_trips_through_dict(self):
        tracer = Tracer()
        rec = tracer.record("stage", 0.25, items=2)
        clone = SpanRecord.from_dict(rec.as_dict())
        assert clone.as_dict() == rec.as_dict()
        assert clone.name == "stage"
        assert clone.attr("items") == 2


class TestRecordImmutability:
    def test_records_are_frozen(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        with pytest.raises(AttributeError):
            tracer.finished[0].name = "other"
