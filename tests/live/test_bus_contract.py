"""The verdict serialization contract and the durable sink's semantics.

``LiveVerdict.as_dict`` field order/types and the sink's line format
are what a consumer byte-compares across a kill and resume; this module
is the golden pin.  A failing test here means every previously written
verdict file, checkpoint, and CI ``cmp`` baseline just changed meaning
— don't "fix" the test, version the format.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest

from repro.live.bus import JsonlVerdictSink, LiveVerdict, verdict_sort_key

#: The pinned wire contract: (name, type, default) per field, in order.
GOLDEN_FIELDS = [
    ("change_id", str),
    ("entity_type", str),
    ("entity", str),
    ("metric", str),
    ("verdict", str),
    ("reason", str),
    ("emitted_at", int),
    ("declaration_bin", typing.Optional[int]),
    ("did_estimate", typing.Optional[float]),
    ("control", typing.Optional[str]),
    ("direction", int),
    ("notes", typing.Tuple[str, ...]),
]


def _verdict(**overrides) -> LiveVerdict:
    base = dict(change_id="chg-7", entity_type="server", entity="host-3",
                metric="cpu_util", verdict="impact", reason="declared",
                emitted_at=4200, declaration_bin=17, did_estimate=1.25,
                control="cservers", direction=1, notes=("a", "b"))
    base.update(overrides)
    return LiveVerdict(**base)


def test_field_order_and_types_are_pinned():
    fields = dataclasses.fields(LiveVerdict)
    hints = typing.get_type_hints(LiveVerdict)
    assert [(f.name, hints[f.name]) for f in fields] == GOLDEN_FIELDS
    # Defaults are part of the contract too: absent-by-default fields
    # must stay absent-by-default, or old readers break.
    defaults = {f.name: f.default for f in fields
                if f.default is not dataclasses.MISSING}
    assert defaults == {"declaration_bin": None, "did_estimate": None,
                        "control": None, "direction": 0, "notes": ()}


def test_as_dict_preserves_field_order_and_round_trips():
    verdict = _verdict()
    doc = verdict.as_dict()
    assert list(doc) == [name for name, _ in GOLDEN_FIELDS]
    assert doc["notes"] == ["a", "b"]  # JSON-safe list, not tuple
    assert LiveVerdict.from_dict(json.loads(json.dumps(doc))) == verdict


@pytest.mark.parametrize("verdict", [
    _verdict(),
    _verdict(verdict="no_change", reason="deadline", declaration_bin=None,
             did_estimate=None, control=None, direction=0, notes=()),
    _verdict(verdict="no_change", reason="gap", declaration_bin=None,
             did_estimate=None, control=None, direction=0, notes=()),
], ids=["declared", "deadline", "gap"])
def test_as_dict_equals_dataclasses_asdict(verdict):
    """``as_dict`` spells the fields out (``asdict`` deep-copies); what
    it returns must stay what ``asdict`` returned, key order included."""
    reference = dataclasses.asdict(verdict)
    reference["notes"] = list(verdict.notes)
    doc = verdict.as_dict()
    assert doc == reference
    assert list(doc) == list(reference)
    assert json.dumps(doc) == json.dumps(reference)


def test_sink_line_format_is_sorted_compact_json(tmp_path):
    path = tmp_path / "v.jsonl"
    with JsonlVerdictSink(str(path)) as sink:
        sink(_verdict())
    line = path.read_text().splitlines()[0]
    assert line == json.dumps(_verdict().as_dict(), sort_keys=True)


def test_sort_key_orders_by_time_then_key():
    early = _verdict(emitted_at=10, entity="host-9")
    late = _verdict(emitted_at=20, entity="host-1")
    tied = _verdict(emitted_at=10, entity="host-1")
    ordered = sorted([late, early, tied], key=verdict_sort_key)
    assert ordered == [tied, early, late]


def test_close_is_idempotent_and_exit_after_close_is_a_noop(tmp_path):
    path = tmp_path / "v.jsonl"
    sink = JsonlVerdictSink(str(path))
    with sink:
        sink(_verdict())
        sink.close()
        sink.close()  # double close: no error
    # __exit__ ran after the explicit close: still no error, and a
    # write after close is silently dropped rather than crashing.
    sink(_verdict(entity="host-ignored"))
    assert sink.written == 1
    assert len(path.read_text().splitlines()) == 1


def test_sink_is_line_buffered_before_close(tmp_path):
    # Each complete line reaches the OS immediately — what makes a
    # killed process's partial file readable.
    path = tmp_path / "v.jsonl"
    sink = JsonlVerdictSink(str(path))
    sink(_verdict())
    assert len(path.read_text().splitlines()) == 1  # not yet closed
    sink.close()
