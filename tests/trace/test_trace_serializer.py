"""The JSONL serializer and reader against frozen references.

``to_dict`` builds a shallow dict and ``to_jsonl`` runs one shared
canonical encoder.  The reference below is a test-local copy of the
earlier ``dataclasses.asdict``-based line encoder (including
``ShipEvent``'s ``wire_bytes``/``chunks`` omission), kept verbatim as
the oracle: every event of every kind must serialize to the same
bytes, and read back to an equal event.  The reader's error messages
are pinned the same way, as literal strings.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceFormatError
from repro.trace import (
    EVENT_TYPES,
    OptimizedEvent,
    RequestEvent,
    ShipEvent,
    TraceEvent,
    TraceRecorder,
    parse_trace,
)
from repro.trace.events import SHIP_OUTCOMES

from ..conftest import fuzz_examples


def frozen_canonical_line(event: TraceEvent) -> str:
    """The earlier serializer, frozen: ``asdict`` deep copy, the
    ``wire_bytes``/``chunks`` omission, and a fresh ``json.dumps``."""
    data = {"kind": type(event).kind}
    data.update(dataclasses.asdict(event))
    if isinstance(event, ShipEvent) and data.get("wire_bytes") is None:
        data.pop("wire_bytes", None)
        data.pop("chunks", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def as_lists(value: Any) -> Any:
    """``value`` as JSON reads it back: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


# -- strategies ----------------------------------------------------------------

#: Any non-surrogate text, so non-ASCII labels and keys are common.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
FLOAT = st.floats(allow_nan=False, allow_infinity=False)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOAT | TEXT,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.tuples(inner, inner)
        | st.dictionaries(TEXT, inner, max_size=3)
    ),
    max_leaves=12,
)

#: One strategy per field annotation used by the event classes; a new
#: annotation fails the lookup below rather than going untested.
BY_ANNOTATION = {
    "int": st.integers(min_value=0, max_value=10**6),
    "float": FLOAT,
    "bool": st.booleans(),
    "str": TEXT,
    "str | None": st.none() | TEXT,
    "int | None": st.none() | st.integers(min_value=0, max_value=10**9),
    "float | None": st.none() | FLOAT,
    "list[str]": st.lists(TEXT, max_size=3),
    "list[str] | None": st.none() | st.lists(TEXT, max_size=3),
    "dict[str, Any] | None": st.none() | st.dictionaries(TEXT, JSON, max_size=4),
}


def event_strategy(cls: type[TraceEvent]) -> st.SearchStrategy[TraceEvent]:
    fields = {}
    for f in dataclasses.fields(cls):
        if f.name == "outcome":
            fields[f.name] = st.sampled_from(SHIP_OUTCOMES)
        else:
            fields[f.name] = BY_ANNOTATION[f.type]
    return st.builds(cls, **fields)


EVENTS = st.one_of([event_strategy(cls) for cls in EVENT_TYPES.values()])


def recorded(events: list[TraceEvent]) -> TraceRecorder:
    recorder = TraceRecorder()
    for event in events:
        recorder.emit(event)
    return recorder


# -- the serializer ------------------------------------------------------------


@settings(max_examples=fuzz_examples(), deadline=None)
@given(st.lists(EVENTS, min_size=1, max_size=12))
def test_to_jsonl_matches_the_frozen_serializer(events):
    recorder = recorded(events)
    text = recorder.to_jsonl()
    ordered = recorder.events()
    assert text == "".join(frozen_canonical_line(e) + "\n" for e in ordered)
    assert parse_trace(text) == [as_read_back(event) for event in ordered]


def as_read_back(event: TraceEvent) -> TraceEvent:
    """``event`` as the reader revives it: tuples read back as lists,
    and a ship without ``wire_bytes`` loses ``chunks`` with it."""
    fields = {f.name: as_lists(getattr(event, f.name)) for f in dataclasses.fields(event)}
    if isinstance(event, ShipEvent) and event.wire_bytes is None:
        fields["chunks"] = None
    return dataclasses.replace(event, **fields)


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_every_kind_serializes_like_the_frozen_serializer(kind):
    """Each kind with its defaults, so no kind is left to chance."""
    event = EVENT_TYPES[kind](query=2, at=0.5)
    assert recorded([event]).to_jsonl() == frozen_canonical_line(event) + "\n"


def test_nested_payloads_non_ascii_and_wire_bytes_omission():
    payload = {
        "o": "project",
        "cols": ("ünïcode", "名前"),
        "in": [{"o": "scan", "t": ("a", ["b", ("c",)]), "x": 1.5e-7}],
    }
    plain = ShipEvent(query=1, at=0.125, source="Europe", target="Asia",
                      payload=payload, seconds=0.0625, columns=["ß", "ø"])
    streamed = dataclasses.replace(plain, wire_bytes=17, chunks=None)
    others = [
        RequestEvent(at=1 / 3, action="served", label="Québec — 東京"),
        OptimizedEvent(result_location="Zürich", shipping_trait=["Zürich"]),
    ]
    events = [plain, streamed, *others]
    text = recorded(events).to_jsonl()
    lines = text.splitlines()
    assert text == "".join(frozen_canonical_line(e) + "\n" for e in recorded(events).events())
    assert "東京" in text and "\\u" not in text  # UTF-8 kept as-is
    ship_lines = [json.loads(line) for line in lines if '"kind":"ship"' in line]
    assert [("wire_bytes" in d, "chunks" in d) for d in ship_lines] == [
        (False, False),
        (True, True),
    ]
    assert parse_trace(text)[-2].payload == as_lists(payload)


def test_to_dict_does_not_copy_the_payload():
    payload = {"o": "scan", "cols": ["a"]}
    event = ShipEvent(source="A", target="B", payload=payload)
    assert event.to_dict()["payload"] is payload


# -- the reader's error surface ------------------------------------------------

#: Today's messages, verbatim: every required field removed at once.
MISSING = {
    "query_start": "query_start event is missing required field(s): query, at",
    "optimized": "optimized event is missing required field(s): query, at, result_location",
    "placement": "placement event is missing required field(s): query, at, operator, location",
    "request": "request event is missing required field(s): query, at, action, label",
    "ship": (
        "ship event is missing required field(s): "
        "query, at, source, target, bytes, attempt, outcome"
    ),
    "chunk": "chunk event is missing required field(s): query, at, source, target, chunk, outcome",
    "recovery": "recovery event is missing required field(s): query, at, fragment, source, target",
    "scan_read": (
        "scan_read event is missing required field(s): "
        "query, at, database, table, site, staleness_at_read"
    ),
    "query_end": "query_end event is missing required field(s): query, at, status",
}


def test_every_kind_has_a_pinned_message():
    assert sorted(MISSING) == sorted(EVENT_TYPES)


def trace_with_bad_third_line(bad: dict) -> str:
    good = json.dumps(RequestEvent(query=1, action="arrival", label="q").to_dict())
    return f"{good}\n\n{json.dumps(bad)}\n{good}\n"


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
@pytest.mark.parametrize("drop", ["all", "last"])
def test_missing_required_fields_are_reported_per_kind(kind, drop):
    required = MISSING[kind].split(": ", 1)[1].split(", ")
    dropped = required if drop == "all" else required[-1:]
    data = EVENT_TYPES[kind]().to_dict()
    for name in dropped:
        del data[name]
    with pytest.raises(TraceFormatError) as raised:
        parse_trace(trace_with_bad_third_line(data))
    assert raised.value.line == 3
    assert str(raised.value) == (
        f"line 3: {kind} event is missing required field(s): {', '.join(dropped)}"
    )


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_unknown_fields_are_reported_per_kind(kind):
    data = EVENT_TYPES[kind]().to_dict()
    data["zz_extra"] = 1
    data["aa_extra"] = None
    with pytest.raises(TraceFormatError) as raised:
        parse_trace(trace_with_bad_third_line(data))
    assert raised.value.line == 3
    assert str(raised.value) == (
        f"line 3: {kind} event has unknown field(s): aa_extra, zz_extra"
    )


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_line_separators_inside_strings_round_trip(separator):
    """JSON escapes control characters below U+0020 but not these, and
    the canonical form keeps them raw: the reader must split lines on
    line feeds alone."""
    event = RequestEvent(query=1, action="arrival", label=f"a{separator}b")
    text = recorded([event, event]).to_jsonl()
    assert text.count("\n") == 2
    assert parse_trace(text) == [event, event]
    assert parse_trace(text.replace("\n", "\r\n")) == [event, event]
