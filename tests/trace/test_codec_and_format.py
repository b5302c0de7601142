"""Unit tests for the trace wire format: payload codec round-trips,
typed-event validation, recorder bracketing, and the
:class:`~repro.errors.TraceFormatError` paths that protect the auditor
from malformed input."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceFormatError
from repro.optimizer import CompliantOptimizer
from repro.optimizer.validator import to_logical
from repro.sql import Binder
from repro.tpch import QUERIES, build_catalog, curated_policies, default_network
from repro.trace import (
    QueryStart,
    ShipEvent,
    TraceRecorder,
    current_recorder,
    decode_expression,
    decode_logical,
    encode_expression,
    encode_logical,
    event_from_dict,
    parse_trace,
    read_trace,
    tracing,
)


@pytest.fixture(scope="module")
def optimizer(tpch_stats_catalog, tpch_network):
    return CompliantOptimizer(
        tpch_stats_catalog,
        curated_policies(tpch_stats_catalog, "CR+A"),
        tpch_network,
    )


# -- codec round-trips ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_logical_payloads_round_trip(optimizer, name):
    """encode/decode is the identity on every subquery payload of every
    curated TPC-H plan — including dates, LIKE patterns, IN lists, and
    aggregate calls — and the encoding itself is JSON-serializable."""
    plan = optimizer.optimize(QUERIES[name]).plan
    logical = to_logical(plan)
    encoded = encode_logical(logical)
    json.dumps(encoded)  # must be pure JSON
    assert decode_logical(encoded) == logical


def test_expression_round_trip(tpch_stats_catalog):
    plan = Binder(tpch_stats_catalog).bind_sql(
        "SELECT o_orderkey FROM orders WHERE o_orderdate >= DATE '1995-01-01'"
        " AND o_orderpriority LIKE '1-URG%' AND o_orderstatus IN ('O', 'F')"
    )
    predicates = [
        node.predicate
        for node in plan.walk()
        if getattr(node, "predicate", None) is not None
    ]
    assert predicates
    for predicate in predicates:
        encoded = encode_expression(predicate)
        json.dumps(encoded)
        assert decode_expression(encoded) == predicate


#: A well-formed scan descriptor, so a case fails where it means to.
SCAN = {
    "o": "scan",
    "table": "orders",
    "database": "db1",
    "location": "Europe",
    "alias": "o",
    "fields": [{"name": "o.k", "t": "integer", "base": None, "width": 8}],
}


@pytest.mark.parametrize(
    "payload,match",
    [
        ("not-a-dict", "payload descriptor must be an object"),
        ({"o": "teleport"}, "unknown payload operator 'teleport'"),
        ({"o": "scan"}, "malformed 'scan' payload descriptor: 'table'"),
        (
            {"o": "filter", "child": SCAN, "predicate": {"e": "warp"}},
            "unknown expression tag 'warp'",
        ),
    ],
    ids=["not-a-dict", "payload1", "payload2", "payload3"],
)
def test_malformed_payloads_raise_typed_errors(payload, match):
    with pytest.raises(TraceFormatError, match=match):
        decode_logical(payload)


def test_malformed_expressions_raise_typed_errors():
    for bad in (42, {"e": "nope"}, {"e": "cmp", "op": "=="}):
        with pytest.raises(TraceFormatError):
            decode_expression(bad)


# -- typed event validation ----------------------------------------------------


def test_event_dict_round_trip():
    event = ShipEvent(
        query=3,
        at=0.25,
        source="Europe",
        target="Asia",
        rows=10,
        bytes=420,
        attempt=2,
        outcome="transient",
        columns=["a", "b"],
    )
    assert event_from_dict(event.to_dict()) == event


@pytest.mark.parametrize(
    "data,match",
    [
        ([], "must be an object"),
        ({"kind": "teleport"}, "unknown trace event kind"),
        ({"kind": "ship"}, "missing required"),
        ({"kind": "query_start", "query": 1, "at": 0.0, "label": "q",
          "executor": "row", "warp": 9}, "unknown field"),
        ({"kind": "query_start", "query": "one", "at": 0.0, "label": "q",
          "executor": "row"}, "mistyped query/at"),
        ({"kind": "ship", "query": 1, "at": 0.0, "source": "A", "target": "B",
          "rows": 1, "bytes": 1, "attempt": 1, "outcome": "beamed"},
         "unknown ship outcome"),
    ],
)
def test_invalid_events_raise_typed_errors(data, match):
    with pytest.raises(TraceFormatError, match=match):
        event_from_dict(data)


# -- recorder ------------------------------------------------------------------


def test_recorder_is_inert_when_not_installed():
    assert current_recorder() is None
    recorder = TraceRecorder()
    with tracing(recorder):
        assert current_recorder() is recorder
        with tracing(TraceRecorder()) as inner:
            assert current_recorder() is inner
        assert current_recorder() is recorder
    assert current_recorder() is None


def test_query_brackets_assign_scoped_ids():
    recorder = TraceRecorder()
    first = recorder.begin_query(label="a", executor="row")
    recorder.end_query(first, at=1.0, status="ok", rows=1)
    second = recorder.begin_query(label="b", executor="row")
    recorder.end_query(second, at=1.0, status="ok", rows=1)
    assert (first, second) == (1, 2)
    starts = [e for e in recorder.events() if isinstance(e, QueryStart)]
    assert [e.query for e in starts] == [1, 2]


def test_parse_trace_reports_line_numbers():
    good = QueryStart(query=1, label="q", executor="row")
    line = json.dumps(good.to_dict())
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_trace(line + "\n{broken\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_trace(line + "\n" + line + '\n{"kind": "warp"}\n')
    assert parse_trace(line + "\n\n" + line) == [good, good]  # blanks skipped


def test_read_trace_wraps_io_errors(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read trace file"):
        read_trace(str(tmp_path / "missing.jsonl"))
    path = tmp_path / "trace.jsonl"
    recorder = TraceRecorder()
    query = recorder.begin_query(label="q", executor="row")
    recorder.end_query(query, at=0.5, status="ok", rows=3)
    assert recorder.write(str(path)) == 2
    assert read_trace(str(path)) == recorder.events()
