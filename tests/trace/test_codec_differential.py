"""The payload codec against a frozen copy of the earlier codec.

The codec builds its encoder and decoders from one declared schema.  The
reference below is a test-local copy of the earlier hand-written
``isinstance``/tag ladders and dict walkers, kept verbatim (renamed
``frozen_*``) as the oracle: on every generated plan and expression the
two must produce the same canonical bytes, the same decoded trees and
the same freshness annotations.  A table of malformed descriptors pins
every error message: kept from the earlier codec, or new where the
earlier one crashed later or accepted the input.
"""

from __future__ import annotations

import datetime as _dt
import json
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.errors import TraceFormatError
from repro.expr import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
    BaseColumn,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
)
from repro.plan import (
    Field,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)
from repro.trace import (
    annotate_payload_reads,
    decode_expression,
    decode_logical,
    encode_expression,
    encode_logical,
    payload_reads,
    strip_payload_reads,
)
from repro.trace.events import canonical_json

from ..conftest import fuzz_examples

# == the earlier codec, frozen =================================================

# -- expressions ---------------------------------------------------------------


def frozen_encode_expression(expr: Expression) -> dict[str, Any]:
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, (_dt.date, _dt.datetime)):
            value = value.isoformat()
        return {"e": "lit", "v": value, "t": expr.dtype.value}
    if isinstance(expr, ColumnRef):
        return {
            "e": "col",
            "name": expr.name,
            "t": expr.dtype.value,
            "base": frozen_encode_base(expr.base),
        }
    if isinstance(expr, Comparison):
        return {
            "e": "cmp",
            "op": expr.op.value,
            "l": frozen_encode_expression(expr.left),
            "r": frozen_encode_expression(expr.right),
        }
    if isinstance(expr, And):
        return {"e": "and", "ops": [frozen_encode_expression(o) for o in expr.operands]}
    if isinstance(expr, Or):
        return {"e": "or", "ops": [frozen_encode_expression(o) for o in expr.operands]}
    if isinstance(expr, Not):
        return {"e": "not", "op": frozen_encode_expression(expr.operand)}
    if isinstance(expr, Arithmetic):
        return {
            "e": "arith",
            "op": expr.op.value,
            "l": frozen_encode_expression(expr.left),
            "r": frozen_encode_expression(expr.right),
        }
    if isinstance(expr, Negate):
        return {"e": "neg", "op": frozen_encode_expression(expr.operand)}
    if isinstance(expr, Like):
        return {
            "e": "like",
            "op": frozen_encode_expression(expr.operand),
            "pattern": expr.pattern,
            "negated": expr.negated,
        }
    if isinstance(expr, InList):
        return {
            "e": "in",
            "op": frozen_encode_expression(expr.operand),
            "values": [frozen_encode_expression(v) for v in expr.values],
            "negated": expr.negated,
        }
    if isinstance(expr, IsNull):
        return {
            "e": "isnull",
            "op": frozen_encode_expression(expr.operand),
            "negated": expr.negated,
        }
    if isinstance(expr, FunctionCall):
        return {
            "e": "func",
            "name": expr.name,
            "args": [frozen_encode_expression(a) for a in expr.args],
        }
    if isinstance(expr, AggregateCall):
        return {
            "e": "agg",
            "func": expr.func.value,
            "arg": None if expr.argument is None else frozen_encode_expression(expr.argument),
        }
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def frozen_decode_expression(data: Any) -> Expression:
    if not isinstance(data, dict):
        raise TraceFormatError(f"expression descriptor must be an object, got {data!r}")
    tag = data.get("e")
    try:
        if tag == "lit":
            dtype = DataType(data["t"])
            value = data["v"]
            if dtype == DataType.DATE and isinstance(value, str):
                value = _dt.date.fromisoformat(value)
            return Literal(value, dtype)
        if tag == "col":
            return ColumnRef(
                data["name"], DataType(data["t"]), frozen_decode_base(data.get("base"))
            )
        if tag == "cmp":
            return Comparison(
                ComparisonOp(data["op"]),
                frozen_decode_expression(data["l"]),
                frozen_decode_expression(data["r"]),
            )
        if tag == "and":
            return And(tuple(frozen_decode_expression(o) for o in data["ops"]))
        if tag == "or":
            return Or(tuple(frozen_decode_expression(o) for o in data["ops"]))
        if tag == "not":
            return Not(frozen_decode_expression(data["op"]))
        if tag == "arith":
            return Arithmetic(
                ArithmeticOp(data["op"]),
                frozen_decode_expression(data["l"]),
                frozen_decode_expression(data["r"]),
            )
        if tag == "neg":
            return Negate(frozen_decode_expression(data["op"]))
        if tag == "like":
            return Like(
                frozen_decode_expression(data["op"]), data["pattern"], data["negated"]
            )
        if tag == "in":
            values = tuple(frozen_decode_expression(v) for v in data["values"])
            if not all(isinstance(v, Literal) for v in values):
                raise TraceFormatError("IN-list values must be literals")
            return InList(frozen_decode_expression(data["op"]), values, data["negated"])
        if tag == "isnull":
            return IsNull(frozen_decode_expression(data["op"]), data["negated"])
        if tag == "func":
            return FunctionCall(
                data["name"], tuple(frozen_decode_expression(a) for a in data["args"])
            )
        if tag == "agg":
            arg = data["arg"]
            return AggregateCall(
                AggregateFunction(data["func"]),
                None if arg is None else frozen_decode_expression(arg),
            )
    except TraceFormatError:
        raise
    except (KeyError, ValueError, TypeError) as error:
        raise TraceFormatError(
            f"malformed {tag!r} expression descriptor: {error}"
        ) from error
    raise TraceFormatError(f"unknown expression tag {tag!r}")


def frozen_encode_base(base: BaseColumn | None) -> list[str] | None:
    if base is None:
        return None
    return [base.database, base.table, base.column]


def frozen_decode_base(data: Any) -> BaseColumn | None:
    if data is None:
        return None
    if not (isinstance(data, list) and len(data) == 3):
        raise TraceFormatError(f"malformed provenance descriptor {data!r}")
    return BaseColumn(*data)


# -- fields --------------------------------------------------------------------


def frozen_encode_field(field: Field) -> dict[str, Any]:
    return {
        "name": field.name,
        "t": field.dtype.value,
        "base": frozen_encode_base(field.base),
        "width": field.width,
    }


def frozen_decode_field(data: Any) -> Field:
    try:
        return Field(
            data["name"],
            DataType(data["t"]),
            frozen_decode_base(data.get("base")),
            data["width"],
        )
    except TraceFormatError:
        raise
    except (KeyError, ValueError, TypeError) as error:
        raise TraceFormatError(f"malformed field descriptor: {error}") from error


# -- logical plans -------------------------------------------------------------


def frozen_encode_logical(plan: LogicalPlan) -> dict[str, Any]:
    if isinstance(plan, LogicalScan):
        return {
            "o": "scan",
            "table": plan.table,
            "database": plan.database,
            "location": plan.location,
            "alias": plan.alias,
            "fields": [frozen_encode_field(f) for f in plan.scan_fields],
        }
    if isinstance(plan, LogicalFilter):
        return {
            "o": "filter",
            "child": frozen_encode_logical(plan.child),
            "predicate": frozen_encode_expression(plan.predicate),
        }
    if isinstance(plan, LogicalProject):
        return {
            "o": "project",
            "child": frozen_encode_logical(plan.child),
            "exprs": [frozen_encode_expression(e) for e in plan.exprs],
            "names": list(plan.names),
        }
    if isinstance(plan, LogicalJoin):
        return {
            "o": "join",
            "left": frozen_encode_logical(plan.left),
            "right": frozen_encode_logical(plan.right),
            "condition": None
            if plan.condition is None
            else frozen_encode_expression(plan.condition),
        }
    if isinstance(plan, LogicalAggregate):
        return {
            "o": "aggregate",
            "child": frozen_encode_logical(plan.child),
            "keys": [frozen_encode_expression(k) for k in plan.group_keys],
            "aggs": [frozen_encode_expression(a) for a in plan.aggregates],
            "names": list(plan.agg_names),
        }
    if isinstance(plan, LogicalUnion):
        return {"o": "union", "inputs": [frozen_encode_logical(i) for i in plan.inputs]}
    if isinstance(plan, LogicalSort):
        return {
            "o": "sort",
            "child": frozen_encode_logical(plan.child),
            "keys": [[name, desc] for name, desc in plan.sort_keys],
            "limit": plan.limit,
        }
    raise TypeError(f"unknown logical operator {type(plan).__name__}")


def frozen_decode_logical(data: Any) -> LogicalPlan:
    if not isinstance(data, dict):
        raise TraceFormatError(f"payload descriptor must be an object, got {data!r}")
    tag = data.get("o")
    try:
        if tag == "scan":
            return LogicalScan(
                table=data["table"],
                database=data["database"],
                location=data["location"],
                alias=data["alias"],
                scan_fields=tuple(frozen_decode_field(f) for f in data["fields"]),
            )
        if tag == "filter":
            return LogicalFilter(
                frozen_decode_logical(data["child"]), frozen_decode_expression(data["predicate"])
            )
        if tag == "project":
            return LogicalProject(
                frozen_decode_logical(data["child"]),
                tuple(frozen_decode_expression(e) for e in data["exprs"]),
                tuple(data["names"]),
            )
        if tag == "join":
            condition = data["condition"]
            return LogicalJoin(
                frozen_decode_logical(data["left"]),
                frozen_decode_logical(data["right"]),
                None if condition is None else frozen_decode_expression(condition),
            )
        if tag == "aggregate":
            keys = tuple(frozen_decode_expression(k) for k in data["keys"])
            aggs = tuple(frozen_decode_expression(a) for a in data["aggs"])
            if not all(isinstance(k, ColumnRef) for k in keys):
                raise TraceFormatError("group keys must be column references")
            if not all(isinstance(a, AggregateCall) for a in aggs):
                raise TraceFormatError("aggregates must be aggregate calls")
            return LogicalAggregate(
                frozen_decode_logical(data["child"]), keys, aggs, tuple(data["names"])
            )
        if tag == "union":
            return LogicalUnion(tuple(frozen_decode_logical(i) for i in data["inputs"]))
        if tag == "sort":
            return LogicalSort(
                frozen_decode_logical(data["child"]),
                tuple((name, desc) for name, desc in data["keys"]),
                data["limit"],
            )
    except TraceFormatError:
        raise
    except (KeyError, ValueError, TypeError) as error:
        raise TraceFormatError(
            f"malformed {tag!r} payload descriptor: {error}"
        ) from error
    raise TraceFormatError(f"unknown payload operator {tag!r}")

# -- freshness annotations -----------------------------------------------------

FROZEN_READ_KEYS = ("read_at", "staleness_at_read")


def frozen_annotate_payload_reads(payload: dict[str, Any], reads) -> dict[str, Any]:
    """A copy of ``payload`` with each scan descriptor stamped by its
    matching committed read (``reads`` is an iterable of objects with
    ``database``/``table``/``site``/``at_seconds``/``staleness_seconds``,
    i.e. :class:`~repro.execution.metrics.ScanRead`).  Scans without a
    matching read (primary reads) are left unstamped."""
    by_copy = {(r.database, r.table.lower(), r.site): r for r in reads}

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            out = {key: walk(value) for key, value in node.items()}
            if out.get("o") == "scan":
                read = by_copy.get(
                    (out.get("database"), str(out.get("table", "")).lower(), out.get("location"))
                )
                if read is not None:
                    out["read_at"] = read.at_seconds
                    out["staleness_at_read"] = read.staleness_seconds
            return out
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(payload)


def frozen_payload_reads(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Every annotated scan descriptor in ``payload`` (each carries the
    structural scan keys plus :data:`FROZEN_READ_KEYS`), in tree
    order.  Empty for un-annotated payloads."""
    found: list[dict[str, Any]] = []

    def walk(node: Any) -> None:
        if isinstance(node, dict):
            if node.get("o") == "scan" and "staleness_at_read" in node:
                found.append(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(payload)
    return found


def frozen_strip_payload_reads(payload: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``payload`` without freshness annotations — the purely
    structural descriptor, suitable as a cache key (re-reads of the same
    subquery at different instants are compliance-identical)."""

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            return {
                key: walk(value)
                for key, value in node.items()
                if key not in FROZEN_READ_KEYS
            }
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(payload)


# == strategies ================================================================

#: Short identifiers, plus any non-surrogate text where strings are free.
NAMES = st.text("abcdefghij._", min_size=1, max_size=6)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
SITES = st.sampled_from(["NorthAmerica", "Europe", "Asia", "MiddleEast"])
DTYPES = st.sampled_from(list(DataType))
BASES = st.none() | st.builds(BaseColumn, NAMES, NAMES, NAMES)
VALUES = {
    DataType.INTEGER: st.integers(-(10**9), 10**9),
    DataType.DECIMAL: st.floats(allow_nan=False, allow_infinity=False),
    DataType.VARCHAR: TEXT,
    DataType.DATE: st.dates(),
    DataType.BOOLEAN: st.booleans(),
}
#: Typed literals, NULLs of every type included.
LITERALS = DTYPES.flatmap(
    lambda dtype: st.builds(Literal, st.none() | VALUES[dtype], st.just(dtype))
)
COLUMNS = st.builds(ColumnRef, NAMES, DTYPES, BASES)


def tuples(strategy, min_size=0, max_size=3):
    return st.lists(strategy, min_size=min_size, max_size=max_size).map(tuple)


def aggregate_calls(arguments) -> st.SearchStrategy[AggregateCall]:
    """Aggregate calls; a ``None`` argument is ``COUNT(*)``."""
    return st.builds(
        AggregateCall, st.sampled_from(list(AggregateFunction)), st.none() | arguments
    )


EXPRESSIONS = st.recursive(
    LITERALS | COLUMNS,
    lambda inner: st.one_of(
        st.builds(Comparison, st.sampled_from(list(ComparisonOp)), inner, inner),
        st.builds(And, tuples(inner, 2)),
        st.builds(Or, tuples(inner, 2)),
        st.builds(Not, inner),
        st.builds(Arithmetic, st.sampled_from(list(ArithmeticOp)), inner, inner),
        st.builds(Negate, inner),
        st.builds(Like, inner, TEXT, st.booleans()),
        st.builds(InList, inner, tuples(LITERALS, 1), st.booleans()),
        st.builds(IsNull, inner, st.booleans()),
        st.builds(FunctionCall, NAMES, tuples(inner)),
        aggregate_calls(inner),
    ),
    max_leaves=8,
)
SCANS = st.builds(
    LogicalScan,
    NAMES,
    NAMES,
    SITES,
    NAMES,
    tuples(st.builds(Field, NAMES, DTYPES, BASES, st.integers(0, 64))),
)
PLANS = st.recursive(
    SCANS,
    lambda inner: st.one_of(
        st.builds(LogicalFilter, inner, EXPRESSIONS),
        st.builds(LogicalProject, inner, tuples(EXPRESSIONS), tuples(NAMES)),
        st.builds(LogicalJoin, inner, inner, st.none() | EXPRESSIONS),
        st.builds(
            LogicalAggregate,
            inner,
            tuples(COLUMNS),
            tuples(aggregate_calls(COLUMNS | EXPRESSIONS)),
            tuples(NAMES),
        ),
        st.builds(LogicalUnion, tuples(inner, 2)),
        st.builds(
            LogicalSort,
            inner,
            tuples(st.tuples(NAMES, st.booleans())),
            st.none() | st.integers(0, 10**6),
        ),
    ),
    max_leaves=6,
)


def on_the_wire(descriptor: Any) -> Any:
    """``descriptor`` as a trace reader gets it back."""
    return json.loads(canonical_json(descriptor))


def ordered(descriptor: Any) -> str:
    """JSON text keeping key order, so equal key *sequences* are pinned."""
    return json.dumps(descriptor)


# == the differential ==========================================================


@settings(max_examples=fuzz_examples(), deadline=None)
@given(EXPRESSIONS)
def test_expressions_match_the_frozen_codec(expr: Expression):
    encoded = encode_expression(expr)
    assert ordered(encoded) == ordered(frozen_encode_expression(expr))
    wire = on_the_wire(encoded)
    decoded = decode_expression(wire)
    assert decoded == frozen_decode_expression(wire)
    assert encode_expression(decoded) == wire


@settings(max_examples=fuzz_examples(), deadline=None)
@given(PLANS, st.data())
def test_plans_match_the_frozen_codec(plan: LogicalPlan, data):
    encoded = encode_logical(plan)
    assert canonical_json(encoded) == canonical_json(frozen_encode_logical(plan))
    assert ordered(encoded) == ordered(frozen_encode_logical(plan))
    wire = on_the_wire(encoded)
    assert decode_logical(wire) == frozen_decode_logical(wire)
    assert strip_payload_reads(wire) is wire  # nothing annotated: no copy
    assert payload_reads(wire) == frozen_payload_reads(wire) == []

    # Stamp a random subset of the scans, as the scheduler does for
    # replica reads (table names match case-insensitively).
    scans = [node for node in plan.walk() if isinstance(node, LogicalScan)]
    chosen = data.draw(st.lists(st.sampled_from(scans), max_size=len(scans)))
    reads = [
        SimpleNamespace(
            database=scan.database,
            table=scan.table.upper(),
            site=scan.location,
            at_seconds=data.draw(st.floats(0, 100)),
            staleness_seconds=data.draw(st.floats(0, 10)),
        )
        for scan in chosen
    ]
    annotated = annotate_payload_reads(encoded, reads)
    assert ordered(annotated) == ordered(frozen_annotate_payload_reads(encoded, reads))
    assert encoded == encode_logical(plan)  # the input is left as it was
    for payload in (annotated, on_the_wire(annotated)):
        assert strip_payload_reads(payload) == frozen_strip_payload_reads(payload)
        assert canonical_json(strip_payload_reads(payload)) == canonical_json(wire)
        assert payload_reads(payload) == frozen_payload_reads(payload)
        assert decode_logical(payload) == frozen_decode_logical(payload)


# == malformed descriptors =====================================================

FIELD = {"name": "o.k", "t": "integer", "base": ["db1", "orders", "k"], "width": 8}
SCAN = {
    "o": "scan",
    "table": "orders",
    "database": "db1",
    "location": "Europe",
    "alias": "o",
    "fields": [FIELD],
}
COL = {"e": "col", "name": "o.k", "t": "integer", "base": None}
LIT = {"e": "lit", "v": 3, "t": "integer"}
COUNT = {"e": "agg", "func": "count", "arg": None}


def filtered(predicate: Any) -> dict[str, Any]:
    return {"o": "filter", "child": SCAN, "predicate": predicate}


def scan(**changes: Any) -> dict[str, Any]:
    return {**SCAN, **changes}


def field(**changes: Any) -> dict[str, Any]:
    return scan(fields=[{**FIELD, **changes}])


def aggregate(keys: list, aggs: list) -> dict[str, Any]:
    return {"o": "aggregate", "child": SCAN, "keys": keys, "aggs": aggs, "names": ["n"]}


def sort(**changes: Any) -> dict[str, Any]:
    return {"o": "sort", "child": SCAN, "keys": [["o.k", True]], "limit": 5, **changes}


#: The earlier codec's reading of a payload it accepted without error.
ACCEPTED = "accepted"

#: (payload, message now, what the earlier codec did: the same message,
#: ``ACCEPTED``, or another message / exception type).
MALFORMED = {
    # -- messages kept from the earlier codec
    "not-an-object": ("not-a-dict", "payload descriptor must be an object, got 'not-a-dict'", None),
    "unknown-operator": ({"o": "teleport"}, "unknown payload operator 'teleport'", None),
    "list-operator": ({"o": ["scan"]}, "unknown payload operator ['scan']", None),
    "missing-operator": ({"op": "scan"}, "unknown payload operator None", None),
    "missing-key": ({"o": "scan"}, "malformed 'scan' payload descriptor: 'table'", None),
    "missing-predicate": (
        {"o": "filter", "child": SCAN},
        "malformed 'filter' payload descriptor: 'predicate'",
        None,
    ),
    "child-not-an-object": (
        {"o": "filter", "child": 5, "predicate": LIT},
        "payload descriptor must be an object, got 5",
        None,
    ),
    "unknown-expression": (filtered({"e": "warp"}), "unknown expression tag 'warp'", None),
    "expression-not-an-object": (
        filtered(42),
        "expression descriptor must be an object, got 42",
        None,
    ),
    "missing-operand": (
        filtered({"e": "cmp", "op": "=", "l": COL}),
        "malformed 'cmp' expression descriptor: 'r'",
        None,
    ),
    "bad-comparison": (
        filtered({"e": "cmp", "op": "==", "l": COL, "r": LIT}),
        "malformed 'cmp' expression descriptor: '==' is not a valid ComparisonOp",
        None,
    ),
    "bad-arithmetic": (
        filtered({"e": "arith", "op": "%", "l": COL, "r": LIT}),
        "malformed 'arith' expression descriptor: '%' is not a valid ArithmeticOp",
        None,
    ),
    "bad-dtype": (
        filtered({**COL, "t": "blob"}),
        "malformed 'col' expression descriptor: 'blob' is not a valid DataType",
        None,
    ),
    "bad-date": (
        filtered({"e": "lit", "v": "someday", "t": "date"}),
        "malformed 'lit' expression descriptor: Invalid isoformat string: 'someday'",
        None,
    ),
    "bad-aggregate-function": (
        aggregate([], [{"e": "agg", "func": "median", "arg": COL}]),
        "malformed 'agg' expression descriptor: 'median' is not a valid "
        "AggregateFunction",
        None,
    ),
    "in-list-of-columns": (
        filtered({"e": "in", "op": COL, "values": [COL], "negated": False}),
        "IN-list values must be literals",
        None,
    ),
    "group-key-literal": (
        aggregate([LIT], [COUNT]),
        "group keys must be column references",
        None,
    ),
    "aggregate-literal": (
        aggregate([COL], [LIT]),
        "aggregates must be aggregate calls",
        None,
    ),
    "field-missing-width": (
        scan(fields=[{k: v for k, v in FIELD.items() if k != "width"}]),
        "malformed field descriptor: 'width'",
        None,
    ),
    "field-bad-dtype": (
        field(t="blob"),
        "malformed field descriptor: 'blob' is not a valid DataType",
        None,
    ),
    # -- new messages: the earlier codec crashed later, or accepted
    "list-literal": (
        filtered({**LIT, "v": [1, 2]}),
        "malformed 'lit' expression descriptor: 'v' must be a JSON scalar, got [1, 2]",
        ACCEPTED,
    ),
    "integer-table": (
        scan(table=7),
        "malformed 'scan' payload descriptor: 'table' must be a string, got 7",
        ACCEPTED,
    ),
    "integer-provenance": (
        filtered({**COL, "base": [1, 2, 3]}),
        "malformed 'col' expression descriptor: 'base' must be a "
        "[database, table, column] list or null, got [1, 2, 3]",
        ACCEPTED,
    ),
    "short-provenance": (
        field(base=["db1", "orders"]),
        "malformed field descriptor: 'base' must be a [database, table, column] "
        "list or null, got ['db1', 'orders']",
        "malformed provenance descriptor ['db1', 'orders']",
    ),
    "integer-column-name": (
        filtered({**COL, "name": 5}),
        "malformed 'col' expression descriptor: 'name' must be a string, got 5",
        ACCEPTED,
    ),
    "text-width": (
        field(width="wide"),
        "malformed field descriptor: 'width' must be an integer, got 'wide'",
        ACCEPTED,
    ),
    "boolean-width": (
        field(width=True),
        "malformed field descriptor: 'width' must be an integer, got True",
        ACCEPTED,
    ),
    "text-negated": (
        filtered({"e": "isnull", "op": COL, "negated": "no"}),
        "malformed 'isnull' expression descriptor: 'negated' must be a boolean, "
        "got 'no'",
        ACCEPTED,
    ),
    "integer-pattern": (
        filtered({"e": "like", "op": COL, "pattern": 1, "negated": False}),
        "malformed 'like' expression descriptor: 'pattern' must be a string, got 1",
        ACCEPTED,
    ),
    "text-names": (
        {"o": "project", "child": SCAN, "exprs": [COL], "names": "ab"},
        "malformed 'project' payload descriptor: 'names' must be a list of strings, "
        "got 'ab'",
        ACCEPTED,
    ),
    "short-sort-key": (
        sort(keys=[["o.k"]]),
        "malformed 'sort' payload descriptor: 'keys' must be a list of "
        "[name, descending] pairs, got [['o.k']]",
        "malformed 'sort' payload descriptor: not enough values to unpack "
        "(expected 2, got 1)",
    ),
    "text-limit": (
        sort(limit="5"),
        "malformed 'sort' payload descriptor: 'limit' must be an integer or null, "
        "got '5'",
        ACCEPTED,
    ),
    "operands-not-a-list": (
        filtered({"e": "and", "ops": 5}),
        "malformed 'and' expression descriptor: 'ops' must be a list, got 5",
        "malformed 'and' expression descriptor: 'int' object is not iterable",
    ),
    "fields-not-a-list": (
        scan(fields={"name": "o.k"}),
        "malformed 'scan' payload descriptor: 'fields' must be a list of objects, "
        "got {'name': 'o.k'}",
        TraceFormatError,  # "malformed field descriptor: string indices must ..."
    ),
    "undeclared-filter-key": (
        {**filtered(LIT), "warp": 9},
        "malformed 'filter' payload descriptor: undeclared key(s) 'warp'",
        ACCEPTED,
    ),
    "undeclared-expression-keys": (
        filtered({**COL, "y": 1, "x": 2}),
        "malformed 'col' expression descriptor: undeclared key(s) 'x', 'y'",
        ACCEPTED,
    ),
    "undeclared-field-key": (
        field(colour="red"),
        "malformed field descriptor: undeclared key(s) 'colour'",
        ACCEPTED,
    ),
    "read-keys-off-a-scan": (
        {**filtered(LIT), "read_at": 1.0, "staleness_at_read": 0.5},
        "malformed 'filter' payload descriptor: undeclared key(s) 'read_at', "
        "'staleness_at_read'",
        ACCEPTED,
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_descriptors_raise_pinned_messages(name):
    payload, message, earlier = MALFORMED[name]
    with pytest.raises(TraceFormatError) as raised:
        decode_logical(payload)
    assert str(raised.value) == message
    if earlier is None:  # kept: the earlier codec said exactly the same
        with pytest.raises(TraceFormatError) as frozen:
            frozen_decode_logical(payload)
        assert str(frozen.value) == message
    elif earlier == ACCEPTED:
        frozen_decode_logical(payload)
    elif isinstance(earlier, str):
        with pytest.raises(TraceFormatError) as frozen:
            frozen_decode_logical(payload)
        assert str(frozen.value) == earlier
    else:
        with pytest.raises(earlier):
            frozen_decode_logical(payload)


def test_annotated_scans_are_the_only_tolerated_extra_keys():
    annotated = scan(read_at=1.5, staleness_at_read=0.25)
    assert decode_logical(annotated) == decode_logical(SCAN)
    assert payload_reads({"o": "union", "inputs": [annotated, SCAN]}) == [annotated]
    assert strip_payload_reads(annotated) == SCAN


@pytest.mark.parametrize(
    "payload", [None, 3, "scan", [SCAN, 4], {"o": "filter", "child": [[{}], 2]}]
)
def test_walkers_tolerate_any_json_value(payload):
    """Malformed payloads pass through the walkers untouched, to fail in
    the decoder with a typed error."""
    assert strip_payload_reads(payload) is payload
    assert payload_reads(payload) == []
    with pytest.raises(TraceFormatError):
        decode_logical(payload)


def test_encoding_an_undeclared_class_is_a_type_error():
    with pytest.raises(TypeError, match="no descriptor schema for object"):
        encode_logical(object())
