"""JSON codec for shipped payload descriptors.

A SHIP's *payload descriptor* is the logical subquery its data is the
result of (:func:`repro.optimizer.validator.to_logical`): with it in
every ship event, the auditor re-derives each payload's permitted
destinations from the trace and the policy set alone.  One declared
schema drives the codec: :data:`_SCHEMA` has one row per node class, and
both directions are built from it at import.  Any malformed descriptor
— a missing or mistyped value, an unknown tag, an undeclared key —
raises :class:`~repro.errors.TraceFormatError`: an auditor must fail
loudly on a trace it cannot interpret.
"""

from __future__ import annotations

import datetime as _dt
import operator
from collections import namedtuple
from functools import partial
from typing import Any, Callable

from ..datatypes import DataType
from ..errors import TraceFormatError
from ..expr import (
    AggregateCall, AggregateFunction, And, Arithmetic, ArithmeticOp, BaseColumn,
    ColumnRef, Comparison, ComparisonOp, FunctionCall, InList, IsNull, Like,
    Literal, Negate, Not, Or,
)
from ..plan import (
    Field, LogicalAggregate, LogicalFilter, LogicalJoin, LogicalProject,
    LogicalScan, LogicalSort, LogicalUnion,
)

#: Scan-descriptor keys carrying a freshness claim (see the walkers below).
PAYLOAD_READ_KEYS = ("read_at", "staleness_at_read")
_REQUIRED = object()
_VALUE = operator.attrgetter("value")
#: A field's encoding, its checked decoding, and the value of an absent key.
Kind = namedtuple("Kind", "encode decode missing", defaults=[_REQUIRED])


class _Mistyped(Exception):
    """A value of the wrong JSON type; the message says what it must be."""


def _checked(test, must_be: str, convert=None, encode=None, missing=_REQUIRED):
    def decode(value: Any) -> Any:
        if not test(value):
            raise _Mistyped(must_be)
        return value if convert is None else convert(value)

    return Kind(encode or (lambda value: value), decode, missing)


def _of(*types: type) -> Callable[[Any], bool]:
    return lambda value: type(value) in types  # exact: True is no integer


def _list_of(test, size: int | None = None) -> Callable[[Any], bool]:
    return lambda v: type(v) is list and size in (None, len(v)) and all(map(test, v))


def _revive_date(kwargs: dict[str, Any]) -> None:  # ISO strings of DATE literals
    if kwargs["dtype"] is DataType.DATE and isinstance(kwargs["value"], str):
        kwargs["value"] = _dt.date.fromisoformat(kwargs["value"])


STR = _checked(_of(str), "a string")
BOOL = _checked(_of(bool), "a boolean")
INT = _checked(_of(int), "an integer")
OPTIONAL_INT = _checked(_of(int, type(None)), "an integer or null")
STRS = _checked(_list_of(_of(str)), "a list of strings", tuple, list)
SORT_KEYS = _checked(
    _list_of(lambda pair: type(pair) is list and list(map(type, pair)) == [str, bool]),
    "a list of [name, descending] pairs",
    lambda pairs: tuple(map(tuple, pairs)), lambda pairs: list(map(list, pairs)))
SCALAR = _checked(
    _of(type(None), bool, int, float, str), "a JSON scalar",
    encode=lambda v: v.isoformat() if isinstance(v, (_dt.date, _dt.datetime)) else v)
PROVENANCE = _checked(
    lambda v, triple=_list_of(_of(str), 3): v is None or triple(v),
    "a [database, table, column] list or null",
    lambda v: None if v is None else BaseColumn(*v),
    lambda b: None if b is None else [b.database, b.table, b.column], missing=None)
DTYPE = Kind(_VALUE, DataType)


def _record(make, what: str, fields, head: dict, extra=(), finish=None):
    """Encoder and decoder of one record; ``extra`` keys are tolerated
    beyond the declared ones, ``finish`` edits the decoded attributes."""
    declared = frozenset([*head, *(key for _, key, _ in fields), *extra])

    def encode(node: Any) -> dict[str, Any]:
        out = dict(head)
        for attr, key, (encode_value, _, _) in fields:
            out[key] = encode_value(getattr(node, attr))
        return out

    def decode(data: dict[str, Any]) -> Any:
        if not declared.issuperset(data):
            unknown = ", ".join(map(repr, sorted(data.keys() - declared)))
            raise TraceFormatError(f"malformed {what}: undeclared key(s) {unknown}")
        kwargs, key = {}, None
        try:
            for attr, key, (_, decode_value, missing) in fields:
                value = data.get(key, missing)
                if value is _REQUIRED:
                    raise KeyError(key)
                kwargs[attr] = decode_value(value)
            if finish is not None:
                finish(kwargs)
            return make(**kwargs)
        except _Mistyped as error:
            raise TraceFormatError(
                f"malformed {what}: {key!r} must be {error}, got {data[key]!r}"
            ) from error
        except (KeyError, ValueError, TypeError) as error:
            raise TraceFormatError(f"malformed {what}: {error}") from error

    return encode, decode


_encode_field, _decode_field = _record(Field, "field descriptor", [
    ("name", "name", STR), ("dtype", "t", DTYPE),
    ("base", "base", PROVENANCE), ("width", "width", INT),
], head={})
FIELDS = _checked(
    _list_of(_of(dict)), "a list of objects",
    lambda items: tuple(map(_decode_field, items)),
    lambda fields: list(map(_encode_field, fields)))

#: Encoders by node class; decoders by family key, then tag.
_ENCODERS: dict[type, Callable] = {}
_DECODERS: dict[str, dict[str, Callable]] = {"e": {}, "o": {}}
_NOUNS = {"e": ("expression", "expression tag"), "o": ("payload", "payload operator")}


def encode(node: Any) -> dict[str, Any]:
    """The descriptor of an expression or logical-operator tree."""
    encode_node = _ENCODERS.get(type(node))
    if encode_node is None:
        raise TypeError(f"no descriptor schema for {type(node).__name__}")
    return encode_node(node)


def _decode(family: str, data: Any) -> Any:
    if not isinstance(data, dict):
        noun = _NOUNS[family][0]
        raise TraceFormatError(f"{noun} descriptor must be an object, got {data!r}")
    tag = data.get(family)
    decode_node = _DECODERS[family].get(tag) if isinstance(tag, str) else None
    if decode_node is None:
        raise TraceFormatError(f"unknown {_NOUNS[family][1]} {tag!r}")
    return decode_node(data)


def _children(decode, only: type = object, message: str = "") -> Kind:
    """A list of nodes, each of which must decode to an ``only``."""

    def convert(items: list) -> tuple:
        nodes = tuple(map(decode, items))
        if not all(isinstance(node, only) for node in nodes):
            raise TraceFormatError(message)
        return nodes

    return _checked(_of(list), "a list", convert, lambda n: list(map(encode, n)))


encode_expression = encode_logical = encode
decode_expression, decode_logical = partial(_decode, "e"), partial(_decode, "o")
E, E_TUPLE = Kind(encode, decode_expression), _children(decode_expression)
P, P_TUPLE = Kind(encode, decode_logical), _children(decode_logical)
E_OPT = Kind(lambda node: None if node is None else encode(node),
             lambda data: None if data is None else decode_expression(data))
OPERAND, NEGATED = ("operand", "op", E), ("negated", "negated", BOOL)
BINARY = [("left", "l", E), ("right", "r", E)]

#: Family key (``"e"`` expressions, ``"o"`` operators), tag, class and
#: ``(attribute, key, kind)`` fields; then tolerated keys and a decode hook.
_SCHEMA = [
    ("e", "lit", Literal, [("value", "v", SCALAR), ("dtype", "t", DTYPE)],
     (), _revive_date),
    ("e", "col", ColumnRef,
     [("name", "name", STR), ("dtype", "t", DTYPE), ("base", "base", PROVENANCE)]),
    ("e", "cmp", Comparison, [("op", "op", Kind(_VALUE, ComparisonOp)), *BINARY]),
    ("e", "and", And, [("operands", "ops", E_TUPLE)]),
    ("e", "or", Or, [("operands", "ops", E_TUPLE)]),
    ("e", "not", Not, [OPERAND]),
    ("e", "arith", Arithmetic, [("op", "op", Kind(_VALUE, ArithmeticOp)), *BINARY]),
    ("e", "neg", Negate, [OPERAND]),
    ("e", "like", Like, [OPERAND, ("pattern", "pattern", STR), NEGATED]),
    ("e", "in", InList, [OPERAND, ("values", "values", _children(
        decode_expression, Literal, "IN-list values must be literals")), NEGATED]),
    ("e", "isnull", IsNull, [OPERAND, NEGATED]),
    ("e", "func", FunctionCall, [("name", "name", STR), ("args", "args", E_TUPLE)]),
    ("e", "agg", AggregateCall,
     [("func", "func", Kind(_VALUE, AggregateFunction)), ("argument", "arg", E_OPT)]),
    ("o", "scan", LogicalScan, [
        ("table", "table", STR), ("database", "database", STR),
        ("location", "location", STR), ("alias", "alias", STR),
        ("scan_fields", "fields", FIELDS),
    ], PAYLOAD_READ_KEYS),
    ("o", "filter", LogicalFilter,
     [("child", "child", P), ("predicate", "predicate", E)]),
    ("o", "project", LogicalProject,
     [("child", "child", P), ("exprs", "exprs", E_TUPLE), ("names", "names", STRS)]),
    ("o", "join", LogicalJoin,
     [("left", "left", P), ("right", "right", P), ("condition", "condition", E_OPT)]),
    ("o", "aggregate", LogicalAggregate, [
        ("child", "child", P),
        ("group_keys", "keys", _children(
            decode_expression, ColumnRef, "group keys must be column references")),
        ("aggregates", "aggs", _children(
            decode_expression, AggregateCall, "aggregates must be aggregate calls")),
        ("agg_names", "names", STRS),
    ]),
    ("o", "union", LogicalUnion, [("inputs", "inputs", P_TUPLE)]),
    ("o", "sort", LogicalSort, [
        ("child", "child", P), ("sort_keys", "keys", SORT_KEYS),
        ("limit", "limit", OPTIONAL_INT),
    ]),
]

for _family, _tag, _cls, _fields, *_extras in _SCHEMA:
    _ENCODERS[_cls], _DECODERS[_family][_tag] = _record(
        _cls, f"{_tag!r} {_NOUNS[_family][0]} descriptor", _fields,
        {_family: _tag}, *_extras,
    )


def encode_payload(physical: Any) -> dict[str, Any]:
    """Descriptor of the logical subquery a physical subtree computes
    (imported lazily: the optimizer package itself emits trace events)."""
    from ..optimizer.validator import to_logical

    return encode(to_logical(physical))


# -- freshness annotations -----------------------------------------------------
# A shipped scan descriptor may carry the read it committed (``read_at``,
# ``staleness_at_read``).  The walkers follow only the keys declared as
# plan children, the skeleton: a scan anywhere else fails to decode.

_PLAN_CHILD_KEYS = tuple(dict.fromkeys(
    key for row in _SCHEMA for _, key, kind in row[3] if kind in (P, P_TUPLE)))


def _map_skeleton(node: Any, visit: Callable[[dict], dict | None]) -> Any:
    """``node`` with each skeleton descriptor replaced by ``visit``'s
    result (``None`` keeps it), uncopied where unchanged; any JSON goes."""
    if isinstance(node, list):
        out = [_map_skeleton(item, visit) for item in node]
        return node if all(map(operator.is_, out, node)) else out
    if not isinstance(node, dict):
        return node
    changed = {}
    for key in _PLAN_CHILD_KEYS:
        if key in node and (child := _map_skeleton(node[key], visit)) is not node[key]:
            changed[key] = child
    node = {**node, **changed} if changed else node
    replaced = visit(node)
    return node if replaced is None else replaced


def annotate_payload_reads(payload: dict[str, Any], reads) -> dict[str, Any]:
    """Encoded ``payload``, each scan stamped by its committed replica read
    (:class:`~repro.execution.metrics.ScanRead`); primary reads have none."""
    by_copy = {(r.database, r.table.lower(), r.site): r for r in reads}

    def stamp(node: dict) -> dict | None:
        at = node.get("database"), str(node.get("table")).lower(), node.get("location")
        read = by_copy.get(at) if node.get("o") == "scan" else None
        return read and {**node, "read_at": read.at_seconds,
                         "staleness_at_read": read.staleness_seconds}

    return _map_skeleton(payload, stamp)


def payload_reads(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Every scan descriptor in ``payload`` with either read key, in tree order."""
    found: list[dict[str, Any]] = []

    def collect(node: dict) -> None:
        if node.get("o") == "scan" and not node.keys().isdisjoint(PAYLOAD_READ_KEYS):
            found.append(node)

    _map_skeleton(payload, collect)
    return found


def strip_payload_reads(payload: dict[str, Any]) -> dict[str, Any]:
    """``payload`` without freshness annotations, as a cache key for re-reads
    of one subquery; an un-annotated payload comes back as itself."""

    def strip(node: dict) -> dict | None:
        if not node.keys().isdisjoint(PAYLOAD_READ_KEYS):
            return {k: v for k, v in node.items() if k not in PAYLOAD_READ_KEYS}

    return _map_skeleton(payload, strip)
