"""Typed trace events.

Every event is a small dataclass with a class-level ``kind`` tag, a
``query`` id (0 = outside any query bracket — e.g. shared optimizer
work or server-level admission decisions), and an ``at`` instant on the
*simulated* clock (events off the execution timeline, such as the
optimizer's decisions, stamp 0.0).
Wall-clock readings never appear in events: traces must be byte-stable
across runs, and only the simulated timeline is deterministic.

``to_dict``/:func:`event_from_dict` round-trip events through plain
JSON-compatible dicts (``to_dict`` is shallow: the dict shares the
event's lists and payload tree, which the encoder only reads), and
:func:`canonical_json` is the one canonical encoder both the trace
writer and the auditor's payload keys use.
:func:`event_from_dict` raises a typed
:class:`~repro.errors.TraceFormatError` for unknown kinds and missing
or mistyped required fields, so a hand-edited or truncated trace fails
the reader instead of silently skewing an audit.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, ClassVar

from ..errors import TraceFormatError

#: Ship-attempt outcomes, as recorded by the emission sites.
#: ``delivered`` is the only outcome that moves data; every other is a
#: failed attempt (audited all the same — an attempt reveals where the
#: executor *tried* to send the payload).
SHIP_OUTCOMES = (
    "delivered",  # transfer succeeded at the attempt instant
    "transient",  # retriable blip; the scheduler backs off and retries
    "retry_exhausted",  # transient failures exceeded the retry budget
    "link_down",  # permanent link failure (no retry)
    "circuit_open",  # per-link breaker fast-fail (no retry)
    "site_down",  # an endpoint site crashed
    "timeout",  # per-fragment input-delivery timeout tripped
)

#: The canonical JSON form (sorted keys, no whitespace, UTF-8 kept
#: as-is): one encoder built once instead of one per ``json.dumps``.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


@dataclass
class TraceEvent:
    """Base class; subclasses add their own fields after these two."""

    kind: ClassVar[str] = ""
    #: Rank used to order co-instant events of one query deterministically.
    rank: ClassVar[int] = 5

    query: int = 0
    at: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        cls = type(self)
        data = {"kind": cls.kind}
        for name in _field_names(cls):
            data[name] = getattr(self, name)
        return data


@dataclass
class QueryStart(TraceEvent):
    """Opens a query bracket (engine execution or server dispatch)."""

    kind: ClassVar[str] = "query_start"
    rank: ClassVar[int] = 0

    label: str | None = None
    executor: str | None = None


@dataclass
class OptimizedEvent(TraceEvent):
    """One optimizer run: the root's chosen traits and search effort."""

    kind: ClassVar[str] = "optimized"
    rank: ClassVar[int] = 1

    operator: str = ""
    result_location: str = ""
    #: Sorted 𝒮 trait of the root group — everywhere the result may ship.
    shipping_trait: list[str] = dataclasses.field(default_factory=list)
    #: Sorted ℰ trait of the root group — everywhere the root may run.
    execution_trait: list[str] = dataclasses.field(default_factory=list)
    groups: int = 0
    expressions: int = 0
    #: True when the plan came from the compliant plan cache (both
    #: optimizer phases skipped; traits/effort are the cached
    #: template's).  Defaults to False so pre-cache traces stay
    #: parseable.
    plan_cache_hit: bool = False
    #: The query's staleness bound in seconds (``--max-staleness``),
    #: recorded so the independent auditor re-derives per-scan freshness
    #: verdicts against the *traced* bound.  ``None`` = no bound.
    max_staleness: float | None = None


@dataclass
class PlacementEvent(TraceEvent):
    """Site selection for one physical operator (SHIPs excluded — their
    placements are the ship events themselves)."""

    kind: ClassVar[str] = "placement"
    rank: ClassVar[int] = 2

    operator: str = ""
    location: str = ""
    #: Sorted ℰ trait the operator was annotated with (None when the
    #: plan carries no annotation, e.g. the traditional baseline).
    execution_trait: list[str] | None = None


@dataclass
class RequestEvent(TraceEvent):
    """A query-server admission/shedding decision for one request."""

    kind: ClassVar[str] = "request"
    rank: ClassVar[int] = 3

    action: str = ""  # arrival | rejected | shed | served | served_late | partial
    label: str = ""
    detail: str | None = None


@dataclass
class ShipEvent(TraceEvent):
    """One transfer *attempt* at a SHIP boundary."""

    kind: ClassVar[str] = "ship"
    rank: ClassVar[int] = 4

    source: str = ""
    target: str = ""
    rows: int = 0
    bytes: int = 0
    attempt: int = 1
    outcome: str = "delivered"
    #: Simulated transfer seconds (delivered attempts only).
    seconds: float | None = None
    #: Producer/consumer fragment indices (``None`` only in hand-written
    #: events; the scheduler always sets both).
    producer: int | None = None
    consumer: int | None = None
    columns: list[str] = dataclasses.field(default_factory=list)
    #: Self-contained payload descriptor (see :mod:`repro.trace.codec`).
    payload: dict[str, Any] | None = None
    #: Worst staleness (seconds) among the producer fragment's committed
    #: replica reads — the freshness claim shipped with the data.
    #: ``None`` when the producer read no replica (or no freshness
    #: policy was active); defaults keep pre-freshness traces parseable.
    staleness_at_read: float | None = None
    #: Compressed bytes that actually crossed the link (``bytes`` stays
    #: the logical uncompressed size).  ``None`` on legacy plain-wire
    #: transfers — and then omitted from the serialized form entirely,
    #: so non-streaming traces are byte-identical to earlier releases.
    wire_bytes: int | None = None
    #: Chunk count of a streamed transfer (omitted with ``wire_bytes``).
    chunks: int | None = None

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        if data.get("wire_bytes") is None:
            data.pop("wire_bytes", None)
            data.pop("chunks", None)
        return data


@dataclass
class ChunkEvent(TraceEvent):
    """One chunk-send *attempt* of a streamed SHIP transfer.

    Chunk events carry no payload descriptor: the auditor joins them to
    the single rolled-up :class:`ShipEvent` of their logical transfer
    via ``(query, producer, consumer, source, target)`` and re-derives
    permitted destinations from that one payload — "exactly one payload
    descriptor per logical transfer" stays true at any chunk size.
    ``bytes`` is the chunk's *wire* (compressed) size."""

    kind: ClassVar[str] = "chunk"
    rank: ClassVar[int] = 4

    source: str = ""
    target: str = ""
    #: Chunk index within the transfer, and the transfer's chunk count.
    chunk: int = 0
    of: int = 1
    rows: int = 0
    bytes: int = 0
    attempt: int = 1
    outcome: str = "delivered"
    #: Simulated send seconds (delivered attempts only).
    seconds: float | None = None
    producer: int | None = None
    consumer: int | None = None


@dataclass
class RecoveryEvent(TraceEvent):
    """A failover re-placement of one fragment."""

    kind: ClassVar[str] = "recovery"
    rank: ClassVar[int] = 5

    fragment: int = 0
    source: str = ""
    target: str = ""
    reason: str = ""
    #: Whether the new placement passed the recovery compliance check
    #: (False only when the scheduler runs without a compliance guard).
    validated: bool = False
    #: ``"replica"`` when a scan-bearing fragment moved to a compliant
    #: replica site; ``"replacement"`` for classic ℰ-restricted
    #: re-placement.  Named ``failover_kind`` because ``kind`` is the
    #: event-type tag; defaults keep pre-replica traces parseable.
    failover_kind: str = "replacement"
    #: Staleness (seconds) of the demoted replica at the decision
    #: instant, for freshness demotions; ``None`` for every other
    #: failover reason.
    staleness_at_read: float | None = None


@dataclass
class ScanReadEvent(TraceEvent):
    """One committed base-table read from a replica site: which copy a
    fragment actually read, at which simulated instant (``at``), and
    how stale that copy was.  Emitted once per replica scan per
    admitted fragment when a freshness policy is active — the unit the
    auditor's freshness verdicts and the ``stale_reads`` counter
    reconcile over."""

    kind: ClassVar[str] = "scan_read"
    rank: ClassVar[int] = 4

    fragment: int = 0
    database: str = ""
    table: str = ""
    site: str = ""
    staleness_at_read: float = 0.0


@dataclass
class QueryEnd(TraceEvent):
    """Closes a query bracket."""

    kind: ClassVar[str] = "query_end"
    rank: ClassVar[int] = 9

    status: str = "ok"  # ok | partial | shed | error
    rows: int | None = None
    makespan: float | None = None


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        QueryStart,
        OptimizedEvent,
        PlacementEvent,
        RequestEvent,
        ShipEvent,
        ChunkEvent,
        RecoveryEvent,
        ScanReadEvent,
        QueryEnd,
    )
}

_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    """The dataclass field names of ``cls``, introspected once per class."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


#: Per-kind accepted keys of a serialized event (its fields plus the tag).
_ACCEPTED: dict[str, frozenset[str]] = {
    kind: frozenset(_field_names(cls)) | {"kind"}
    for kind, cls in EVENT_TYPES.items()
}

#: Fields every event must carry in serialized form.
_BASE_REQUIRED = ("query", "at")

#: Per-kind required fields, the base pair first (the rest default
#: sensibly).
_REQUIRED: dict[str, tuple[str, ...]] = {
    kind: (*_BASE_REQUIRED, *extra)
    for kind, extra in {
        "query_start": (),
        "optimized": ("result_location",),
        "placement": ("operator", "location"),
        "request": ("action", "label"),
        "ship": ("source", "target", "bytes", "attempt", "outcome"),
        "chunk": ("source", "target", "chunk", "outcome"),
        "recovery": ("fragment", "source", "target"),
        "scan_read": ("database", "table", "site", "staleness_at_read"),
        "query_end": ("status",),
    }.items()
}


def event_from_dict(data: Any) -> TraceEvent:
    """Revive one event; raises :class:`TraceFormatError` when it does
    not describe a well-formed event of a known kind."""
    if not isinstance(data, dict):
        raise TraceFormatError(f"trace event must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise TraceFormatError(f"unknown trace event kind {kind!r}")
    missing = [name for name in _REQUIRED[kind] if name not in data]
    if missing:
        raise TraceFormatError(
            f"{kind} event is missing required field(s): {', '.join(missing)}"
        )
    unknown = data.keys() - _ACCEPTED[kind]
    if unknown:
        raise TraceFormatError(
            f"{kind} event has unknown field(s): {', '.join(sorted(unknown))}"
        )
    kwargs = dict(data)
    del kwargs["kind"]
    try:
        event = cls(**kwargs)
    except TypeError as error:  # pragma: no cover - defensive
        raise TraceFormatError(f"malformed {kind} event: {error}") from error
    if not isinstance(event.query, int) or not isinstance(event.at, (int, float)):
        raise TraceFormatError(f"{kind} event has mistyped query/at fields")
    if isinstance(event, (ShipEvent, ChunkEvent)) and event.outcome not in SHIP_OUTCOMES:
        raise TraceFormatError(f"unknown {kind} outcome {event.outcome!r}")
    return event
