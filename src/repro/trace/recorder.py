"""Context-scoped trace recording.

The recorder is installed with :func:`tracing` and discovered by the
emission sites (optimizer, executors, scheduler, server) through
:func:`current_recorder` — a single :class:`~contextvars.ContextVar`
read.  When no recorder is installed every site's hook is one
``None``-check; no event object is ever built, which is what keeps the
disabled path effectively free (the performance ledger's
``harness.trace_overhead_ratio`` measures it).

Everything emits on the caller's thread — the fragment scheduler runs
fragments one after another — so the recorder needs no locking.

Canonical order
---------------
A trace is serialized sorted by ``(query, at, kind-rank)``, with ties
kept in emission order.  Emission order is itself deterministic: the
optimizer walks the plan in a fixed order, the fragment scheduler
visits fragments in the DAG's topological order and the server
dispatches in a fixed order.  Together with the simulated-clock-only
timestamps this makes a trace byte-identical across runs of the same
query, seed, and executor.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator

from ..errors import TraceFormatError
from ..plan import PhysicalPlan, Ship
from .events import (
    OptimizedEvent,
    PlacementEvent,
    QueryEnd,
    QueryStart,
    RequestEvent,
    TraceEvent,
    canonical_json,
    event_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..optimizer.compliant import OptimizationResult

_ACTIVE: ContextVar["TraceRecorder | None"] = ContextVar(
    "repro_trace_recorder", default=None
)


def current_recorder() -> "TraceRecorder | None":
    """The recorder installed on this thread's context, if any."""
    return _ACTIVE.get()


@contextmanager
def tracing(recorder: "TraceRecorder") -> Iterator["TraceRecorder"]:
    """Install ``recorder`` for the duration of the block."""
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)


class TraceRecorder:
    """Collects typed events from one or more traced executions."""

    def __init__(self) -> None:
        #: Recorded events in emission order.
        self._events: list[TraceEvent] = []
        self._next_query = 1
        self._stack: list[int] = []

    # -- emission ---------------------------------------------------------------

    @property
    def current_query(self) -> int:
        """Query id of the open bracket (0 outside any bracket)."""
        return self._stack[-1] if self._stack else 0

    def emit(self, event: TraceEvent) -> None:
        """Record ``event``; fills in the current query id."""
        if not event.query:
            event.query = self.current_query
        self._events.append(event)

    def begin_query(
        self, label: str | None = None, at: float = 0.0, executor: str | None = None
    ) -> int:
        """Open a query bracket; subsequent events belong to it."""
        query = self._next_query
        self._next_query += 1
        self._stack.append(query)
        self.emit(QueryStart(query=query, at=at, label=label, executor=executor))
        return query

    def end_query(
        self,
        query: int,
        at: float,
        status: str = "ok",
        rows: int | None = None,
        makespan: float | None = None,
    ) -> None:
        self.emit(
            QueryEnd(query=query, at=at, status=status, rows=rows, makespan=makespan)
        )
        if query in self._stack:
            self._stack.remove(query)

    # -- emission helpers (one per instrumented site) ---------------------------

    def record_optimization(self, result: "OptimizationResult") -> None:
        """Optimizer decisions: the root's chosen ℰ/𝒮 traits plus one
        placement event per located (non-SHIP) physical operator."""
        root = result.annotate.root
        self.emit(
            OptimizedEvent(
                operator=result.plan.describe(),
                result_location=result.plan.location,
                shipping_trait=sorted(root.shipping_trait),
                execution_trait=sorted(root.execution_trait),
                groups=result.annotate.group_count,
                expressions=result.annotate.expression_count,
                plan_cache_hit=getattr(result, "cache_hit", False),
                max_staleness=getattr(result, "max_staleness", None),
            )
        )
        self.record_placements(result.plan)

    def record_placements(self, plan: PhysicalPlan) -> None:
        for node in plan.walk():
            if isinstance(node, Ship):
                continue
            trait = node.execution_trait
            self.emit(
                PlacementEvent(
                    operator=node.describe(),
                    location=node.location,
                    execution_trait=None if trait is None else sorted(trait),
                )
            )

    def record_request(
        self, action: str, label: str, at: float, detail: str | None = None
    ) -> None:
        self.emit(RequestEvent(at=at, action=action, label=label, detail=detail))

    # -- access and serialization -----------------------------------------------

    def events(self) -> list[TraceEvent]:
        """All recorded events in the canonical deterministic order (a
        stable sort, so ties stay in emission order)."""
        return sorted(self._events, key=lambda e: (e.query, e.at, type(e).rank))

    def to_jsonl(self) -> str:
        """Serialize to JSON Lines, one event per line, in canonical
        order with canonical formatting (sorted keys, no whitespace) —
        the byte-stable on-disk form."""
        return "".join(
            canonical_json(event.to_dict()) + "\n" for event in self.events()
        )

    def write(self, path: str) -> int:
        """Write the JSONL trace to ``path``; returns the event count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(self._events)

    def __len__(self) -> int:
        return len(self._events)


# -- reading -------------------------------------------------------------------


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse JSONL trace text into typed events; raises
    :class:`~repro.errors.TraceFormatError` (with the 1-based line
    number) on any malformed line.

    Lines end at a line feed only: the canonical form keeps non-ASCII
    text unescaped, so a label may hold U+2028 or U+0085, on which
    ``str.splitlines`` would also break.  (JSON escapes line feeds
    inside strings, and a carriage return before one is whitespace.)"""
    events: list[TraceEvent] = []
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"not valid JSON: {error}", line=number) from error
        try:
            events.append(event_from_dict(data))
        except TraceFormatError as error:
            raise TraceFormatError(str(error), line=number) from error
    return events


def read_trace(path: str) -> list[TraceEvent]:
    """Load a JSONL trace file written by :meth:`TraceRecorder.write`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise TraceFormatError(f"cannot read trace file {path!r}: {error}") from error
    return parse_trace(text)
