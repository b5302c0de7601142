"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  The most important subclass
is :class:`NonCompliantQueryError`, raised when the compliance-based
optimizer cannot find any compliant execution plan for a query (the
"reject" arrow in Figure 2 of the paper).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SqlSyntaxError(ReproError):
    """Raised by the lexer/parser on malformed SQL text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class BindingError(ReproError):
    """Raised when a parsed query references unknown tables/columns or is
    otherwise semantically invalid (e.g. a non-aggregated output column
    missing from GROUP BY)."""


class PolicySyntaxError(ReproError):
    """Raised on malformed policy-expression text."""


class CatalogError(ReproError):
    """Raised on invalid catalog definitions or lookups."""


class OptimizerError(ReproError):
    """Raised on internal optimizer failures (these indicate bugs)."""


class NonCompliantQueryError(ReproError):
    """Raised when no compliant query execution plan exists in the explored
    plan space for the given query and dataflow policies.

    Per the paper this does *not* always mean the query is illegal: the
    optimizer is sound but may be incomplete (Section 6.4).
    """


class ComplianceViolationError(ReproError):
    """Raised by the runtime compliance guard when a plan attempts to ship
    data to a location the dataflow policies forbid.  Seeing this error for
    a plan produced by the compliant optimizer would falsify Theorem 1."""


class ExecutionError(ReproError):
    """Raised on errors while executing a physical plan."""


class InvalidParameterError(ExecutionError):
    """A tuning knob (worker count, concurrency, queue depth, timeout,
    retry budget, ...) was given an out-of-range value.  Raised by the
    shared validators in :mod:`repro.validation` so every entry point —
    CLI flags, engine/scheduler/server constructors — fails with the
    same typed error and message shape."""


class UnknownLinkError(ExecutionError):
    """A transfer touched a ``(source, target)`` pair the network model
    does not describe, and the model was built in strict mode.

    Non-strict models silently substitute a pessimistic default link;
    strict models refuse, so a mis-deployed catalog surfaces as one
    typed error from the row and batch SHIP paths alike instead of a
    silently mispriced plan (or a bare ``KeyError`` from a lookup)."""

    def __init__(self, message: str, source: str, target: str) -> None:
        self.source = source
        self.target = target
        super().__init__(message)


class FaultError(ExecutionError):
    """Base class of injected-fault failures surfaced by the execution
    layer (site crashes, link failures, exhausted retries, timeouts).

    Genuine operator bugs raise plain :class:`ExecutionError` and always
    propagate; only ``FaultError`` subclasses are eligible for retry,
    failover, and graceful degradation to a partial-failure result."""

    #: Simulated instant the fault was detected; stamped by the
    #: scheduler before the error leaves its transfer or admission code.
    at: float | None = None


class TransferError(FaultError):
    """A cross-site transfer failed at a SHIP boundary.

    ``transient`` distinguishes a retriable blip (flaky link window)
    from a permanent condition (link down, retry budget exhausted)."""

    def __init__(
        self, message: str, source: str, target: str, transient: bool = False
    ) -> None:
        self.source = source
        self.target = target
        self.transient = transient
        super().__init__(message)


class CircuitOpenError(TransferError):
    """A transfer was refused because the per-link circuit breaker is
    open: recent attempts on this link failed at or above the breaker's
    failure-rate threshold, so the attempt fast-fails instead of
    burning retry backoff against a link that is known to be bad.

    Never transient — the retry loop must not hammer an open breaker;
    the scheduler instead consults failover immediately, and the
    breaker itself re-probes the link after its cooldown (half-open)."""

    def __init__(self, message: str, source: str, target: str) -> None:
        super().__init__(message, source=source, target=target, transient=False)


class SiteUnavailableError(FaultError):
    """A site needed by a fragment (its execution site, or the endpoint
    of one of its transfers) has crashed on the simulated clock."""

    def __init__(self, message: str, site: str) -> None:
        self.site = site
        super().__init__(message)


class ReplicaStaleError(FaultError):
    """A fragment was about to read a replica whose staleness — derived
    from its refresh schedule at the current simulated instant —
    violates the query's bound (or the active prefer-fresh policy).

    A :class:`FaultError` by design: the scheduler treats a stale
    replica exactly like an unavailable one and consults the failover
    planner for a fresher legal copy, so staleness demotions reuse the
    whole recovery machinery (validation, tracing, counters)."""

    def __init__(
        self,
        message: str,
        site: str,
        staleness: float,
        bound: float | None = None,
    ) -> None:
        self.site = site
        self.staleness = staleness
        self.bound = bound
        super().__init__(message)


class FragmentTimeoutError(FaultError):
    """A fragment's input delivery exceeded the per-fragment timeout on
    the simulated clock (typically after accumulating retry backoff)."""

    def __init__(self, message: str, fragment_index: int | None = None) -> None:
        self.fragment_index = fragment_index
        super().__init__(message)


class TraceFormatError(ReproError):
    """A serialized execution trace (JSONL) could not be parsed: a line
    is not valid JSON, an event has an unknown ``kind``, a required
    field is missing, or an embedded payload descriptor does not decode
    to a logical plan.  Raised by :mod:`repro.trace` readers so the
    ``repro audit`` CLI reports a malformed trace as one typed error
    (exit 1) instead of a stack trace — and never as a silently-passing
    audit."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FreshnessAuditError(ReproError):
    """The auditor met freshness evidence it cannot independently
    verify: a trace carries ``staleness_at_read`` annotations or
    ``scan_read`` events, but the auditor was not given the catalog
    state (``--replicas`` and, for scheduled replicas, ``--refresh``)
    needed to re-derive staleness.  Fail-closed by design — an
    unverifiable freshness claim must never audit as fresh."""


class AdmissionRejected(ExecutionError):
    """The query server refused a request because its bounded waiting
    queue was full.  Deliberately *not* a :class:`FaultError`: rejection
    is a load-control decision, not a WAN fault, and must never be
    absorbed by retry or failover."""

    def __init__(self, message: str, queue_depth: int | None = None) -> None:
        self.queue_depth = queue_depth
        super().__init__(message)


class DeadlineExceeded(ExecutionError):
    """A query ran past its caller's deadline on the simulated clock
    and was cancelled cooperatively at a fragment boundary (or shed
    from the queue before it ever started).

    Not a :class:`FaultError`: a blown deadline must surface to the
    caller as a typed shed, never be "recovered" by failover into more
    work the caller no longer wants."""

    def __init__(
        self,
        message: str,
        deadline: float | None = None,
        at: float | None = None,
    ) -> None:
        self.deadline = deadline
        self.at = at
        super().__init__(message)
