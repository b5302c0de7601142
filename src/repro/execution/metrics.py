"""Execution metrics, most importantly per-SHIP transfer accounting.

Plan *quality* in the paper (§7.4, Fig. 6(g,h)) is the execution cost
arising from shipping intermediate data between sites under the
``α + β·bytes`` message model.  The executor records every SHIP's actual
row count and byte volume so the harness can compute that cost from a
real execution rather than from estimates.

Two cost views coexist:

* :attr:`ExecutionMetrics.shipping_seconds` — the plain *sum* of all
  simulated transfer times.  Faithful for chain (linear) plans, but an
  overestimate of response time for bushy plans where sites transfer
  concurrently.
* :attr:`ExecutionMetrics.makespan_seconds` — the critical-path response
  time produced by the fragment scheduler's event-driven simulation
  (:mod:`repro.execution.scheduler`): fragments start once all their
  inputs have arrived, and independent transfers overlap.  Always
  ``makespan_seconds <= shipping_seconds``; equality holds exactly when
  every SHIP lies on one path (a chain plan).

As an observability hook the executor additionally records one
:class:`OperatorRecord` per evaluated operator (rows out, self compute
time) and the scheduler one :class:`FragmentRecord` per fragment
(measured local compute plus the simulated start/finish instants on the
WAN clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog import FRESHNESS_EPS


@dataclass
class ShipRecord:
    """One SHIP operator's measured transfer.

    Under fault injection the final *successful* attempt is recorded:
    ``seconds`` is that attempt's transfer time (including any slow-link
    degradation), ``attempts`` counts every try, and
    ``retry_wait_seconds`` is the backoff the consumer waited through on
    the simulated clock (it inflates the makespan, not ``seconds``)."""

    source: str
    target: str
    rows: int
    bytes: int
    seconds: float  # simulated transfer time under the network model
    attempts: int = 1
    retry_wait_seconds: float = 0.0
    #: Compressed size actually sent (``None`` — legacy plain wire —
    #: means wire == logical).  :attr:`bytes` always stays the logical
    #: uncompressed size so byte-equivalence across executors holds.
    wire_bytes: int | None = None
    #: Chunks the transfer was split into (1 = monolithic).
    chunks: int = 1


@dataclass
class OperatorRecord:
    """One operator evaluation (observability hook).

    ``seconds`` is *self* time: wall-clock spent in the operator itself,
    excluding its children — so the records sum to the plan's total
    local compute time.
    """

    operator: str
    location: str
    rows_out: int
    seconds: float


@dataclass
class FragmentRecord:
    """One fragment execution under the fragment scheduler.

    ``compute_seconds`` is measured wall-clock work; the ``sim_*``
    instants live on the simulated WAN clock, where local compute is
    free (the paper's cost model charges transfers only):
    ``sim_start_seconds`` is when the last input transfer arrived at the
    fragment's site and ``sim_finish_seconds`` is when the fragment's
    output transfer has been delivered to its consumer (equal to
    ``sim_start_seconds`` for the result-producing root fragment).
    """

    index: int
    location: str
    root: str  # describe() of the fragment's root operator
    operators: int
    rows_out: int
    compute_seconds: float
    sim_start_seconds: float
    sim_finish_seconds: float
    inputs: tuple[int, ...]
    consumer: int | None


@dataclass
class RecoveryRecord:
    """One compliance-preserving failover performed during execution."""

    fragment_index: int
    from_site: str
    to_site: str
    reason: str
    at_seconds: float  # simulated instant the failure was detected
    #: True when a policy evaluator re-validated the new placement (it
    #: is only False when the scheduler runs without a compliance guard,
    #: e.g. for baseline plans with no policies registered).
    validated: bool = False
    #: ``"replica"`` when the fragment scans a base table and moved to a
    #: site holding a compliant replica of it; ``"replacement"`` for the
    #: classic ℰ-restricted re-placement of a scan-free fragment.
    kind: str = "replacement"
    #: Staleness (seconds) of the demoted replica at the decision
    #: instant, for ``reason == "stale"`` recoveries; ``None`` otherwise.
    staleness_at_read: float | None = None


@dataclass(frozen=True)
class ScanRead:
    """One base-table read committed by an admitted fragment: which
    copy was read at which simulated instant, and how stale it was.

    The freshness audit trail's unit of account — every admission of a
    scan-bearing fragment under an active freshness policy records one
    per scan, and the trace's ``scan_read`` events mirror them 1:1 so
    runtime counters reconcile against the trace."""

    database: str
    table: str
    site: str
    at_seconds: float
    staleness_seconds: float


@dataclass
class PartialFailure:
    """Typed outcome of a query that could not be recovered.

    Returned (on the metrics) instead of raising, so callers can
    distinguish "the WAN failed in a way no compliant recovery could
    absorb" from a genuine executor bug — the latter still raises."""

    fragment_index: int
    location: str
    error_type: str  # repro.errors class name, e.g. "SiteUnavailableError"
    message: str
    at_seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"fragment f{self.fragment_index} @ {self.location}: "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class ExecutionMetrics:
    """Metrics of one plan execution."""

    rows_scanned: int = 0
    rows_output: int = 0
    operators_executed: int = 0
    ships: list[ShipRecord] = field(default_factory=list)
    operators: list[OperatorRecord] = field(default_factory=list)
    fragments: list[FragmentRecord] = field(default_factory=list)
    #: Simulated critical-path response time of the fragment schedule.
    #: When the scheduler ran with a clock offset (the query server
    #: admits queries at shared-clock instants) this is the *absolute*
    #: finish instant; subtract :attr:`start_at_seconds` for the
    #: query's own service time.
    makespan_seconds: float = 0.0
    #: Simulated instant the scheduler's clock started at (0.0 except
    #: under the query server).
    start_at_seconds: float = 0.0
    #: Transfer attempts refused outright by an open per-link circuit
    #: breaker (query server only; 0 without a breaker registry).
    breaker_fast_fails: int = 0
    #: Per-site simulated clock after the last delivery event at that
    #: site.
    site_clock_seconds: dict[str, float] = field(default_factory=dict)
    #: Failovers performed during this execution (fault injection only).
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    #: Replica failovers triggered by an open circuit breaker on the
    #: fragment's input/output links (fast-fail steering).
    replica_switches_breaker: int = 0
    #: Replica failovers of fragments whose own scan site died — without
    #: a replica these were guaranteed ``PartialFailure``s (a scan's ℰ
    #: is a singleton without replicas, so no re-placement exists).
    partial_failures_avoided: int = 0
    #: Base-table reads committed under an active freshness policy, one
    #: per scan per admitted fragment (freshness runs only).
    scan_reads: list[ScanRead] = field(default_factory=list)
    #: Admissions delayed until a violating replica's next refresh
    #: (``wait-for-refresh`` policy only).
    refresh_waits: int = 0
    #: Total simulated seconds spent in those waits (inflates makespan).
    refresh_wait_seconds: float = 0.0
    #: Set when the query degraded instead of completing; rows are empty.
    partial_failure: PartialFailure | None = None

    @property
    def replica_failovers(self) -> int:
        """Failovers that moved a scan-bearing fragment to a compliant
        replica site (the ``kind == "replica"`` subset of recoveries)."""
        return sum(r.kind == "replica" for r in self.recoveries)

    @property
    def freshness_demotions(self) -> int:
        """Replica failovers that demoted a fragment off a too-stale
        copy to a fresher legal one."""
        return sum(
            r.kind == "replica" and r.staleness_at_read is not None
            for r in self.recoveries
        )

    @property
    def stale_reads(self) -> int:
        """Committed reads whose copy lagged the primary (staleness > 0)
        — always within the bound when a freshness policy was enforcing."""
        return sum(r.staleness_seconds > FRESHNESS_EPS for r in self.scan_reads)

    @property
    def total_bytes_shipped(self) -> int:
        return sum(s.bytes for s in self.ships)

    @property
    def total_rows_shipped(self) -> int:
        return sum(s.rows for s in self.ships)

    @property
    def total_wire_bytes_shipped(self) -> int:
        """Compressed bytes that actually crossed the WAN (equals
        :attr:`total_bytes_shipped` when no transfer was compressed)."""
        return sum(s.bytes if s.wire_bytes is None else s.wire_bytes for s in self.ships)

    @property
    def total_chunks_shipped(self) -> int:
        """Wire chunks across all transfers (ships when monolithic)."""
        return sum(s.chunks for s in self.ships)

    @property
    def shipping_seconds(self) -> float:
        """Total simulated cross-site transfer time — the paper's
        execution-cost metric (an upper bound on response time for
        fault-free runs; retry waits are *not* included here)."""
        return sum(s.seconds for s in self.ships)

    @property
    def retry_wait_seconds(self) -> float:
        """Total simulated backoff waited across all transfers; part of
        the makespan but not of :attr:`shipping_seconds`."""
        return sum(s.retry_wait_seconds for s in self.ships)

    @property
    def transfer_attempts(self) -> int:
        """Attempts across all successful transfers (1 each when no
        faults were injected)."""
        return sum(s.attempts for s in self.ships)

    @property
    def service_seconds(self) -> float:
        """Critical-path response time relative to the query's own
        admission instant (equals :attr:`makespan_seconds` outside the
        query server, where the clock starts at 0)."""
        return max(0.0, self.makespan_seconds - self.start_at_seconds)

    @property
    def local_compute_seconds(self) -> float:
        """Measured wall-clock compute, summed over fragments."""
        return sum(f.compute_seconds for f in self.fragments)

    def record_operator(
        self, operator: str, location: str, rows_out: int, seconds: float
    ) -> None:
        self.operators.append(OperatorRecord(operator, location, rows_out, seconds))
