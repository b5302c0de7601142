"""Post-hoc compliance auditing of execution traces.

:class:`ComplianceAuditor` replays a trace against a policy set and
schema and checks the end-to-end invariant behind the paper's Theorem 1
at the level of *observed behavior*: every SHIP attempt's destination —
delivered or not, first try or retry, before or after failover — must
lie in the permitted-location set of the payload it tried to move.

The auditor is deliberately **independent of the optimizer and the
execution engine**: it sees only the serialized events and re-derives
each payload's permitted destinations from the embedded payload
descriptor (:mod:`repro.trace.codec`) and the policy set, re-running
the Algorithm-1 evaluator per sub-payload exactly like the content-based
validator does:

* a scan's result is permitted at the scan's site, plus whatever 𝒜
  grants its (single-database) subquery;
* an internal operator's result is permitted wherever *all* of its
  inputs are permitted, plus the 𝒜 grant of its own subquery (masking
  projections and aggregations can legalize more sites than their
  inputs had — the paper's Fig. 1(b) masking pattern);
* grants apply only to single-database, union-free subqueries —
  Algorithm 1's domain.

Crucially this set depends only on the payload's *content* and the
(immovable) scan sites, never on where operators were placed — so the
verdict is meaningful even for transfers attempted by failover-re-placed
fragments, and a corrupted placement cannot launder data by moving the
operators along with it.

One placement fact *is* checked against the schema: every scan in every
payload must sit at a site legally holding the data — the stored
table's home, or a *registered replica* whose site the auditor
independently re-confirms inside 𝒜 of the bare full-table scan.  A
scan at an unregistered site is a ``displaced-scan`` (a runtime that
"relocated" a scan would read the table remotely without any SHIP
event ever crossing the wire — the one movement a transfer-level audit
alone could not see); a scan at a registered replica the policies do
not admit is a ``non-compliant-replica``.  Post-failover re-reads are
covered identically: a replica-kind failover re-derives the payload
descriptor, so the replica actually read always shows up here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..catalog import FRESHNESS_EPS, FreshnessTracker
from ..errors import CatalogError, FreshnessAuditError, TraceFormatError
from ..policy import PolicyCatalog, PolicyEvaluator, describe_local_query
from ..plan import LogicalPlan, LogicalScan, LogicalUnion
from .codec import decode_logical, payload_reads, strip_payload_reads
from .events import (
    ChunkEvent,
    OptimizedEvent,
    RecoveryEvent,
    ScanReadEvent,
    ShipEvent,
    TraceEvent,
    canonical_json,
)
from .recorder import read_trace

#: Tolerance when comparing a trace's recorded staleness against the
#: auditor's independent re-derivation (serialization round-trips).
_MISREPORT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ComplianceViolation:
    """One audited transfer (or scan placement) the policies forbid."""

    query: int
    at: float
    #: "forbidden-destination" | "displaced-scan" |
    #: "non-compliant-replica" | "unauditable" | "stale-read" |
    #: "freshness-misreport"
    category: str
    source: str
    target: str
    permitted: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return (
            f"[query {self.query} @ t={self.at:.3f}s] {self.category}: "
            f"{self.message}"
        )


@dataclass
class AuditReport:
    """The auditor's verdict over one trace."""

    events: int = 0
    queries: int = 0
    #: SHIP attempts audited (all outcomes, including failed attempts).
    attempts: int = 0
    #: Chunk-send attempts of streamed transfers audited against their
    #: logical transfer's single payload descriptor.
    chunk_attempts: int = 0
    #: Audited attempts that crossed a border (source != target).
    cross_border: int = 0
    #: Distinct payload descriptors whose permitted sets were derived.
    payloads: int = 0
    #: Failovers recorded without a compliance guard (informational).
    unvalidated_recoveries: int = 0
    #: Committed base-table reads audited (``scan_read`` events), and
    #: the per-read freshness verdicts re-derived from the catalog's
    #: refresh schedules: exact (staleness ~ 0), lagging but within the
    #: query's bound, or over the bound (each of the latter is also a
    #: ``stale-read`` violation).
    scan_reads: int = 0
    fresh_reads: int = 0
    stale_within_bound: int = 0
    bound_violated: int = 0
    violations: list[ComplianceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = (
            "COMPLIANT"
            if self.ok
            else f"NON-COMPLIANT ({len(self.violations)} violations)"
        )
        text = (
            f"audit: {verdict} — {self.events} events, {self.queries} queries, "
            f"{self.attempts} transfer attempts ({self.cross_border} "
            f"cross-border), {self.payloads} distinct payloads"
        )
        if self.chunk_attempts:
            text += f"; {self.chunk_attempts} chunk attempts"
        if self.scan_reads:
            text += (
                f"; {self.scan_reads} replica reads ({self.fresh_reads} fresh, "
                f"{self.stale_within_bound} stale-within-bound, "
                f"{self.bound_violated} bound-violated)"
            )
        return text


class ComplianceAuditor:
    """Audits traces against one policy catalog (and its schema)."""

    def __init__(
        self,
        policies: PolicyCatalog,
        freshness: FreshnessTracker | None = None,
        max_staleness: float | None = None,
    ) -> None:
        self.policies = policies
        self.evaluator = PolicyEvaluator(policies)
        #: Independent staleness re-derivation from the catalog's
        #: declared replicas and refresh schedules.  ``None`` is fine
        #: for traces without freshness evidence; auditing a trace that
        #: *carries* freshness claims without a tracker fails closed
        #: with :class:`~repro.errors.FreshnessAuditError`.
        self.freshness = freshness
        #: Fallback staleness bound for queries whose ``optimized``
        #: event recorded none (pre-freshness traces, or runs with the
        #: bound set purely at the scheduler).
        self.max_staleness = max_staleness
        #: permitted-set cache keyed by canonical payload JSON — retry
        #: and failover attempts re-ship the same payload.  Freshness
        #: annotations are stripped from the key: re-reads of the same
        #: subquery at different instants are compliance-identical.
        self._permitted_cache: dict[str, frozenset[str]] = {}
        #: Independent replica re-derivation: per (database, table) the
        #: 𝒜 grant of the bare full-table scan, used to confirm that a
        #: registered replica's site was a permitted source.
        from ..policy.replicas import ReplicaResolver

        self._replicas = ReplicaResolver(policies.catalog, self.evaluator)

    # -- the permitted-location set of a payload --------------------------------

    def permitted_destinations(self, payload: LogicalPlan) -> frozenset[str]:
        """Everywhere the payload's content may legally be sent,
        re-derived bottom-up from the policy set (see module docstring)."""
        if isinstance(payload, LogicalScan):
            permitted = frozenset([payload.location])
        else:
            permitted = self.policies.all_locations
            for child in payload.children():
                permitted = permitted & self.permitted_destinations(child)
        return permitted | self._grant(payload)

    def _grant(self, payload: LogicalPlan) -> frozenset[str]:
        """Algorithm 1's verdict for the payload's subquery, or ∅ when
        the subquery is outside its domain (multi-database or union)."""
        if len(payload.source_databases) != 1:
            return frozenset()
        if any(isinstance(node, LogicalUnion) for node in payload.walk()):
            return frozenset()
        return self.evaluator.evaluate(describe_local_query(payload))

    # -- auditing ---------------------------------------------------------------

    def audit_events(self, events: Iterable[TraceEvent]) -> AuditReport:
        events = list(events)
        report = AuditReport()
        seen_queries: set[int] = set()
        seen_scans: set[tuple[int, str, str, str]] = set()
        seen_claims: set[tuple] = set()
        #: Per-query staleness bound, from each query's optimized event
        #: (collected up front — auditing must not depend on event
        #: order) with the constructor's bound as the fallback.
        bounds: dict[int, float] = {}
        #: Chunk events carry no payload; they join to the one payload
        #: descriptor of their logical transfer (collected up front —
        #: the rolled-up ship event is stamped at the *delivery*
        #: instant, after every chunk it summarizes).
        transfer_payloads: dict[tuple, tuple[dict[str, Any], str]] = {}
        #: Permitted-set cache key of every payload-carrying ship event,
        #: by position: each attempt is keyed once, on its own payload,
        #: and every chunk of a transfer reuses its ship event's key.
        ship_keys: dict[int, str] = {}
        for position, event in enumerate(events):
            if (
                isinstance(event, OptimizedEvent)
                and event.max_staleness is not None
            ):
                bounds[event.query] = event.max_staleness
            if isinstance(event, ShipEvent) and event.payload is not None:
                key = (
                    event.query,
                    event.producer,
                    event.consumer,
                    event.source,
                    event.target,
                )
                ship_keys[position] = canonical_json(
                    strip_payload_reads(event.payload)
                )
                entry = (event.payload, ship_keys[position])
                transfer_payloads.setdefault(key, entry)
                transfer_payloads.setdefault(key[:3], entry)
        for position, event in enumerate(events):
            report.events += 1
            if event.query:
                seen_queries.add(event.query)
            if isinstance(event, RecoveryEvent) and not event.validated:
                report.unvalidated_recoveries += 1
            if isinstance(event, ScanReadEvent):
                self._audit_scan_read(
                    event, bounds.get(event.query, self.max_staleness), report
                )
                continue
            if not isinstance(event, (ChunkEvent, ShipEvent)):
                continue
            try:
                if isinstance(event, ChunkEvent):
                    report.chunk_attempts += 1
                    self._audit_chunk(event, transfer_payloads, report)
                else:
                    report.attempts += 1
                    self._audit_ship(event, ship_keys.get(position), report, seen_scans)
                    self._audit_ship_freshness(event, seen_claims, report)
            except TraceFormatError as error:
                # A payload that does not decode: name the event carrying it.
                raise TraceFormatError(
                    f"event {position + 1} (query {event.query}, "
                    f"{event.source} -> {event.target}): {error}"
                ) from error
        report.queries = len(seen_queries)
        report.payloads = len(self._permitted_cache)
        return report

    def audit_file(self, path: str) -> AuditReport:
        return self.audit_events(read_trace(path))

    def _audit_ship(
        self,
        event: ShipEvent,
        key: str | None,
        report: AuditReport,
        seen_scans: set[tuple[int, str, str, str]],
    ) -> None:
        if event.payload is None:
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="unauditable",
                    source=event.source,
                    target=event.target,
                    permitted=(),
                    message=(
                        f"ship {event.source} -> {event.target} carries no "
                        f"payload descriptor; compliance cannot be proven"
                    ),
                )
            )
            return
        permitted = self._permitted_cache.get(key)
        payload = decode_logical(event.payload)
        self._audit_scan_sites(event, payload, report, seen_scans)
        if permitted is None:
            permitted = self.permitted_destinations(payload)
            self._permitted_cache[key] = permitted
        if event.source == event.target:
            return
        report.cross_border += 1
        if event.target not in permitted:
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="forbidden-destination",
                    source=event.source,
                    target=event.target,
                    permitted=tuple(sorted(permitted)),
                    message=(
                        f"attempt {event.attempt} ({event.outcome}) tried to "
                        f"ship {event.bytes} bytes of a payload permitted only "
                        f"at {sorted(permitted)} from {event.source} to "
                        f"{event.target}"
                    ),
                )
            )

    def _audit_chunk(
        self,
        event: ChunkEvent,
        transfer_payloads: dict[tuple, "tuple[dict[str, Any], str]"],
        report: AuditReport,
    ) -> None:
        """Audit one chunk-send attempt against the payload descriptor
        of its logical transfer.

        The exact join key includes source and target; when it misses
        (e.g. a tampered chunk destination no rolled-up ship event ever
        announced) the auditor falls back to the transfer identity alone
        so the chunk is still judged against the payload it belongs to —
        and a chunk that cannot be tied to any payload is unauditable,
        itself a violation."""
        entry = transfer_payloads.get(
            (event.query, event.producer, event.consumer, event.source, event.target)
        ) or transfer_payloads.get((event.query, event.producer, event.consumer))
        if entry is None:
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="unauditable",
                    source=event.source,
                    target=event.target,
                    permitted=(),
                    message=(
                        f"chunk {event.chunk}/{event.of} "
                        f"{event.source} -> {event.target} belongs to no "
                        f"payload-carrying transfer descriptor; compliance "
                        f"cannot be proven"
                    ),
                )
            )
            return
        payload, key = entry
        permitted = self._permitted_cache.get(key)
        if permitted is None:
            permitted = self.permitted_destinations(decode_logical(payload))
            self._permitted_cache[key] = permitted
        if event.source == event.target:
            return
        if event.target not in permitted:
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="forbidden-destination",
                    source=event.source,
                    target=event.target,
                    permitted=tuple(sorted(permitted)),
                    message=(
                        f"chunk {event.chunk}/{event.of} attempt "
                        f"{event.attempt} ({event.outcome}) tried to send "
                        f"{event.bytes} wire bytes of a payload permitted "
                        f"only at {sorted(permitted)} from {event.source} "
                        f"to {event.target}"
                    ),
                )
            )

    def _audit_scan_sites(
        self,
        event: ShipEvent,
        payload: LogicalPlan,
        report: AuditReport,
        seen_scans: set[tuple[int, str, str, str]],
    ) -> None:
        """Flag payload scans claiming an illegal source site
        (deduplicated per query and scan).

        Three-way verdict per scan: the stored table's home is always
        legal; a *registered* replica site is legal iff the auditor's
        own Algorithm-1 run over the bare full-table scan admits it
        (``non-compliant-replica`` otherwise); any other site is a
        ``displaced-scan``."""
        for node in payload.walk():
            if not isinstance(node, LogicalScan):
                continue
            try:
                stored = self.policies.catalog.stored_table(
                    node.database, node.table
                )
            except CatalogError:
                continue  # table unknown to this schema; nothing to check
            if stored.location == node.location:
                continue
            dedup = (event.query, node.database, node.table, node.location)
            if dedup in seen_scans:
                continue
            seen_scans.add(dedup)
            replica_sites = self.policies.catalog.replica_sites(
                node.database, node.table
            )
            if node.location in replica_sites:
                grant = self._replicas.full_scan_grant(node.database, node.table)
                if node.location in grant:
                    continue  # compliant replica read — permitted source
                report.violations.append(
                    ComplianceViolation(
                        query=event.query,
                        at=event.at,
                        category="non-compliant-replica",
                        source=stored.location,
                        target=node.location,
                        permitted=tuple(sorted(grant)),
                        message=(
                            f"payload reads the replica of "
                            f"{node.database}.{node.table} at "
                            f"{node.location!r}, but the dataflow policies "
                            f"only admit the table at {sorted(grant)}"
                        ),
                    )
                )
                continue
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="displaced-scan",
                    source=stored.location,
                    target=node.location,
                    permitted=(stored.location, *sorted(replica_sites)),
                    message=(
                        f"payload scans {node.database}.{node.table} at "
                        f"{node.location!r} but the table lives at "
                        f"{stored.location!r} and has no replica there — "
                        f"data was read across a border without a SHIP"
                    ),
                )
            )

    # -- freshness auditing ------------------------------------------------------

    def _derived_staleness(
        self, database: str, table: str, site: str, at: float
    ) -> float:
        """The auditor's own staleness derivation for one claimed read;
        fails closed when the catalog state needed to derive it was not
        provided (the claim must never audit as fresh by default)."""
        if self.freshness is None:
            raise FreshnessAuditError(
                "trace carries freshness evidence (scan_read events or "
                "staleness_at_read annotations) but the auditor has no "
                "freshness tracker — re-run `repro audit` with the traced "
                "run's --replicas (and, for scheduled replicas, --refresh) "
                "so staleness can be independently re-derived"
            )
        try:
            return self.freshness.staleness(database, table, site, at)
        except CatalogError as error:
            raise FreshnessAuditError(
                f"cannot re-derive the staleness of {database}.{table} read "
                f"at {site!r} (t={at:.3f}s): {error}. The audit-side catalog "
                f"must mirror the traced run — pass the same --replicas and "
                f"--refresh specs the run used"
            ) from error

    def _audit_scan_read(
        self, event: ScanReadEvent, bound: float | None, report: AuditReport
    ) -> None:
        """Re-derive one committed read's staleness and give the
        three-way freshness verdict: fresh / stale-within-bound /
        bound-violated.  The verdict always uses the *derived* value —
        a recorded claim that disagrees is itself a violation."""
        derived = self._derived_staleness(
            event.database, event.table, event.site, event.at
        )
        if abs(derived - event.staleness_at_read) > _MISREPORT_TOLERANCE:
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="freshness-misreport",
                    source=event.site,
                    target=event.site,
                    permitted=(),
                    message=(
                        f"scan_read of {event.database}.{event.table} at "
                        f"{event.site!r} recorded staleness "
                        f"{event.staleness_at_read:.6f}s but the refresh "
                        f"schedules derive {derived:.6f}s — the trace "
                        f"misreports freshness (or the audit-side --refresh "
                        f"spec differs from the traced run's)"
                    ),
                )
            )
        report.scan_reads += 1
        if derived <= FRESHNESS_EPS:
            report.fresh_reads += 1
        elif bound is None or derived <= bound + FRESHNESS_EPS:
            report.stale_within_bound += 1
        else:
            report.bound_violated += 1
            report.violations.append(
                ComplianceViolation(
                    query=event.query,
                    at=event.at,
                    category="stale-read",
                    source=event.site,
                    target=event.site,
                    permitted=(),
                    message=(
                        f"fragment f{event.fragment} read "
                        f"{event.database}.{event.table} at {event.site!r} "
                        f"with staleness {derived:.3f}s, over the query's "
                        f"{bound:g}s bound"
                    ),
                )
            )

    def _audit_ship_freshness(
        self, event: ShipEvent, seen_claims: set[tuple], report: AuditReport
    ) -> None:
        """Cross-check the freshness claims riding on a shipped payload
        (one per annotated scan descriptor) against the auditor's own
        derivation, deduplicated per distinct claim — retries re-ship
        the same annotated payload."""
        if event.payload is None:
            return
        annotated = payload_reads(event.payload)
        if not annotated and event.staleness_at_read is None:
            return
        for node in annotated:
            database = node.get("database")
            table = node.get("table")
            site = node.get("location")
            read_at = node.get("read_at")
            claimed = node.get("staleness_at_read")
            dedup = (event.query, database, table, site, read_at, claimed)
            if dedup in seen_claims:
                continue
            seen_claims.add(dedup)
            if not isinstance(read_at, (int, float)) or not isinstance(
                claimed, (int, float)
            ):
                raise FreshnessAuditError(
                    f"payload scan of {database}.{table} at {site!r} carries "
                    f"malformed freshness annotations "
                    f"(read_at={read_at!r}, staleness_at_read={claimed!r})"
                )
            derived = self._derived_staleness(database, table, site, read_at)
            if abs(derived - claimed) > _MISREPORT_TOLERANCE:
                report.violations.append(
                    ComplianceViolation(
                        query=event.query,
                        at=event.at,
                        category="freshness-misreport",
                        source=site,
                        target=event.target,
                        permitted=(),
                        message=(
                            f"shipped payload claims the replica of "
                            f"{database}.{table} at {site!r} was "
                            f"{claimed:.6f}s stale at t={read_at:.3f}s, but "
                            f"the refresh schedules derive {derived:.6f}s — "
                            f"the payload misreports freshness (or the "
                            f"audit-side --refresh spec differs from the "
                            f"traced run's)"
                        ),
                    )
                )
        if event.staleness_at_read is not None and not annotated:
            # A staleness claim with no annotated scan to back it: the
            # claim cannot be tied to any copy, so it is unverifiable.
            raise FreshnessAuditError(
                f"ship {event.source} -> {event.target} claims "
                f"staleness_at_read={event.staleness_at_read:g}s but its "
                f"payload carries no annotated scan to verify the claim "
                f"against — the trace's freshness evidence is inconsistent"
            )
