"""Runtime freshness enforcement policy.

PR 8's ``--max-staleness`` pruned replica candidates at *planning*
time; a replica fresh when the plan was built could still serve
arbitrarily stale rows at execution or failover time.  This module is
the runtime half of the freshness model: a :class:`FreshnessPolicy`
pairs a :class:`~repro.catalog.FreshnessTracker` (which derives each
replica's staleness at any simulated instant from its refresh schedule)
with an enforcement mode, and the fragment scheduler consults it at
every scan-bearing admission and every failover decision — the bound is
re-checked *at that instant*, never trusted from plan time.  At an
admission the policy returns a :class:`FreshnessVerdict` (commit the
reads, possibly after a refresh wait, or demote) that the scheduler
only acts on, so every mode decision lives in this module.

Modes
-----
``prefer-fresh``
    Demote off any replica lagging the primary when a fresher legal
    copy exists (soft demotion — a stale-within-bound read is committed
    when nothing fresher is placeable); a bound violation always
    demotes or degrades, never serves.
``wait-for-refresh``
    Park the fragment until the violating replica's next refresh
    completion, bounded by the retry policy's fragment timeout; demote
    when no refresh is coming or the wait would blow the timeout.
``read-stale``
    Serve any read within the bound without demotion or waiting
    (bounded staleness, minimum disruption); violations still demote.
``plan-only``
    PR 8's behavior, kept as the experiment baseline: staleness is
    *recorded* at every read but never enforced — this is the arm that
    demonstrably serves bound-violating rows under a paused-refresh
    fault, which the independent auditor then flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import FRESHNESS_EPS, FreshnessTracker
from ..errors import InvalidParameterError, ReplicaStaleError
from ..validation import validate_staleness_bound
from .fragments import Fragment, scan_sites
from .metrics import ScanRead

#: Enforcement modes, in CLI ``--staleness-policy`` order.
FRESHNESS_MODES = ("prefer-fresh", "wait-for-refresh", "read-stale", "plan-only")

#: Cap on wait-for-refresh iterations per admission: each round waits
#: for the *latest* violating replica's refresh, so more than a handful
#: of rounds means refreshes cannot outrun the bound at all.
MAX_REFRESH_WAITS = 8


@dataclass(frozen=True)
class FreshnessVerdict:
    """The freshness gate's decision for one fragment admission.

    Commit ``reads`` at instant ``at`` (later than the admission
    instant exactly when the fragment waited for a refresh) — unless
    ``demotion`` is set, in which case the scheduler first tries to
    re-place the fragment on a fresher legal copy.  A hard demotion (a bound
    violation) must succeed or the query degrades to a partial failure;
    a ``soft`` one (prefer-fresh, read within the bound) falls back to
    committing ``reads`` when nothing fresher is placeable."""

    at: float
    reads: tuple[ScanRead, ...]
    demotion: ReplicaStaleError | None = None
    soft: bool = False


class FreshnessPolicy:
    """How the scheduler reacts to replica staleness at read time."""

    def __init__(
        self,
        tracker: FreshnessTracker,
        mode: str = "prefer-fresh",
        max_staleness: float | None = None,
    ) -> None:
        if mode not in FRESHNESS_MODES:
            raise InvalidParameterError(
                f"unknown staleness policy {mode!r}; expected one of "
                f"{', '.join(FRESHNESS_MODES)}"
            )
        self.tracker = tracker
        self.mode = mode
        self.max_staleness = validate_staleness_bound(
            max_staleness, "max staleness bound"
        )

    @property
    def enforcing(self) -> bool:
        """Whether staleness violations alter scheduling decisions
        (``plan-only`` observes without enforcing)."""
        return self.mode != "plan-only"

    def within_bound(self, staleness: float) -> bool:
        """Does a read at this staleness satisfy the bound?  (No bound
        configured = any staleness is acceptable.)"""
        if self.max_staleness is None:
            return True
        return staleness <= self.max_staleness + FRESHNESS_EPS

    def replica_reads(self, fragment: Fragment, at: float) -> tuple[ScanRead, ...]:
        """The fragment's base-table reads *from replica sites* at
        instant ``at``, with each copy's current staleness.  Primary
        reads are exact by definition and not tracked."""
        reads = []
        for database, table, site in scan_sites(fragment):
            if not self.tracker.is_replica_site(database, table, site):
                continue
            staleness = self.tracker.staleness(database, table, site, at)
            reads.append(ScanRead(database, table, site, at, staleness))
        return tuple(reads)

    def site_staleness(
        self, fragment: Fragment, site: str, at: float
    ) -> float:
        """Worst-case staleness were the fragment's scans all read at
        ``site`` at instant ``at`` (0.0 when every scan finds its
        primary there).  Used by the failover planner to rank and
        bound-filter candidate replica sites."""
        worst = 0.0
        for database, table, _ in scan_sites(fragment):
            if self.tracker.is_replica_site(database, table, site):
                worst = max(
                    worst, self.tracker.staleness(database, table, site, at)
                )
        return worst

    def admit(
        self, fragment: Fragment, start: float, timeout: float | None
    ) -> FreshnessVerdict:
        """Re-check the fragment's replica reads at its admission instant
        ``start`` — the runtime half of the freshness model (plan-time
        filtering already happened; the copies may have aged since).
        ``timeout`` (the retry policy's fragment timeout) caps a
        wait-for-refresh park."""
        reads = self.replica_reads(fragment, start)
        if not reads or not self.enforcing:
            return FreshnessVerdict(start, reads)
        violations = [r for r in reads if not self.within_bound(r.staleness_seconds)]
        if violations and self.mode == "wait-for-refresh":
            waited = self._wait_for_refresh(fragment, start, violations, timeout)
            if waited is not None:
                return waited
            # No refresh is coming (or none inside the fragment
            # timeout): fall through to demotion.
        if violations:
            worst = max(r.staleness_seconds for r in violations)
            copies = sorted({f"{r.database}.{r.table}@{r.site}" for r in violations})
            error = ReplicaStaleError(
                f"fragment f{fragment.index} would read {', '.join(copies)} "
                f"at staleness {worst:.3f}s, over the "
                f"{self.max_staleness:g}s bound at t={start:.3f}s",
                site=fragment.location,
                staleness=worst,
                bound=self.max_staleness,
            )
            error.at = start
            return FreshnessVerdict(start, reads, demotion=error)
        worst = max(r.staleness_seconds for r in reads)
        if self.mode == "prefer-fresh" and worst > FRESHNESS_EPS:
            # In-bound but lagging: demote softly — only if a strictly
            # fresher legal copy is actually placeable.
            error = ReplicaStaleError(
                f"fragment f{fragment.index} prefers a copy fresher than "
                f"{worst:.3f}s-stale {fragment.location!r} at t={start:.3f}s",
                site=fragment.location,
                staleness=worst,
                bound=self.max_staleness,
            )
            error.at = start
            return FreshnessVerdict(start, reads, demotion=error, soft=True)
        return FreshnessVerdict(start, reads)

    def _wait_for_refresh(
        self,
        fragment: Fragment,
        start: float,
        violations: list[ScanRead],
        timeout: float | None,
    ) -> FreshnessVerdict | None:
        """Park the fragment until every violating replica has refreshed
        within the bound.  Returns the post-wait verdict, or ``None``
        when waiting cannot help (a refresh is never coming, the wait
        would blow the fragment timeout, or the schedules cannot outrun
        the bound)."""
        now = start
        pending = violations
        for _ in range(MAX_REFRESH_WAITS):
            target = now
            for read in pending:
                refresh = self.tracker.next_refresh(
                    read.database, read.table, read.site, now
                )
                if refresh is None:
                    return None  # paused forever / no schedule
                target = max(target, refresh)
            if timeout is not None and target - start > timeout:
                return None
            reads = self.replica_reads(fragment, target)
            pending = [r for r in reads if not self.within_bound(r.staleness_seconds)]
            if not pending:
                return FreshnessVerdict(target, reads)
            now = target
        return None
