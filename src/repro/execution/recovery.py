"""Retry and compliance-preserving failover for faulted WAN execution.

Two recovery mechanisms layer on top of the fault model
(:mod:`repro.execution.faults`):

* **Per-transfer retry** — :class:`RetryPolicy` gives every transfer a
  bounded number of attempts with exponential backoff and deterministic
  jitter, all on the *simulated* clock: backoff waits are charged to the
  consumer fragment's start time, so the reported makespan includes
  every retry delay.  Jitter is derived from a stable hash of the
  transfer's identity (never from wall-clock randomness), so a faulted
  run is reproducible.

* **Compliance-preserving failover** — when a fragment's site has
  crashed (or its inputs cannot reach it), :class:`FailoverPlanner`
  re-places the fragment at a backup site.  The candidate set is the
  intersection of the annotated execution traits ℰ over the fragment's
  operators (the site selector attaches them during materialization, so
  this re-uses exactly the legality information the optimizer's memo
  derived), ranked by estimated re-shipping cost under the same
  ``α + β·bytes`` model the site-selection DP minimized.  Every
  candidate placement is re-validated with
  :func:`repro.optimizer.validator.check_recovery_placement` before it
  is accepted — recovery never trades compliance for availability.
  Fragments that scan *non-replicated* tables at the dead site
  (ℰ = {dead site}) and result-delivery fragments (the user chose the
  destination) are pinned: with no legal candidate the query degrades
  to a typed partial-failure result instead of either crashing or
  shipping data somewhere the dataflow policies forbid.

* **Replica failover** — when the catalog declares replicas
  (:meth:`repro.catalog.Catalog.add_replica`), a scan's ℰ includes every
  *compliant* replica site, so a scan-bearing fragment whose site died
  (or whose links opened a circuit breaker) fails over to an alternate
  replica — the planner's first resort, taken before re-placement and
  long before a ``PartialFailure``.  Such failovers carry
  ``kind == "replica"`` and are still re-validated like any other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from ..geo import NetworkModel
from ..plan import PhysicalPlan, Ship, TableScan, copy_plan
from ..validation import validate_non_negative_int, validate_timeout
from .fragments import Fragment, FragmentDAG, fragment_plan
from .faults import stable_fraction


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout knobs, all in simulated seconds."""

    #: Failed attempts a transfer may retry (0 disables retries).
    max_retries: int = 3
    #: Backoff before the first retry; grows by ``backoff_multiplier``.
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    #: Jitter fraction: each wait is scaled by ``1 + jitter·u`` with a
    #: deterministic ``u ∈ [0, 1)`` derived from the transfer identity.
    jitter: float = 0.25
    #: Cap on one fragment's input-delivery span (``None`` = no cap).
    fragment_timeout: float | None = None
    #: Failure-detection delay charged once per failover.
    detection_seconds: float = 0.05

    def __post_init__(self) -> None:
        validate_non_negative_int(self.max_retries, "max_retries")
        if self.backoff_seconds < 0 or self.backoff_multiplier < 1.0:
            raise ExecutionError("backoff must be >= 0 with multiplier >= 1")
        validate_timeout(self.fragment_timeout, "fragment_timeout")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff(self, failed_attempts: int, *key: object) -> float:
        """Simulated wait before the next attempt, after ``failed_attempts``
        (>= 1) failures of the transfer identified by ``key``."""
        base = self.backoff_seconds * self.backoff_multiplier ** (failed_attempts - 1)
        return base * (1.0 + self.jitter * stable_fraction("retry", failed_attempts, *key))


# -- chunk-granular delivery state ---------------------------------------------


@dataclass(frozen=True)
class ChunkAck:
    """One delivered chunk's receipt at its target site."""

    at_seconds: float  # simulated arrival instant
    seconds: float  # billed transfer time of the successful send
    wire_bytes: int  # compressed bytes that crossed the link


class ChunkLedger:
    """Delivered-chunk acknowledgements, keyed ``(producer, target site)``.

    Streaming retry and failover consult the ledger so a chunk that
    already reached the consumer's site is *never* re-sent or re-billed:
    a transient fault resumes from the first unacknowledged chunk, and a
    producer-side failover re-ships only the pending suffix from the new
    source (the delivered prefix is already at the target).  A consumer
    failover changes the target site — a fresh key — so the full
    transfer restarts, exactly as physical reality would demand.

    The scheduler keeps one ledger per run for streamed transfers and
    gives every monolithic transfer a throwaway one: a monolithic
    transfer is the one-unit stream that remembers nothing.
    """

    def __init__(self) -> None:
        self._acked: dict[tuple[int, str], dict[int, ChunkAck]] = {}
        self._attempts: dict[tuple[int, str], int] = {}
        self._waits: dict[tuple[int, str], float] = {}

    def acked(self, producer: int, target: str) -> dict[int, ChunkAck]:
        """Acks recorded so far for ``producer``'s transfer to ``target``."""
        return self._acked.get((producer, target), {})

    def ack(
        self,
        producer: int,
        target: str,
        chunk: int,
        at_seconds: float,
        seconds: float,
        wire_bytes: int,
    ) -> None:
        self._acked.setdefault((producer, target), {})[chunk] = ChunkAck(
            at_seconds=at_seconds, seconds=seconds, wire_bytes=wire_bytes
        )

    def pending(self, producer: int, target: str, total_chunks: int) -> list[int]:
        """Chunk indexes still undelivered, in send order.  Sends are
        serialized per link, so this is always a suffix ``k..total-1``
        starting at the first unacknowledged chunk."""
        done = self._acked.get((producer, target), {})
        return [k for k in range(total_chunks) if k not in done]

    def note_attempt(self, producer: int, target: str) -> None:
        """Count one chunk-send attempt (any outcome) toward the
        transfer's lifetime total."""
        key = (producer, target)
        self._attempts[key] = self._attempts.get(key, 0) + 1

    def attempts(self, producer: int, target: str) -> int:
        return self._attempts.get((producer, target), 0)

    def note_wait(self, producer: int, target: str, seconds: float) -> None:
        """Accumulate simulated backoff waited before chunk retries."""
        key = (producer, target)
        self._waits[key] = self._waits.get(key, 0.0) + seconds

    def wait_seconds(self, producer: int, target: str) -> float:
        return self._waits.get((producer, target), 0.0)


# -- fragment relocation -------------------------------------------------------


def relocate_fragment(
    plan: PhysicalPlan, fragment: Fragment, new_site: str
) -> PhysicalPlan:
    """A copy of ``plan`` with ``fragment`` re-placed at ``new_site``.

    Body operators move to ``new_site``; the fragment's cut input Ships
    now deliver to ``new_site`` (their sources — the producers' sites —
    are untouched); the fragment's output Ship, which lives in the
    consumer's body, now originates *from* ``new_site``.  The original
    plan objects are never mutated, so an in-flight execution of the old
    placement stays consistent and the candidate can be discarded freely
    if validation rejects it.
    """
    cut = {id(entry.ship) for entry in fragment.inputs}
    body = {id(node) for node in fragment.body()}
    output_id = id(fragment.output) if fragment.output is not None else None

    def move(node: PhysicalPlan, copy: PhysicalPlan) -> None:
        if id(node) == output_id:
            copy.source = new_site  # type: ignore[attr-defined]
        elif id(node) in cut:
            copy.location = copy.target = new_site  # type: ignore[attr-defined]
        elif id(node) in body:
            copy.location = new_site

    return copy_plan(plan, edit=move)


# -- failover planning ---------------------------------------------------------


def failover_candidates(
    fragment: Fragment,
    unavailable: frozenset[str],
    all_locations: frozenset[str] | None = None,
) -> tuple[str, ...]:
    """Legal backup sites for ``fragment``: ⋂ℰ over its body operators.

    Table scans carry ℰ = {home site} ∪ {compliant replica sites}, so
    fragments reading a *non-replicated* table at a crashed site are
    pinned automatically (empty result) while replicated ones fail over
    to an alternate compliant replica — the planner's first resort,
    tried before any re-placement and long before a partial failure.
    A fragment
    whose root is a Ship is a result-delivery relay — the destination
    was chosen by the caller, never moved.  When trait annotations are
    absent (hand-built or baseline plans) the fallback is
    ``all_locations`` unless the body scans a table, in which case the
    fragment is pinned to the scan's home.
    """
    if isinstance(fragment.root, Ship):
        return ()
    trait: frozenset[str] | None = None
    untraited_scan = False
    for node in fragment.body():
        if isinstance(node, Ship):
            continue
        if node.execution_trait is not None:
            trait = (
                node.execution_trait
                if trait is None
                else trait & node.execution_trait
            )
        elif isinstance(node, TableScan):
            untraited_scan = True
    if trait is None:
        if untraited_scan or all_locations is None:
            return ()
        trait = all_locations
    elif untraited_scan:
        return ()
    legal = trait - unavailable - {fragment.location}
    return tuple(sorted(legal))


def fragment_scans(fragment: Fragment) -> bool:
    """Does the fragment's body (excluding cut input Ships) scan a base
    table?  Moving such a fragment means reading a *replica* — only
    possible when the catalog declares one and the policies admit it
    (replica sites are in the scan's ℰ, so the candidate set encodes
    legality already); without replicas these fragments are pinned."""
    return any(isinstance(node, TableScan) for node in fragment.body())


@dataclass
class Failover:
    """A validated re-placement of one failed fragment."""

    index: int
    from_site: str
    to_site: str
    reason: str
    plan: PhysicalPlan  # the whole re-placed plan
    dag: FragmentDAG  # re-fragmented (same shape: cuts are unchanged)
    #: Whether a policy evaluator re-validated the placement (False only
    #: when the scheduler runs without a compliance guard).
    validated: bool = False
    #: ``"replica"`` when the fragment scans a table (the new site reads
    #: a compliant replica); ``"replacement"`` for scan-free fragments.
    kind: str = "replacement"
    #: Worst-case staleness the fragment's scans would read at the new
    #: site at the decision instant (0.0 = all primaries / no tracker).
    staleness: float = 0.0


class FailoverPlanner:
    """Chooses and validates backup placements for failed fragments.

    ``breakers`` (anything with ``allow(source, target, when) -> bool``,
    e.g. :class:`repro.server.breaker.BreakerRegistry`) steers candidate
    ranking away from sites whose input/output links are currently
    refused by an open circuit breaker — such a placement would only
    fast-fail again."""

    def __init__(
        self,
        network: NetworkModel,
        evaluator=None,  # PolicyEvaluator | None
        all_locations: frozenset[str] | None = None,
        breakers=None,  # LinkGovernor | None
        freshness=None,  # FreshnessPolicy | None
    ) -> None:
        self.network = network
        self.evaluator = evaluator
        self.all_locations = all_locations
        self.breakers = breakers
        self.freshness = freshness

    def _open_links(
        self, dag: FragmentDAG, fragment: Fragment, site: str, at: float
    ) -> int:
        """How many of the fragment's links would land on a link the
        breaker registry currently refuses, were it placed at ``site``."""
        if self.breakers is None:
            return 0
        open_count = 0
        for entry in fragment.inputs:
            producer = dag.fragments[entry.producer]
            if producer.location != site and not self.breakers.allow(
                producer.location, site, at
            ):
                open_count += 1
        if fragment.output is not None and fragment.consumer is not None:
            consumer = dag.fragments[fragment.consumer]
            if consumer.location != site and not self.breakers.allow(
                site, consumer.location, at
            ):
                open_count += 1
        return open_count

    def _relocation_cost(self, dag: FragmentDAG, fragment: Fragment, site: str) -> float:
        """Estimated extra shipping after moving ``fragment`` to ``site``
        — the same ``α + β·bytes`` objective the site-selection DP
        minimized, re-evaluated for the new edges."""
        cost = 0.0
        for entry in fragment.inputs:
            producer = dag.fragments[entry.producer]
            cost += self.network.transfer_time(
                producer.location, site, entry.ship.estimated_bytes
            )
        if fragment.output is not None and fragment.consumer is not None:
            consumer = dag.fragments[fragment.consumer]
            cost += self.network.transfer_time(
                site, consumer.location, fragment.output.estimated_bytes
            )
        return cost

    def plan_failover(
        self,
        plan: PhysicalPlan,
        dag: FragmentDAG,
        index: int,
        unavailable: frozenset[str],
        reason: str,
        at: float = 0.0,
        staleness_ceiling: float | None = None,
    ) -> Failover | None:
        """The cheapest compliant re-placement of fragment ``index``, or
        ``None`` when every candidate is illegal, unreachable, or fails
        re-validation (→ the query degrades to a partial failure).

        ``at`` is the simulated instant the failure was detected; with a
        breaker registry installed, candidates whose links are refused at
        that instant sort last (but remain candidates — an open link may
        still be the only compliant option).

        With a freshness policy installed, each candidate replica's
        staleness is re-derived *at this instant*: a candidate violating
        the bound is dropped outright (never chosen — a demotion must
        not land on a copy as stale as the one it left), equally-priced
        survivors rank freshest-first (then lexicographic site), and
        ``staleness_ceiling`` (a soft prefer-fresh demotion's current
        staleness) additionally requires a strictly fresher copy."""
        fragment = dag.fragments[index]
        candidates = failover_candidates(fragment, unavailable, self.all_locations)
        kind = "replica" if fragment_scans(fragment) else "replacement"
        staleness_of: dict[str, float] = {}
        if self.freshness is not None and kind == "replica":
            from ..catalog import FRESHNESS_EPS

            for site in candidates:
                staleness_of[site] = self.freshness.site_staleness(
                    fragment, site, at
                )
            if self.freshness.enforcing:
                candidates = tuple(
                    site
                    for site in candidates
                    if self.freshness.within_bound(staleness_of[site])
                )
            if staleness_ceiling is not None:
                candidates = tuple(
                    site
                    for site in candidates
                    if staleness_of[site] + FRESHNESS_EPS < staleness_ceiling
                )
        ranked = sorted(
            candidates,
            key=lambda site: (
                self._open_links(dag, fragment, site, at),
                self._relocation_cost(dag, fragment, site),
                staleness_of.get(site, 0.0),
                site,
            ),
        )
        for site in ranked:
            candidate_plan = relocate_fragment(plan, fragment, site)
            validated = False
            if self.evaluator is not None:
                from ..optimizer.validator import check_recovery_placement

                if check_recovery_placement(candidate_plan, self.evaluator):
                    continue  # never recover into a non-compliant plan
                validated = True
            new_dag = fragment_plan(candidate_plan)
            if len(new_dag.fragments) != len(dag.fragments):  # pragma: no cover
                # Relocation only changes locations, never the cut
                # topology; a shape change would invalidate the results
                # computed so far, so refuse this candidate.
                continue
            return Failover(
                index=index,
                from_site=fragment.location,
                to_site=site,
                reason=reason,
                plan=candidate_plan,
                dag=new_dag,
                validated=validated,
                kind=kind,
                staleness=staleness_of.get(site, 0.0),
            )
        return None
