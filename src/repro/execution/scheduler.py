"""Fragment-by-fragment plan execution on a simulated, fault-injectable
WAN clock — the one runtime every :class:`~repro.execution.ExecutionEngine`
run goes through.

The scheduler executes the :class:`~repro.execution.fragments.FragmentDAG`
of a located plan; each fragment body runs on an operator backend
(:class:`~repro.execution.operators.OperatorExecutor` or
:class:`~repro.execution.vectorized.BatchOperatorExecutor`) whose cut
SHIP leaves read the producers' already-delivered outputs.  Every SHIP
is priced, billed and traced exactly once, here:

* **One fixed order** — fragments are admitted and computed on the
  calling thread in the DAG's topological order (producers first, the
  result fragment last), so a run — down to which fragments ran before
  an abort — repeats exactly.  Sites overlap only on the simulated
  clock (the rows equal the centralized reference plan's; equivalence
  is locked down by the executor test suite).
* **Simulated response time** — an event-driven simulation advances one
  clock per site.  A fragment's simulated work starts when its last
  input transfer has arrived and finishes when its own output has been
  delivered to the consumer's site, taking
  ``transfer_time = α + β · actual_bytes`` on each cut SHIP edge.  Local
  compute is free on the simulated clock, exactly like the paper's §7.4
  message cost model (measured wall-clock compute is still recorded per
  fragment as an observability hook).  The latest delivery instant is
  the plan's **makespan** — its critical-path response time.
* **Fault injection and recovery** — when constructed with a
  :class:`~repro.execution.faults.FaultPlan`, every transfer attempt
  consults it at the attempt's simulated instant through a
  :class:`~repro.geo.FaultAwareNetwork`.  Transient failures retry with
  exponential backoff and deterministic jitter
  (:class:`~repro.execution.recovery.RetryPolicy`), charging every wait
  to the simulated clock so the makespan includes all retry delays.  A
  crashed site triggers **compliance-preserving failover**: the failed
  fragment is re-placed only at a site drawn from its annotated
  execution traits ℰ and re-validated by the plan validator
  (:class:`~repro.execution.recovery.FailoverPlanner`); when no legal
  placement exists the query degrades to a typed
  :class:`~repro.execution.metrics.PartialFailure` instead of crashing.

Without faults, ``makespan_seconds <= shipping_seconds`` always holds
(a critical path cannot exceed the sum of all edges), with equality
exactly when every SHIP lies on a single root-to-leaf path (chain
plans).  Bushy plans with independent fragments come in strictly below
the sum — the quantity the paper's response-time experiments actually
report.  Under faults the makespan additionally absorbs retry backoff,
slow-link degradation, and failover re-deliveries, so it may exceed the
(successful-attempt) shipping sum.

Injected faults surface as :class:`~repro.errors.FaultError`
subclasses and are absorbed by retry/failover/degradation — genuine
operator failures are *not* absorbed: they propagate to the caller
unchanged, and no later fragment runs.
"""

from __future__ import annotations

import time
from functools import partial

from ..catalog import FRESHNESS_EPS
from ..errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExecutionError,
    FaultError,
    FragmentTimeoutError,
    ReplicaStaleError,
    SiteUnavailableError,
    TransferError,
)
from ..geo import FaultAwareNetwork, GeoDatabase, LinkGovernor, NetworkModel
from ..trace import (
    ChunkEvent,
    RecoveryEvent,
    ScanReadEvent,
    ShipEvent,
    annotate_payload_reads,
    current_recorder,
    encode_payload,
)
from ..validation import validate_positive_int, validate_timeout
from ..plan import Filter, PhysicalPlan, Project, Ship, TableScan, UnionAll
from .faults import FaultPlan
from .fragments import Fragment, FragmentDAG, fragment_plan
from .freshness import MAX_REFRESH_WAITS, FreshnessPolicy
from .metrics import (
    ExecutionMetrics,
    FragmentRecord,
    PartialFailure,
    RecoveryRecord,
    ScanRead,
    ShipRecord,
)
from .operators import OperatorExecutor, RowBatch
from .recovery import ChunkLedger, FailoverPlanner, RetryPolicy
from .shipping import wire_round_trip
from .vectorized import BatchOperatorExecutor, ColumnBatch
from .wire import ShipConfig, ShipTransfer, WireChunk


def validate_worker_count(max_workers: int | None) -> int | None:
    """Validate the ``max_workers`` keyword the scheduler, engine and
    server still accept from existing call sites.  Fragments always run
    on the calling thread, so the count has no effect; a zero or
    negative count is still a caller bug and is rejected with the shared
    typed error (:func:`~repro.validation.validate_positive_int`)."""
    if max_workers is None:
        return None
    return validate_positive_int(max_workers, "worker count")


#: Operator backend per ``--executor`` name.  Each evaluates one fragment
#: body and resolves its cut SHIP leaves from the producers' delivered
#: outputs.
EXECUTOR_BACKENDS: dict[str, type] = {
    "row": OperatorExecutor,
    "batch": BatchOperatorExecutor,
}


def validate_executor_name(executor: str) -> str:
    """Reject unknown executor backends with a clear error up front."""
    if executor not in EXECUTOR_BACKENDS:
        known = ", ".join(sorted(EXECUTOR_BACKENDS))
        raise ExecutionError(
            f"unknown executor backend {executor!r}; expected one of: {known}"
        )
    return executor


def _logical_bytes(batch: RowBatch | ColumnBatch, wire: ShipTransfer | None) -> int:
    """Logical size of a producer's output: the encoder's sizing pass
    already measured a wired batch; otherwise the batch measures (and
    caches) itself, so re-deliveries of the same output are O(1)."""
    return batch.nbytes if wire is None else wire.logical_bytes


def _failed_outcome(error: FaultError, retries_left: bool) -> str:
    """Trace outcome of a failed send; only ``"transient"`` is retried."""
    if isinstance(error, SiteUnavailableError):
        return "site_down"
    if isinstance(error, CircuitOpenError):
        # Fast-fail: no backoff, no retries — the breaker already knows
        # the link is bad.
        return "circuit_open"
    if not error.transient:
        return "link_down"
    return "transient" if retries_left else "retry_exhausted"


class FragmentScheduler:
    """Executes a located plan fragment-by-fragment in topological
    order, optionally under an injected fault schedule.  ``max_workers``
    is validated and otherwise ignored (see
    :func:`validate_worker_count`)."""

    def __init__(
        self,
        database: GeoDatabase,
        network: NetworkModel,
        max_workers: int | None = None,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        compliance_guard=None,  # PolicyEvaluator | None
        executor: str = "row",
        breakers: LinkGovernor | None = None,
        freshness: FreshnessPolicy | None = None,
        ship: ShipConfig | None = None,
    ) -> None:
        self.database = database
        self.network = network
        validate_worker_count(max_workers)
        self.faults = faults if faults is not None else FaultPlan()
        self.retry_policy = retry_policy or RetryPolicy()
        self.compliance_guard = compliance_guard
        self.executor = validate_executor_name(executor)
        self.breakers = breakers
        self.freshness = freshness
        #: Wire format for cut SHIP edges; the default is the legacy
        #: monolithic, uncompressed transfer.
        self.ship = ship or ShipConfig()

    def run(
        self,
        plan: PhysicalPlan,
        start_at: float = 0.0,
        deadline: float | None = None,
    ) -> tuple[RowBatch, ExecutionMetrics]:
        """Execute ``plan``; returns the root result and plan metrics
        (fragment records, ship records, recoveries, and
        ``makespan_seconds``).  Under fault injection an unrecoverable
        query returns empty rows with ``metrics.partial_failure`` set;
        genuine operator failures raise.

        ``start_at`` offsets the simulated clock — the query server
        admits queries at their (shared-clock) admission instant, so
        fault onsets and breaker state are consulted at global times and
        ``makespan_seconds`` is the *absolute* finish instant.
        ``deadline`` (absolute, simulated) cancels the query
        cooperatively at the next fragment boundary once the clock
        passes it, raising a typed
        :class:`~repro.errors.DeadlineExceeded` (no later fragment
        runs)."""
        if start_at < 0.0:
            raise ExecutionError(f"start_at must be >= 0, got {start_at}")
        validate_timeout(deadline, "deadline")
        run = _ChaosRun(self, plan, start_at=start_at, deadline=deadline)
        run.execute()
        metrics = run.account()
        if run.failure is not None:
            return RowBatch(list(plan.field_names), []), metrics
        # The final-result edge: the one place a columnar output becomes rows.
        return run.results[run.dag.root_index][0].to_row_batch(), metrics


class _ChaosRun:
    """State of one scheduled execution: the (possibly re-placed) plan
    and DAG, per-fragment results and simulated instants, and every
    fault-recovery decision."""

    #: Hard cap on failovers per run — each failover excludes a site for
    #: its fragment, so this is never reached on sane site counts; it
    #: guards against a pathological fault schedule looping forever.
    MAX_RECOVERIES = 32

    def __init__(
        self,
        scheduler: FragmentScheduler,
        plan: PhysicalPlan,
        start_at: float = 0.0,
        deadline: float | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.plan = plan
        self.start_at = start_at
        self.deadline = deadline
        self.dag = fragment_plan(plan)
        self.wan = FaultAwareNetwork(
            scheduler.network, scheduler.faults, breakers=scheduler.breakers
        )
        self.policy = scheduler.retry_policy
        self.planner = FailoverPlanner(
            scheduler.network,
            evaluator=scheduler.compliance_guard,
            all_locations=frozenset(scheduler.database.catalog.locations),
            breakers=scheduler.breakers,
            freshness=scheduler.freshness,
        )
        self.freshness = scheduler.freshness
        self.ship = scheduler.ship
        #: Fragment outputs in their backend's own layout.
        self.results: dict[int, tuple[RowBatch | ColumnBatch, float]] = {}
        #: Wire-decoded producer outputs (only when a wire config is
        #: active): consumers read *these* columns, so the codec is
        #: load-bearing — an encode/decode bug shows up as row
        #: divergence in the equivalence suites, not just as a wrong
        #: byte count.
        self.results_decoded: dict[int, ColumnBatch] = {}
        #: Encoded wire form per producer index, built once per run.  A
        #: failover recompute yields row-identical output, so the cache
        #: survives re-placements.
        self._wire_cache: dict[int, ShipTransfer] = {}
        #: Delivered-chunk acknowledgements: transient retry and
        #: producer-side failover resume from the first unacknowledged
        #: chunk instead of re-shipping (and re-billing) the prefix.
        self.ledger = ChunkLedger()
        #: Simulated instant each fragment's *first* output chunk can
        #: leave its site (== ``ready`` for blocking fragments and
        #: whenever streaming is off).
        self.out_start: dict[int, float] = {}
        #: The run's metrics: fragments are computed one after another,
        #: so their executors append operator records in fragment order.
        self.metrics = ExecutionMetrics()
        #: Operators each computed fragment evaluated.
        self.operators_run: dict[int, int] = {}
        #: Simulated instant each fragment's computation is available at
        #: its site (compute is free on the simulated clock).
        self.ready: dict[int, float] = {}
        #: Simulated instant each fragment's output finished delivery
        #: (== ready for the result-producing root fragment).
        self.delivered: dict[int, float] = {}
        #: Final successful output transfer per producer fragment.
        self.ship_records: dict[int, ShipRecord] = {}
        self.recoveries: list[RecoveryRecord] = []
        self.failure: PartialFailure | None = None
        #: Transfers refused outright by an open circuit breaker.
        self.breaker_fast_fails = 0
        #: Subsets of the replica failovers (kind == "replica"):
        #: breaker-triggered switches and saves of fragments whose own
        #: scan site died (guaranteed PartialFailures without replicas).
        self.replica_switches_breaker = 0
        self.partial_failures_avoided = 0
        #: Every base-table read committed under an active freshness
        #: policy (in commit order), and the refresh waits.  A fragment
        #: recomputed after a failover contributes both its original and
        #: its re-reads — both genuinely happened.
        self.scan_reads: list[ScanRead] = []
        self.refresh_waits = 0
        self.refresh_wait_seconds = 0.0
        #: Latest committed reads per fragment, for annotating that
        #: producer's payload descriptor and ship events.
        self._scan_reads: dict[int, tuple[ScanRead, ...]] = {}
        #: Sites a fragment has already failed at (never retried).
        self._excluded: dict[int, set[str]] = {}
        #: Trace recorder resolved once per run.  ``None`` when disabled.
        self.recorder = current_recorder()
        #: Encoded payload descriptor per producer fragment index.  A
        #: payload depends only on the fragment's logical content and
        #: its scan sites, so the cache survives *replacement*-kind
        #: failovers (scan sites unchanged) and is shared by retry
        #: re-deliveries — but a *replica*-kind failover moves the scan
        #: itself, so :meth:`_failover` drops that fragment's entry.
        self._payload_cache: dict[int, dict] = {}

    def _compute(self, fragment: Fragment) -> tuple[RowBatch | ColumnBatch, float]:
        ship_results = {
            id(entry.ship): self.results_decoded.get(
                entry.producer, self.results[entry.producer][0]
            )
            for entry in fragment.inputs
        }
        executor = EXECUTOR_BACKENDS[self.scheduler.executor](
            self.scheduler.database, self.metrics, ship_results
        )
        before = self.metrics.operators_executed
        start = time.perf_counter()
        out = executor.run_fragment(fragment.root)
        seconds = time.perf_counter() - start
        self.operators_run[fragment.index] = self.metrics.operators_executed - before
        return out, seconds

    # -- scheduling loop ---------------------------------------------------------

    def execute(self) -> None:
        """Run every fragment on the calling thread in the DAG's
        topological order (producers first, the result fragment last).
        Each fragment is admitted — its simulated start fixed, faults
        absorbed by retry and failover — and then computed.  An
        unrecoverable injected fault records a :class:`PartialFailure`
        and stops the run; a genuine operator failure propagates, so no
        later fragment runs."""
        for index in range(len(self.dag.fragments)):
            try:
                self._admit(index)
            except FaultError as error:
                self.failure = PartialFailure(
                    fragment_index=index,
                    location=self.dag.fragments[index].location,
                    error_type=type(error).__name__,
                    message=str(error),
                    at_seconds=error.at or 0.0,
                )
                return
            self.results[index] = self._compute(self.dag.fragments[index])

    # -- simulated admission with faults ----------------------------------------

    def _admit(self, index: int) -> None:
        """Fix fragment ``index``'s simulated start: deliver every input
        to its site, absorbing faults by retry and failover.  Sets
        ``ready[index]``; raises :class:`FaultError` only when recovery
        is impossible (→ partial failure), or the non-fault
        :class:`DeadlineExceeded` when the clock has passed the query's
        deadline — deadline cancellation is cooperative and happens
        exactly here, at fragment-admission boundaries."""
        not_before = self.start_at
        while True:
            fragment = self.dag.fragments[index]
            site = fragment.location
            base = max(
                [not_before]
                + [
                    self.out_start.get(entry.producer, self.ready[entry.producer])
                    for entry in fragment.inputs
                ]
            )
            self._check_deadline(base, index)
            if self.scheduler.faults.site_down(site, base):
                error = SiteUnavailableError(
                    f"site {site!r} is down at t={base:.3f}s", site=site
                )
                error.at = base
                not_before = self._failover(index, error, base)
                continue
            try:
                first_done, start, records = self._deliver_inputs(
                    index, not_before, floor=base
                )
            except SiteUnavailableError as error:
                if error.site == site:
                    not_before = self._failover(index, error, error.at)
                else:
                    # A producer's site died before its data got out:
                    # the computed rows are lost with the site, so the
                    # producer is re-placed and (freely, on the simulated
                    # clock) recomputed at its new site after its own
                    # inputs are re-delivered there.
                    producer = self._producer_at(fragment, error.site)
                    not_before = self._failover(producer, error, error.at)
                continue
            except (TransferError, FragmentTimeoutError) as error:
                # A permanently dead or timed-out path into this site:
                # route around it by re-placing the consumer.
                not_before = self._failover(index, error, error.at)
                continue
            if self.scheduler.faults.site_down(site, start):
                # The site died while its inputs were in flight; the
                # buffered records are discarded with the attempt.
                error = SiteUnavailableError(
                    f"site {site!r} went down at t<={start:.3f}s while inputs "
                    f"were arriving",
                    site=site,
                )
                error.at = start
                not_before = self._failover(index, error, start)
                continue
            gated = False
            if self.freshness is not None:
                action, when = self._freshness_gate(index, start)
                if action == "retry":
                    # Demoted to a fresher copy: re-admit there (the
                    # buffered input records are discarded — the new
                    # site needs its own deliveries).
                    not_before = when
                    continue
                gated = when != start
                start = when
            self._commit_deliveries(index, start, records)
            # First-chunk admission: a pipelined fragment (its body only
            # filters/projects/unions the streamed input) can start
            # emitting output chunks once its first input chunk landed;
            # blocking fragments — and any fragment a freshness gate
            # parked — emit nothing before they are fully ready.
            if (
                self.ship.streaming
                and fragment.inputs
                and not gated
                and self._streamable(fragment)
            ):
                self.out_start[index] = min(first_done, start)
            else:
                self.out_start[index] = start
            if index == self.dag.root_index:
                self.delivered[index] = start
            return

    def _deliver_inputs(
        self, index: int, not_before: float, floor: float
    ) -> tuple[float, float, list[tuple[int, ShipRecord, float]]]:
        """Ship every input of fragment ``index`` to its current site.
        Returns the instant the first chunk of every input has landed,
        the instant all of them are fully delivered (neither earlier
        than ``floor``), and the per-producer records — *buffered*, not
        committed: the caller discards them when the attempt is
        abandoned (failover, demotion), so only deliveries a fragment
        actually consumed reach the metrics."""
        fragment = self.dag.fragments[index]
        first_done = start = floor
        records: list[tuple[int, ShipRecord, float]] = []
        for entry in fragment.inputs:
            first, delivered, record = self._transfer(
                entry.producer, fragment.location, not_before, consumer_index=index
            )
            records.append((entry.producer, record, delivered))
            first_done = max(first_done, first)
            start = max(start, delivered)
        return first_done, start, records

    def _commit_deliveries(
        self, index: int, start: float, records: list[tuple[int, ShipRecord, float]]
    ) -> None:
        """Fragment ``index`` starts at ``start`` having consumed exactly
        these deliveries."""
        for producer, record, delivered in records:
            self.ship_records[producer] = record
            self.delivered[producer] = delivered
        self.ready[index] = start

    def _check_deadline(self, now: float, index: int) -> None:
        """Cooperative load shedding: once the simulated clock passes
        the query's (absolute) deadline, admitting more fragments is
        wasted work the caller no longer wants.  The raise propagates
        out of the scheduling loop, so no later fragment runs.

        Checked only *before* a fragment commits new WAN work (its
        admission ``base``): if the deadline passes while a fragment's
        inputs are already in flight, abandoning the paid-for transfers
        saves nothing, so the fragment completes and the query is
        delivered *late* (flagged by the server's ``served_late``)."""
        if self.deadline is not None and now > self.deadline:
            raise DeadlineExceeded(
                f"fragment f{index} would start at t={now:.3f}s, past the "
                f"query deadline of t={self.deadline:.3f}s",
                deadline=self.deadline,
                at=now,
            )

    def _producer_at(self, fragment: Fragment, site: str) -> int:
        for entry in fragment.inputs:
            if self.dag.fragments[entry.producer].location == site:
                return entry.producer
        raise AssertionError(  # pragma: no cover - transfer endpoints are inputs
            f"no producer of f{fragment.index} at {site!r}"
        )

    # -- runtime freshness ------------------------------------------------------

    def _freshness_gate(self, index: int, start: float) -> tuple[str, float]:
        """Re-check replica staleness for fragment ``index`` at its
        admission instant ``start`` — the runtime half of the freshness
        model (plan-time filtering already happened; the copies may have
        aged since).  Returns ``("commit", start')`` once the reads are
        committed (``start'`` > ``start`` after a refresh wait), or
        ``("retry", t)`` after a demotion to a fresher site re-placed
        the fragment.  Raises :class:`ReplicaStaleError` when
        enforcement finds no legal alternative — the caller degrades the
        query to a partial failure rather than serve a violating read."""
        policy = self.freshness
        fragment = self.dag.fragments[index]
        reads = policy.replica_reads(fragment, start)
        if not reads or not policy.enforcing:
            self._commit_reads(index, reads)
            return ("commit", start)
        violations = [
            r for r in reads if not policy.within_bound(r.staleness_seconds)
        ]
        if violations and policy.mode == "wait-for-refresh":
            waited = self._wait_for_refresh(index, fragment, start, violations)
            if waited is not None:
                return ("commit", waited)
            # No refresh is coming (or none inside the fragment
            # timeout): fall through to demotion.
        if violations:
            worst = max(r.staleness_seconds for r in violations)
            error = ReplicaStaleError(
                f"fragment f{index} would read "
                f"{', '.join(sorted(set(f'{r.database}.{r.table}@{r.site}' for r in violations)))} "
                f"at staleness {worst:.3f}s, over the "
                f"{policy.max_staleness:g}s bound at t={start:.3f}s",
                site=fragment.location,
                staleness=worst,
                bound=policy.max_staleness,
            )
            error.at = start
            return ("retry", self._failover(index, error, start))
        worst = max(r.staleness_seconds for r in reads)
        if policy.mode == "prefer-fresh" and worst > FRESHNESS_EPS:
            # In-bound but lagging: demote softly — only if a strictly
            # fresher legal copy is actually placeable; otherwise the
            # stale-within-bound read is committed as-is.
            error = ReplicaStaleError(
                f"fragment f{index} prefers a copy fresher than "
                f"{worst:.3f}s-stale {fragment.location!r} at t={start:.3f}s",
                site=fragment.location,
                staleness=worst,
                bound=policy.max_staleness,
            )
            error.at = start
            resume = self._failover(
                index, error, start, soft=True, staleness_ceiling=worst
            )
            if resume is not None:
                return ("retry", resume)
        self._commit_reads(index, reads)
        return ("commit", start)

    def _wait_for_refresh(
        self,
        index: int,
        fragment: Fragment,
        start: float,
        violations: list[ScanRead],
    ) -> float | None:
        """Park the fragment until every violating replica has refreshed
        within the bound, charging the wait to the simulated clock.
        Returns the post-wait admission instant with the reads
        committed, or ``None`` when waiting cannot help (a refresh is
        never coming, the wait would blow the fragment timeout, or the
        schedules cannot outrun the bound)."""
        policy = self.freshness
        timeout = self.policy.fragment_timeout
        now = start
        pending = violations
        for _ in range(MAX_REFRESH_WAITS):
            target = now
            for read in pending:
                refresh = policy.tracker.next_refresh(
                    read.database, read.table, read.site, now
                )
                if refresh is None:
                    return None  # paused forever / no schedule
                target = max(target, refresh)
            if timeout is not None and target - start > timeout:
                return None
            reads = policy.replica_reads(fragment, target)
            pending = [
                r for r in reads if not policy.within_bound(r.staleness_seconds)
            ]
            if not pending:
                self.refresh_waits += 1
                self.refresh_wait_seconds += target - start
                self._commit_reads(index, reads)
                return target
            now = target
        return None

    def _commit_reads(self, index: int, reads: tuple[ScanRead, ...]) -> None:
        """Account fragment ``index``'s base-table reads: the metrics
        trail and one ``scan_read`` trace event per read, so the runtime
        counters reconcile 1:1 against the trace."""
        self._scan_reads[index] = reads
        self.scan_reads.extend(reads)
        if self.recorder is not None:
            for read in reads:
                self.recorder.emit(
                    ScanReadEvent(
                        at=read.at_seconds,
                        fragment=index,
                        database=read.database,
                        table=read.table,
                        site=read.site,
                        staleness_at_read=read.staleness_seconds,
                    )
                )

    #: Operators that can emit output rows as input rows arrive — a
    #: fragment whose body holds only these (plus its cut SHIP leaves
    #: and local scans) is admitted on *first-chunk* arrival.  Joins,
    #: aggregates, and sorts are blocking: they see the full input
    #: before their first output row exists.
    _STREAMABLE_OPS = (Filter, Project, UnionAll, Ship, TableScan)

    def _streamable(self, fragment: Fragment) -> bool:
        cut = {id(entry.ship) for entry in fragment.inputs}
        stack: list[PhysicalPlan] = [fragment.root]
        while stack:
            node = stack.pop()
            if not isinstance(node, self._STREAMABLE_OPS):
                return False
            if id(node) in cut:
                continue
            stack.extend(node.children())
        return True

    def _wire_transfer(self, producer_index: int) -> ShipTransfer:
        """The producer's output in wire form (encoded once per run; a
        failover recompute is row-identical, so the encoding is too).
        Consumers are switched to the *decoded* columns at the same
        time, making the codec part of the actual data path."""
        wire = self._wire_cache.get(producer_index)
        if wire is None:
            batch, _compute = self.results[producer_index]
            wire, decoded = wire_round_trip(
                batch.columns, batch.data, batch.nrows, self.ship
            )
            self._wire_cache[producer_index] = wire
            self.results_decoded[producer_index] = ColumnBatch(
                list(batch.columns), decoded, batch.nrows
            )
        return wire

    def _chunk_avail(self, producer_index: int, chunk: int, total: int) -> float:
        """Simulated instant chunk ``chunk`` of the producer's output
        exists at its site.  A pipelined producer emits chunks evenly
        between its first-output instant and its fully-ready instant;
        the last chunk (and every chunk of a single-chunk transfer) can
        never precede ``ready`` — the full result must exist before the
        final chunk is sealed."""
        ready = self.ready[producer_index]
        if total <= 1 or chunk >= total - 1:
            return ready
        out = self.out_start.get(producer_index, ready)
        return out + (ready - out) * (chunk / (total - 1))

    def _transfer(
        self,
        producer_index: int,
        target_site: str,
        not_before: float,
        consumer_index: int,
    ) -> tuple[float, float, ShipRecord]:
        """Simulate the delivery of ``producer_index``'s output to
        ``target_site`` as a stream of send units on one connection:
        repeated attempts per unit against the fault-aware network with
        exponential backoff, bounded by the retry budget and the
        per-fragment timeout.  Returns the first-unit arrival instant,
        the full-delivery instant, and the record of the successful
        transfer.

        Sends are serialized on the link in unit order; unit ``k``
        leaves no earlier than the instant the producer has it
        (:meth:`_chunk_avail`) and no earlier than the link is free.
        The link's α is paid once per connection — re-paid after any
        fault broke it and on every resumed transfer.  Every delivered
        unit is acknowledged in a ledger, so only the pending suffix is
        ever sent and no unit is billed twice.

        The two transports drive this one loop:

        * **streamed** (a streaming config on a cross-site edge): one
          unit per wire chunk from the producer's first-output instant,
          acknowledged in the run-wide ledger — retries and failover
          re-deliveries resume where the last invocation stopped, and
          attempts and backoff accumulate across them; every attempt is
          a payload-less chunk event and one payload-carrying ship event
          rolls up the completed transfer.
        * **monolithic** (everything else, including local moves and
          compress-only under any config): the whole payload is the
          only unit, sent once the producer is fully ready; its ledger
          dies with the invocation, so a re-admitted consumer is
          re-shipped and attempts and backoff count per invocation;
          every attempt is itself a payload-carrying ship event."""
        source = self.dag.fragments[producer_index].location
        batch, _compute = self.results[producer_index]
        wire = self._wire_transfer(producer_index) if self.ship.active else None
        nbytes = _logical_bytes(batch, wire)
        streamed = wire is not None and self.ship.streaming and source != target_site
        produced = self.ready[producer_index]
        if streamed:
            ledger, sizes = self.ledger, wire.chunk_sizes
            produced = self.out_start.get(producer_index, produced)
        else:
            ledger = ChunkLedger()
            sizes = (nbytes if wire is None else wire.wire_bytes,)
        key = (producer_index, target_site)
        trace = partial(
            self._trace_attempt, producer_index, consumer_index, source, target_site, wire
        )
        link = f"{source} -> {target_site}"
        timeout = self.policy.fragment_timeout
        begin = now = sent = max(produced, not_before)
        connected = False
        for k in ledger.pending(*key, len(sizes)):
            chunk = wire.chunks[k] if streamed else None
            unit = f"chunk {k} of {link}" if streamed else link
            jitter_key = (producer_index, source, target_site) + (
                (k,) if streamed else ()
            )
            now = max(now, self._chunk_avail(producer_index, k, len(sizes)))
            attempt = 0
            while True:
                attempt += 1
                ledger.note_attempt(*key)
                try:
                    seconds = self.wan.attempt_transfer(
                        source, target_site, sizes[k], now, include_alpha=not connected
                    )
                except (TransferError, SiteUnavailableError) as error:
                    connected = False
                    error.at = now
                    outcome = _failed_outcome(error, attempt < self.policy.max_attempts)
                    if outcome == "circuit_open":
                        self.breaker_fast_fails += 1
                    if outcome != "transient":
                        # Permanent for this placement: the admission
                        # loop consults failover next.
                        trace(chunk, attempt, outcome, now)
                        raise
                    pause = self.policy.backoff(attempt, *jitter_key)
                    if timeout is not None and (now + pause) - begin > timeout:
                        trace(chunk, attempt, "timeout", now)
                        timeout_error = FragmentTimeoutError(
                            f"inputs of fragment f{consumer_index} exceeded the "
                            f"{timeout:g}s fragment timeout while retrying {unit}",
                            fragment_index=consumer_index,
                        )
                        timeout_error.at = now
                        raise timeout_error from error
                    trace(chunk, attempt, "transient", now)
                    ledger.note_wait(*key, pause)
                    now += pause
                    continue
                arrived = now + seconds
                if timeout is not None and arrived - begin > timeout:
                    trace(chunk, attempt, "timeout", now, seconds)
                    late = (
                        f"{unit} would land {arrived - begin:.3f}s after the "
                        f"transfer began"
                        if streamed
                        else f"delivery {unit} took {arrived - begin:.3f}s"
                    )
                    timeout_error = FragmentTimeoutError(
                        f"{late}, exceeding the {timeout:g}s fragment timeout",
                        fragment_index=consumer_index,
                    )
                    timeout_error.at = arrived
                    raise timeout_error
                trace(chunk, attempt, "delivered", now, seconds)
                ledger.ack(*key, k, arrived, seconds, sizes[k])
                connected = True
                sent, now = now, arrived  # the link frees up when this send lands
                break

        acks = ledger.acked(*key).values()
        first = min(ack.at_seconds for ack in acks)
        delivered = max(ack.at_seconds for ack in acks)
        seconds = sum(ack.seconds for ack in acks)
        attempts = ledger.attempts(*key)
        if streamed:
            # Exactly one payload-carrying descriptor per logical
            # transfer, stamped at the delivery instant; the per-chunk
            # attempts above carry no payload of their own.
            trace(None, attempts, "delivered", delivered, seconds)
        record = ShipRecord(
            source=source,
            target=target_site,
            rows=batch.nrows,
            bytes=nbytes,
            seconds=seconds,
            attempts=attempts,
            retry_wait_seconds=(
                ledger.wait_seconds(*key) if streamed else sent - begin
            ),
            wire_bytes=None if wire is None else wire.wire_bytes,
            chunks=1 if wire is None else len(wire.chunks),
        )
        return first, delivered, record

    def _trace_attempt(
        self,
        producer_index: int,
        consumer_index: int,
        source: str,
        target: str,
        wire: ShipTransfer | None,
        chunk: WireChunk | None,
        attempt: int,
        outcome: str,
        at: float,
        seconds: float | None = None,
    ) -> None:
        """Emit one attempt event: a payload-less chunk event when
        ``chunk`` is given, else a ship event carrying the producer's
        payload descriptor."""
        if self.recorder is None:
            return
        if chunk is not None:
            self.recorder.emit(
                ChunkEvent(
                    at=at,
                    source=source,
                    target=target,
                    chunk=chunk.index,
                    of=len(wire.chunks),
                    rows=chunk.rows,
                    bytes=chunk.nbytes,
                    attempt=attempt,
                    outcome=outcome,
                    seconds=seconds,
                    producer=producer_index,
                    consumer=consumer_index,
                )
            )
            return
        batch, _compute = self.results[producer_index]
        payload = self._payload_cache.get(producer_index)
        if payload is None:
            payload = encode_payload(self.dag.fragments[producer_index].root)
            reads = self._scan_reads.get(producer_index)
            if reads:
                # Stamp each scan descriptor with the staleness its
                # committed read actually saw, so the payload is a
                # self-contained freshness claim the auditor re-derives.
                payload = annotate_payload_reads(payload, reads)
            self._payload_cache[producer_index] = payload
        reads = self._scan_reads.get(producer_index)
        staleness = (
            max(r.staleness_seconds for r in reads) if reads else None
        )
        self.recorder.emit(
            ShipEvent(
                at=at,
                source=source,
                target=target,
                rows=batch.nrows,
                bytes=_logical_bytes(batch, wire),
                attempt=attempt,
                outcome=outcome,
                seconds=seconds,
                producer=producer_index,
                consumer=consumer_index,
                columns=list(batch.columns),
                payload=payload,
                staleness_at_read=staleness,
                wire_bytes=None if wire is None else wire.wire_bytes,
                chunks=None if wire is None else len(wire.chunks),
            )
        )

    def _failover(
        self,
        index: int,
        error: FaultError,
        detected: float,
        soft: bool = False,
        staleness_ceiling: float | None = None,
    ) -> float | None:
        """Re-place fragment ``index`` after ``error``, compliance
        checks included; returns the earliest simulated instant work may
        resume.  Raises the original error when no legal placement
        exists — the caller turns that into a partial failure — unless
        ``soft`` (a prefer-fresh demotion of an *in-bound* read, where
        staying put is legal): then ``None`` is returned and the caller
        commits the stale-within-bound read instead."""
        if len(self.recoveries) >= self.MAX_RECOVERIES:
            if soft:
                return None
            raise error
        fragment = self.dag.fragments[index]
        excluded = self._excluded.setdefault(index, set())
        unavailable = (
            self.scheduler.faults.crashed_sites(detected)
            | frozenset(excluded)
            | frozenset({fragment.location})
        )
        failover = self.planner.plan_failover(
            self.plan,
            self.dag,
            index,
            frozenset(unavailable),
            reason=str(error),
            at=detected,
            staleness_ceiling=staleness_ceiling,
        )
        if failover is None:
            if soft:
                return None
            raise error
        stale_demotion = isinstance(error, ReplicaStaleError)
        if not soft:
            # A soft demotion leaves the old site legal (its read was
            # within bound); hard failures never retry the failed site.
            excluded.add(fragment.location)
        self.plan = failover.plan
        self.dag = failover.dag
        if failover.kind == "replica":
            # The scan moved: the payload descriptor (which records the
            # replica site each scan reads) must be re-derived, or the
            # trace would misreport post-failover re-reads.
            self._payload_cache.pop(index, None)
            if isinstance(error, CircuitOpenError):
                self.replica_switches_breaker += 1
            if (
                isinstance(error, SiteUnavailableError)
                and error.site == failover.from_site
            ):
                # The fragment's own scan site died.  Without a replica
                # its ℰ is a singleton, so no re-placement could exist —
                # this failover avoided a guaranteed PartialFailure.
                self.partial_failures_avoided += 1
        self.recoveries.append(
            RecoveryRecord(
                fragment_index=index,
                from_site=failover.from_site,
                to_site=failover.to_site,
                reason=failover.reason,
                at_seconds=detected,
                validated=failover.validated,
                kind=failover.kind,
                staleness_at_read=error.staleness if stale_demotion else None,
            )
        )
        if self.recorder is not None:
            self.recorder.emit(
                RecoveryEvent(
                    at=detected,
                    fragment=index,
                    source=failover.from_site,
                    target=failover.to_site,
                    reason=failover.reason,
                    validated=failover.validated,
                    failover_kind=failover.kind,
                    staleness_at_read=(
                        error.staleness if stale_demotion else None
                    ),
                )
            )
        resume = detected + self.policy.detection_seconds
        if index in self.results:
            # An already-computed fragment (its site died holding the
            # data): recompute at the new site, which on the simulated
            # clock costs only the re-delivery of its inputs.
            self._reready(index, resume)
        return resume

    def _reready(self, index: int, not_before: float) -> None:
        """Recompute the ready instant of re-placed fragment ``index``
        by re-delivering its inputs to its new site.  Faults apply to
        the re-deliveries too; a failure here propagates and degrades
        the query to a partial failure."""
        _first, start, records = self._deliver_inputs(
            index, not_before, floor=not_before
        )
        if self.freshness is not None:
            # The re-placed copy is re-read at the *re-delivery*
            # instant, which may be later than the failover decision —
            # re-check and re-commit its reads at that instant.
            action, when = self._freshness_gate(index, start)
            if action == "retry":
                # Demoted again: the nested failover already re-ran
                # this method for the newest site, so everything below
                # (including ``ready``) is committed.
                return
            start = when
        self._commit_deliveries(index, start, records)
        # A re-placed fragment restarts from scratch at its new site:
        # its inputs only just finished re-arriving, so there is no
        # earlier first-output instant to stream from.
        self.out_start[index] = start

    # -- accounting -------------------------------------------------------------

    def account(self) -> ExecutionMetrics:
        """Complete the run's metrics with the ship records and the
        simulated timeline, in fragment order."""
        merged = self.metrics
        site_clock: dict[str, float] = {}
        for fragment in self.dag.fragments:
            index = fragment.index
            record = self.ship_records.get(index)
            if record is not None:
                merged.ships.append(record)
            if index not in self.results:
                continue  # never ran (aborted by a partial failure)
            batch, compute = self.results[index]
            start = self.ready.get(index, 0.0)
            finish = self.delivered.get(index, start)
            site_clock[fragment.location] = max(
                site_clock.get(fragment.location, 0.0), finish
            )
            merged.fragments.append(
                FragmentRecord(
                    index=index,
                    location=fragment.location,
                    root=fragment.root.describe(),
                    operators=self.operators_run[index],
                    rows_out=batch.nrows,
                    compute_seconds=compute,
                    sim_start_seconds=start,
                    sim_finish_seconds=finish,
                    inputs=tuple(entry.producer for entry in fragment.inputs),
                    consumer=fragment.consumer,
                )
            )
        merged.recoveries = list(self.recoveries)
        merged.partial_failure = self.failure
        merged.breaker_fast_fails = self.breaker_fast_fails
        merged.replica_switches_breaker = self.replica_switches_breaker
        merged.partial_failures_avoided = self.partial_failures_avoided
        merged.scan_reads = list(self.scan_reads)
        merged.refresh_waits = self.refresh_waits
        merged.refresh_wait_seconds = self.refresh_wait_seconds
        merged.start_at_seconds = self.start_at
        if self.failure is not None:
            merged.makespan_seconds = max(
                [self.failure.at_seconds, self.start_at, *self.delivered.values()],
            )
        else:
            merged.makespan_seconds = self.delivered.get(
                self.dag.root_index, self.start_at
            )
        merged.site_clock_seconds = site_clock
        return merged
