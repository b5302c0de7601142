"""Fragment-by-fragment plan execution on a simulated, fault-injectable
WAN clock — the one runtime every :class:`~repro.execution.ExecutionEngine`
run goes through.

The scheduler executes the :class:`~repro.execution.fragments.FragmentDAG`
of a located plan on the calling thread, in topological order
(producers first, the result fragment last), so a run — down to which
fragments ran before an abort — repeats exactly.  Each fragment body
runs on an operator backend whose cut SHIP leaves read the producers'
already-delivered outputs.  What lives here is the admission/clock core
and the failover driver; every other decision sits behind one module
and is called with explicit arguments:

* **Transfers** — :func:`repro.execution.shipping.transfer` prices,
  retries and traces every SHIP (``α + β · bytes`` per send, the paper's
  §7.4 message model) against a :class:`~repro.geo.FaultAwareNetwork`,
  charging every backoff to the simulated clock.
* **Freshness** — :meth:`repro.execution.freshness.FreshnessPolicy.admit`
  returns a verdict per admission: commit the replica reads (possibly
  after a refresh wait) or demote the fragment.
* **Failover** — :class:`~repro.execution.recovery.FailoverPlanner`
  re-places a failed fragment only inside its execution traits ℰ and
  re-validates the plan; with no legal placement the query degrades to
  a typed :class:`~repro.execution.metrics.PartialFailure`.

The clock: a fragment's simulated work starts when its last input has
arrived (its first input chunk, for a pipelined body under streaming)
and local compute is free, so the latest delivery instant is the plan's
**makespan** — its critical-path response time.  Without faults
``makespan_seconds <= shipping_seconds``, with equality exactly for
chain plans; under faults the makespan also absorbs retry backoff,
slow links and failover re-deliveries.  Injected faults surface as
:class:`~repro.errors.FaultError` subclasses and are absorbed by
retry/failover/degradation; genuine operator failures propagate
unchanged, and no later fragment runs.
"""

from __future__ import annotations

import time

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
    RecoveryEvent,
    ScanReadEvent,
    annotate_payload_reads,
    current_recorder,
    encode_payload,
)
from ..validation import validate_positive_int, validate_timeout
from ..plan import Filter, PhysicalPlan, Project, Ship, TableScan, UnionAll
from .faults import FaultPlan
from .fragments import Fragment, fragment_plan
from .freshness import FreshnessPolicy
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
from .shipping import (
    attempt_tracer,
    logical_bytes,
    transfer,
    unit_instants,
    wire_round_trip,
)
from .vectorized import BatchOperatorExecutor, ColumnBatch
from .wire import ShipConfig, ShipTransfer


def validate_worker_count(max_workers: int | None) -> int | None:
    """Validate the ``max_workers`` keyword the scheduler, engine and
    server still accept: fragments always run on the calling thread, so
    the count has no effect, but a non-positive one is a caller bug."""
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


#: Operators that emit output rows as input rows arrive: a fragment whose
#: body holds only these starts on *first-chunk* arrival (joins,
#: aggregates and sorts block until their input is complete).
_STREAMABLE_OPS = (Filter, Project, UnionAll, Ship, TableScan)


def _site_down(site: str, at: float, what: str) -> SiteUnavailableError:
    error = SiteUnavailableError(f"site {site!r} {what}", site=site)
    error.at = at
    return error


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
        """Execute ``plan``; returns the root result and plan metrics.  An
        unrecoverable injected fault returns empty rows with
        ``metrics.partial_failure`` set; genuine operator failures raise.

        ``start_at`` offsets the simulated clock (the query server's
        shared-clock admission instant), so ``makespan_seconds`` is the
        *absolute* finish instant.  ``deadline`` (absolute, simulated)
        cancels the query at the next fragment boundary once the clock
        passes it, raising a typed :class:`~repro.errors.DeadlineExceeded`."""
        if start_at < 0.0:
            raise ExecutionError(f"start_at must be >= 0, got {start_at}")
        validate_timeout(deadline, "deadline")
        run = _ChaosRun(self, plan, start_at=start_at, deadline=deadline)
        run.execute()
        metrics = run.account()
        if metrics.partial_failure is not None:
            return RowBatch(list(plan.field_names), []), metrics
        # The final-result edge: the one place a columnar output becomes rows.
        return run.results[run.dag.root_index][0].to_row_batch(), metrics


class _ChaosRun:
    """One scheduled execution: the (possibly re-placed) plan and DAG,
    per-fragment results and simulated instants, and its metrics."""

    #: Hard cap on failovers per run: each failover excludes a site, so
    #: only a pathological fault schedule could loop forever.
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
            scheduler.network, evaluator=scheduler.compliance_guard,
            all_locations=frozenset(scheduler.database.catalog.locations),
            breakers=scheduler.breakers, freshness=scheduler.freshness,
        )
        self.freshness = scheduler.freshness
        self.ship = scheduler.ship
        self.recorder = current_recorder()
        #: Every decision writes here; fragments run one after another,
        #: so executors append operator records in fragment order.
        self.metrics = ExecutionMetrics(start_at_seconds=start_at)
        #: Per computed fragment: output (in its backend's layout),
        #: measured compute seconds, operators evaluated.
        self.results: dict[int, tuple[RowBatch | ColumnBatch, float, int]] = {}
        #: Wire form and decoded output per producer, encoded once per run
        #: (a failover recompute is row-identical).  Consumers read the
        #: *decoded* columns, so a codec bug diverges rows.
        self.wired: dict[int, tuple[ShipTransfer, ColumnBatch]] = {}
        #: Acknowledged chunks of streamed transfers, so retries and
        #: producer failover resume instead of re-shipping the prefix.
        self.ledger = ChunkLedger()
        #: Simulated instants per fragment: first output chunk can leave
        #: its site (``out_start``; == ``ready`` unless pipelined),
        #: computation available (``ready``), output fully delivered.
        self.out_start: dict[int, float] = {}
        self.ready: dict[int, float] = {}
        self.delivered: dict[int, float] = {}
        #: Final successful output transfer per producer fragment.
        self.ship_records: dict[int, ShipRecord] = {}
        #: Latest committed reads per fragment (payload annotation).
        self._scan_reads: dict[int, tuple[ScanRead, ...]] = {}
        #: Sites a fragment has already failed at (never retried).
        self._excluded: dict[int, set[str]] = {}
        #: Payload descriptor per producer; it depends only on the
        #: fragment's content and scan sites, so only a replica-kind
        #: failover (which moves a scan) drops the entry.
        self._payload_cache: dict[int, dict] = {}

    def _compute(self, fragment: Fragment) -> tuple[RowBatch | ColumnBatch, float, int]:
        ship_results = {
            id(entry.ship): (
                self.wired[entry.producer][1]
                if entry.producer in self.wired
                else self.results[entry.producer][0]
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
        return out, seconds, self.metrics.operators_executed - before

    # -- scheduling loop ---------------------------------------------------------

    def execute(self) -> None:
        """Admit (fix the simulated start, absorbing faults) and then
        compute every fragment in topological order.  An unrecoverable
        injected fault records a :class:`PartialFailure` and stops the
        run; a genuine operator failure propagates."""
        for index in range(len(self.dag.fragments)):
            try:
                self._admit(index)
            except FaultError as error:
                self.metrics.partial_failure = PartialFailure(
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
        """Fix fragment ``index``'s simulated start (``ready[index]``) by
        delivering every input to its site, absorbing faults by retry and
        failover.  Raises :class:`FaultError` only when recovery is
        impossible, or :class:`DeadlineExceeded` once the clock passed
        the query's deadline (checked here, at admission boundaries)."""
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
            if self.deadline is not None and base > self.deadline:
                # Cooperative shedding, only *before* new WAN work: a
                # deadline passing while inputs are in flight lets the
                # fragment complete and the query arrive late.
                raise DeadlineExceeded(
                    f"fragment f{index} would start at t={base:.3f}s, past the "
                    f"query deadline of t={self.deadline:.3f}s",
                    deadline=self.deadline,
                    at=base,
                )
            if self.scheduler.faults.site_down(site, base):
                error = _site_down(site, base, f"is down at t={base:.3f}s")
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
                    # re-place the producer, which recomputes (freely on
                    # the simulated clock) once its inputs re-arrive.
                    producer = next(
                        entry.producer
                        for entry in fragment.inputs
                        if self.dag.fragments[entry.producer].location == error.site
                    )
                    not_before = self._failover(producer, error, error.at)
                continue
            except (TransferError, FragmentTimeoutError) as error:
                # A permanently dead or timed-out path into this site:
                # route around it by re-placing the consumer.
                not_before = self._failover(index, error, error.at)
                continue
            if self.scheduler.faults.site_down(site, start):
                # Died while its inputs were in flight: the buffered
                # records are discarded with the attempt.
                what = f"went down at t<={start:.3f}s while inputs were arriving"
                error = _site_down(site, start, what)
                not_before = self._failover(index, error, start)
                continue
            gated = False
            if self.freshness is not None:
                committed, when = self._freshness_gate(index, start)
                if not committed:
                    # Demoted: re-admit at the new site, which needs its
                    # own deliveries.
                    not_before = when
                    continue
                gated = when != start
                start = when
            self._commit_deliveries(index, start, records)
            # First-chunk admission: a pipelined body emits output once
            # its first input chunk landed; blocking bodies — and any a
            # freshness gate parked — only once fully ready.
            if (
                self.ship.streaming
                and fragment.inputs
                and not gated
                and all(isinstance(node, _STREAMABLE_OPS) for node in fragment.body())
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
        """Ship every input of fragment ``index`` to its current site:
        the instants the first chunk of every input and all of them have
        landed (neither earlier than ``floor``), and the per-producer
        records — *buffered*: the caller discards them when the attempt
        is abandoned, so only consumed deliveries reach the metrics."""
        fragment = self.dag.fragments[index]
        first_done = start = floor
        records: list[tuple[int, ShipRecord, float]] = []
        for entry in fragment.inputs:
            try:
                first, delivered, record = self._transfer(
                    entry.producer, fragment.location, not_before, consumer=index
                )
            except CircuitOpenError:
                self.metrics.breaker_fast_fails += 1
                raise
            records.append((entry.producer, record, delivered))
            first_done = max(first_done, first)
            start = max(start, delivered)
        return first_done, start, records

    def _commit_deliveries(
        self, index: int, start: float, records: list[tuple[int, ShipRecord, float]]
    ) -> None:
        """Fragment ``index`` starts at ``start`` having consumed these."""
        for producer, record, delivered in records:
            self.ship_records[producer] = record
            self.delivered[producer] = delivered
        self.ready[index] = start

    # -- runtime freshness ------------------------------------------------------

    def _freshness_gate(self, index: int, start: float) -> tuple[bool, float]:
        """Act on the freshness policy's verdict for fragment ``index``
        admitted at ``start``: ``(True, t')`` once its reads are
        committed at ``t'``, or ``(False, t)`` after a demotion re-placed
        it (re-admit from ``t``).  A hard demotion with no legal
        alternative raises :class:`ReplicaStaleError`."""
        verdict = self.freshness.admit(
            self.dag.fragments[index], start, self.policy.fragment_timeout
        )
        demotion = verdict.demotion
        if demotion is not None:
            ceiling = demotion.staleness if verdict.soft else None
            resume = self._failover(
                index, demotion, start, soft=verdict.soft, staleness_ceiling=ceiling
            )
            if resume is not None:
                return False, resume
        if verdict.at != start:  # parked until a refresh
            self.metrics.refresh_waits += 1
            self.metrics.refresh_wait_seconds += verdict.at - start
        self._commit_reads(index, verdict.reads)
        return True, verdict.at

    def _commit_reads(self, index: int, reads: tuple[ScanRead, ...]) -> None:
        """Account fragment ``index``'s base-table reads: the metrics
        trail and one ``scan_read`` trace event per read (a fragment
        recomputed after a failover contributes both reads)."""
        self._scan_reads[index] = reads
        self.metrics.scan_reads.extend(reads)
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

    # -- transfers ---------------------------------------------------------------

    def _transfer(
        self, producer: int, target: str, not_before: float, consumer: int
    ) -> tuple[float, float, ShipRecord]:
        """Deliver ``producer``'s output to ``target``: first-unit and
        full-delivery instants plus the transfer's record.  A streaming
        config on a cross-site edge sends one unit per wire chunk from
        the producer's first-output instant on the run-wide ledger;
        everything else is one unit once the producer is ready, on a
        throwaway ledger."""
        source = self.dag.fragments[producer].location
        batch = self.results[producer][0]
        if self.ship.active and producer not in self.wired:
            self.wired[producer] = wire_round_trip(batch, self.ship)
        wire = self.wired[producer][0] if self.ship.active else None
        chunked = wire is not None and self.ship.streaming and source != target
        ready = self.ready[producer]
        nbytes = logical_bytes(batch, wire)
        if chunked:
            ledger, sizes = self.ledger, wire.chunk_sizes
            first = self.out_start.get(producer, ready)
        else:
            ledger, first = ChunkLedger(), ready
            sizes = (nbytes if wire is None else wire.wire_bytes,)
        trace = attempt_tracer(
            self.recorder, producer, consumer, source, target, batch, wire,
            chunked, None if self.recorder is None else self._payload(producer),
        )
        done = transfer(
            producer, consumer, source, target, sizes,
            unit_instants(first, ready, len(sizes)), max(first, not_before),
            ledger, self.wan, self.policy, trace, chunked,
        )
        record = ShipRecord(
            source=source,
            target=target,
            rows=batch.nrows,
            bytes=nbytes,
            seconds=done.seconds,
            attempts=done.attempts,
            retry_wait_seconds=done.retry_wait_seconds,
            wire_bytes=None if wire is None else wire.wire_bytes,
            chunks=1 if wire is None else len(wire.chunks),
        )
        return done.first, done.delivered, record

    def _payload(self, producer: int) -> tuple[dict, float | None]:
        """The producer's payload descriptor for ship events, and the
        worst staleness its committed reads saw."""
        reads = self._scan_reads.get(producer)
        payload = self._payload_cache.get(producer)
        if payload is None:
            payload = encode_payload(self.dag.fragments[producer].root)
            if reads:  # a self-contained freshness claim for the auditor
                payload = annotate_payload_reads(payload, reads)
            self._payload_cache[producer] = payload
        staleness = max(r.staleness_seconds for r in reads) if reads else None
        return payload, staleness

    # -- failover ----------------------------------------------------------------

    def _failover(
        self,
        index: int,
        error: FaultError,
        detected: float,
        soft: bool = False,
        staleness_ceiling: float | None = None,
    ) -> float | None:
        """Re-place fragment ``index`` after ``error``, compliance checks
        included; returns the simulated instant work may resume.  With
        no legal placement the error is re-raised (→ partial failure),
        unless ``soft`` (a prefer-fresh demotion of an in-bound read):
        then ``None`` is returned and the read is committed as is."""
        metrics = self.metrics
        fragment = self.dag.fragments[index]
        excluded = self._excluded.setdefault(index, set())
        failover = None
        if len(metrics.recoveries) < self.MAX_RECOVERIES:
            unavailable = self.scheduler.faults.crashed_sites(detected) | excluded
            failover = self.planner.plan_failover(
                self.plan, self.dag, index, unavailable | {fragment.location},
                reason=str(error), at=detected, staleness_ceiling=staleness_ceiling,
            )
        if failover is None:
            if soft:
                return None
            raise error
        if not soft:
            # A soft demotion leaves the old site legal (its read was
            # within bound); hard failures never retry the failed site.
            excluded.add(fragment.location)
        self.plan = failover.plan
        self.dag = failover.dag
        if failover.kind == "replica":
            # The scan moved: re-derive the payload descriptor.
            self._payload_cache.pop(index, None)
            if isinstance(error, CircuitOpenError):
                metrics.replica_switches_breaker += 1
            if isinstance(error, SiteUnavailableError) and (
                error.site == failover.from_site
            ):
                # Its own scan site died: without a replica ℰ is a
                # singleton, so this avoided a guaranteed PartialFailure.
                metrics.partial_failures_avoided += 1
        staleness = error.staleness if isinstance(error, ReplicaStaleError) else None
        metrics.recoveries.append(
            RecoveryRecord(
                fragment_index=index,
                from_site=failover.from_site,
                to_site=failover.to_site,
                reason=failover.reason,
                at_seconds=detected,
                validated=failover.validated,
                kind=failover.kind,
                staleness_at_read=staleness,
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
                    staleness_at_read=staleness,
                )
            )
        resume = detected + self.policy.detection_seconds
        if index in self.results:
            # Its site died holding the computed data: recomputing costs
            # only the re-delivery of its inputs on the simulated clock.
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
            # The re-placed copy is re-read at the re-delivery instant.
            committed, start = self._freshness_gate(index, start)
            if not committed:
                # Demoted again: the nested failover already re-ran
                # this method for the newest site.
                return
        self._commit_deliveries(index, start, records)
        # Restarted from scratch once its inputs re-arrived: nothing to
        # stream from earlier.
        self.out_start[index] = start

    # -- accounting -------------------------------------------------------------

    def account(self) -> ExecutionMetrics:
        """Complete the run's metrics with the ship records and the
        simulated timeline, in fragment order."""
        metrics = self.metrics
        for fragment in self.dag.fragments:
            index = fragment.index
            record = self.ship_records.get(index)
            if record is not None:
                metrics.ships.append(record)
            if index not in self.results:
                continue  # never ran (aborted by a partial failure)
            batch, compute, operators = self.results[index]
            start = self.ready.get(index, 0.0)
            finish = self.delivered.get(index, start)
            clock = metrics.site_clock_seconds
            clock[fragment.location] = max(clock.get(fragment.location, 0.0), finish)
            metrics.fragments.append(
                FragmentRecord(
                    index=index,
                    location=fragment.location,
                    root=fragment.root.describe(),
                    operators=operators,
                    rows_out=batch.nrows,
                    compute_seconds=compute,
                    sim_start_seconds=start,
                    sim_finish_seconds=finish,
                    inputs=tuple(entry.producer for entry in fragment.inputs),
                    consumer=fragment.consumer,
                )
            )
        failure = metrics.partial_failure
        metrics.makespan_seconds = (
            self.delivered.get(self.dag.root_index, self.start_at)
            if failure is None
            else max([failure.at_seconds, self.start_at, *self.delivered.values()])
        )
        return metrics
