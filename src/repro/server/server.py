"""The query server: concurrent serving on the shared simulated clock.

:class:`QueryServer` drains a workload of :class:`QueryRequest`\\ s
through a deterministic discrete-event loop:

* **One shared simulated clock.**  Requests arrive at their workload
  instants; a dispatched query executes through the fragment scheduler
  with its clock *offset* to the dispatch instant
  (``FragmentScheduler.run(plan, start_at=t)``), so fault windows,
  breaker states, and deadlines are all consulted at global times and
  service windows of concurrent queries genuinely overlap on the
  simulated timeline.  (Each query's fragments are computed one after
  another on the calling thread; only the *WAN* is simulated.)
* **Admission control.**  At most ``concurrency`` queries are in
  service at once; waiting requests sit in a bounded priority queue
  (``queue_depth``); per-site in-flight fragment limits
  (``site_inflight``) keep any one site from being buried.  A request
  arriving to a full queue is refused with a typed
  :class:`~repro.errors.AdmissionRejected` — immediately, rather than
  timing out the caller later.
* **Deadline-based load shedding.**  A queued request whose deadline
  passes before dispatch is shed without running; a running query is
  cancelled cooperatively at the next fragment-admission boundary (the
  scheduler raises :class:`~repro.errors.DeadlineExceeded` before
  admitting another fragment).
* **Per-link circuit breakers.**  With a
  :class:`~repro.server.BreakerRegistry`, every transfer outcome of
  every query feeds the link's breaker; an open breaker fast-fails
  transfers (no retry storm) and pushes execution into
  compliance-preserving failover instead.

Determinism: all decisions are made in event order on the simulated
clock — no wall-clock reads, no randomness.  Overlapping queries are
*executed* sequentially in dispatch order, so breaker evidence recorded
by an earlier-dispatched query is visible to later-dispatched queries
(filtered to events at or before their own attempt instants); evidence
from a later-dispatched query is not visible to an earlier one even for
attempt instants after it.  This one-directional visibility is the
price of exact reproducibility and is documented in
docs/ROBUSTNESS.md §7.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from ..errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ReproError,
)
from ..execution.faults import FaultPlan
from ..execution.fragments import fragment_plan
from ..execution.metrics import ExecutionMetrics
from ..execution.recovery import RetryPolicy
from ..execution.scheduler import FragmentScheduler
from ..execution.wire import ShipConfig
from ..geo import GeoDatabase, NetworkModel
from ..optimizer.validator import guarded_plan
from ..plan import PhysicalPlan
from ..trace import current_recorder
from ..validation import validate_positive_int, validate_timeout
from .breaker import BreakerRegistry
from .metrics import ServerMetrics
from .request import QueryRequest

#: Outcome bucket names, in reporting order.
STATUSES = ("served", "shed", "rejected", "partial")


@dataclass
class QueryOutcome:
    """What happened to one request."""

    request: QueryRequest
    status: str  # one of STATUSES
    #: Typed error for shed/rejected/partial outcomes (None when served).
    error: ReproError | None = None
    columns: list[str] | None = None
    rows: list[tuple] | None = None
    #: Simulated instants on the shared clock (None when never started).
    started_at: float | None = None
    finished_at: float | None = None
    #: Per-query execution metrics (None when never started).
    metrics: ExecutionMetrics | None = None
    #: Served, but past the caller's deadline.
    late: bool = False

    @property
    def queue_wait_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.request.arrival)

    def describe(self) -> str:
        label = self.request.label
        if self.status == "served":
            late = " (LATE)" if self.late else ""
            return (
                f"{label}: served {len(self.rows or [])} rows{late} "
                f"[t={self.started_at:.3f}s -> {self.finished_at:.3f}s]"
            )
        return f"{label}: {self.status.upper()} — {self.error}"


@dataclass
class ServeResult:
    """Everything one ``serve()`` run produced, in workload order."""

    outcomes: list[QueryOutcome]
    metrics: ServerMetrics
    breakers: BreakerRegistry | None = None

    def by_status(self, status: str) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.status == status]


@dataclass(order=True)
class _Event:
    """Heap entry: completions sort before arrivals at equal instants so
    freed capacity admits same-instant arrivals."""

    when: float
    kind: int  # 0 = completion, 1 = arrival
    seq: int
    payload: object = field(compare=False)


class QueryServer:
    """Serves query workloads concurrently over the simulated WAN."""

    def __init__(
        self,
        database: GeoDatabase,
        network: NetworkModel,
        optimizer=None,  # object with .optimize(sql) -> result with .plan
        evaluator=None,  # PolicyEvaluator | None — compliance guard
        concurrency: int = 4,
        queue_depth: int = 16,
        site_inflight: int | None = None,
        default_deadline: float | None = None,
        breakers: BreakerRegistry | None = None,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        executor: str = "row",
        max_workers: int | None = None,
        freshness=None,  # FreshnessPolicy | None — runtime staleness checks
        ship: ShipConfig | None = None,
    ) -> None:
        self.database = database
        self.network = network
        self.optimizer = optimizer
        self.evaluator = evaluator
        self.concurrency = validate_positive_int(concurrency, "concurrency")
        self.queue_depth = validate_positive_int(queue_depth, "queue depth")
        self.site_inflight = (
            None
            if site_inflight is None
            else validate_positive_int(site_inflight, "site in-flight limit")
        )
        self.default_deadline = validate_timeout(default_deadline, "deadline")
        self.breakers = breakers
        self.scheduler = FragmentScheduler(
            database,
            network,
            max_workers=max_workers,
            faults=faults,
            retry_policy=retry_policy,
            compliance_guard=evaluator,
            executor=executor,
            breakers=breakers,
            freshness=freshness,
            ship=ship,
        )

    # -- planning ---------------------------------------------------------------

    def _plan_for(self, request: QueryRequest) -> PhysicalPlan:
        if request.plan is not None:
            return request.plan
        if self.optimizer is None:
            raise ReproError(
                "QueryServer needs an optimizer for SQL requests (or "
                "requests carrying pre-built plans)"
            )
        # Optimize and guard per request: a located plan is only as
        # current as the policy catalog it was checked against, so none
        # is kept here across requests.  (A compliant plan cache on the
        # optimizer makes this a cheap hit and invalidates precisely on
        # policy reloads.)  ``serve`` calls this once per request and
        # keeps the plan while the request waits for capacity — no
        # reload can happen inside one synchronous ``serve`` call.
        return guarded_plan(
            self.optimizer.optimize(request.sql), self.evaluator, "serve"
        )

    # -- the event loop ---------------------------------------------------------

    def serve(self, requests: list[QueryRequest]) -> ServeResult:
        """Drain ``requests`` and return per-query outcomes plus
        aggregate :class:`ServerMetrics` (which always reconcile to
        ``len(requests)``).  Genuine operator bugs propagate; every
        load/WAN outcome is a typed result, never an exception."""
        metrics = ServerMetrics(total=len(requests))
        plan_cache = getattr(self.optimizer, "plan_cache", None)
        cache_before = (
            plan_cache.stats.snapshot() if plan_cache is not None else None
        )
        outcomes: dict[int, QueryOutcome] = {}
        events: list[_Event] = []
        seq = 0
        for index, request in enumerate(
            sorted(requests, key=lambda r: r.arrival)
        ):
            events.append(_Event(request.arrival, 1, seq, (index, request)))
            seq += 1
        heapq.heapify(events)

        #: Waiting room, kept sorted by (-priority, arrival, index).
        queue: list[tuple[int, float, int, QueryRequest]] = []
        running: dict[int, Counter] = {}  # index -> fragments per site
        #: Plan and per-site fragment counts of each request planned but
        #: not yet dispatched (a blocked queue head is planned once).
        planned: dict[int, tuple[PhysicalPlan, Counter]] = {}
        inflight: Counter = Counter()
        last_event = max((r.arrival for r in requests), default=0.0)

        def can_start(sites: Counter) -> bool:
            if len(running) >= self.concurrency:
                return False
            if self.site_inflight is not None:
                for site, count in sites.items():
                    if inflight[site] + count > self.site_inflight:
                        return False
            return True

        def dispatch(now: float) -> None:
            """Start queued queries while capacity allows, in priority
            order; head-of-line blocking keeps dispatch deterministic."""
            nonlocal seq, last_event
            while queue:
                _, _, index, request = queue[0]
                absolute = request.absolute_deadline(self.default_deadline)
                if absolute is not None and now > absolute:
                    heapq.heappop(queue)
                    planned.pop(index, None)
                    error = DeadlineExceeded(
                        f"request {request.label!r} spent "
                        f"{now - request.arrival:.3f}s queued, past its "
                        f"deadline of t={absolute:.3f}s",
                        deadline=absolute,
                        at=now,
                    )
                    outcomes[index] = QueryOutcome(
                        request=request, status="shed", error=error
                    )
                    recorder = current_recorder()
                    if recorder is not None:
                        recorder.record_request(
                            "shed", request.label, at=now, detail=str(error)
                        )
                    continue
                if index not in planned:
                    plan = self._plan_for(request)
                    planned[index] = (
                        plan,
                        Counter(f.location for f in fragment_plan(plan).fragments),
                    )
                plan, sites = planned[index]
                if not can_start(sites):
                    return
                heapq.heappop(queue)
                del planned[index]
                outcome = self._execute(index, request, plan, now, absolute)
                outcomes[index] = outcome
                finish = outcome.finished_at if outcome.finished_at is not None else now
                last_event = max(last_event, finish)
                running[index] = sites
                inflight.update(sites)
                heapq.heappush(events, _Event(finish, 0, seq, index))
                seq += 1

        while events:
            event = heapq.heappop(events)
            now = event.when
            if event.kind == 0:  # completion: release capacity
                index = event.payload
                inflight.subtract(running.pop(index))
                dispatch(now)
                continue
            index, request = event.payload
            recorder = current_recorder()
            if recorder is not None:
                recorder.record_request("arrival", request.label, at=now)
            if len(queue) >= self.queue_depth:
                error = AdmissionRejected(
                    f"request {request.label!r} rejected at "
                    f"t={now:.3f}s: waiting queue is full "
                    f"({self.queue_depth} requests)",
                    queue_depth=self.queue_depth,
                )
                outcomes[index] = QueryOutcome(
                    request=request, status="rejected", error=error
                )
                if recorder is not None:
                    recorder.record_request(
                        "rejected", request.label, at=now, detail=str(error)
                    )
                continue
            heapq.heappush(queue, (-request.priority, request.arrival, index, request))
            dispatch(now)

        assert not queue and not running and not planned  # the loop drains everything
        final = self._account(metrics, outcomes, last_event)
        if cache_before is not None:
            after = plan_cache.stats
            final.plan_cache_hits = after.hits - cache_before.hits
            final.plan_cache_misses = after.misses - cache_before.misses
            final.plan_cache_invalidations = (
                after.invalidations - cache_before.invalidations
            )
        return ServeResult(
            outcomes=[outcomes[i] for i in sorted(outcomes)],
            metrics=final,
            breakers=self.breakers,
        )

    # -- execution of one dispatched query --------------------------------------

    def _execute(
        self,
        index: int,
        request: QueryRequest,
        plan: PhysicalPlan,
        now: float,
        absolute_deadline: float | None,
    ) -> QueryOutcome:
        recorder = current_recorder()
        query = None
        if recorder is not None:
            query = recorder.begin_query(
                label=request.label, at=now, executor=self.scheduler.executor
            )
        try:
            batch, run_metrics = self.scheduler.run(
                plan, start_at=now, deadline=absolute_deadline
            )
        except DeadlineExceeded as error:
            # Cooperative cancellation at a fragment boundary; the
            # capacity the query held is released at the shed instant.
            shed_at = error.at if error.at is not None else now
            if recorder is not None:
                recorder.record_request(
                    "shed", request.label, at=shed_at, detail=str(error)
                )
                recorder.end_query(query, at=shed_at, status="shed")
            return QueryOutcome(
                request=request,
                status="shed",
                error=error,
                started_at=now,
                finished_at=shed_at,
            )
        finished = max(now, run_metrics.makespan_seconds)
        if run_metrics.partial_failure is not None:
            failure = run_metrics.partial_failure
            if recorder is not None:
                recorder.record_request(
                    "partial", request.label, at=finished, detail=str(failure)
                )
                recorder.end_query(
                    query,
                    at=finished,
                    status="partial",
                    makespan=run_metrics.makespan_seconds,
                )
            return QueryOutcome(
                request=request,
                status="partial",
                error=PartialFailureError(str(failure)),
                started_at=now,
                finished_at=finished,
                metrics=run_metrics,
            )
        late = absolute_deadline is not None and finished > absolute_deadline
        if recorder is not None:
            recorder.record_request(
                "served_late" if late else "served", request.label, at=finished
            )
            recorder.end_query(
                query,
                at=finished,
                status="ok",
                rows=len(batch.rows),
                makespan=run_metrics.makespan_seconds,
            )
        return QueryOutcome(
            request=request,
            status="served",
            columns=batch.columns,
            rows=batch.rows,
            started_at=now,
            finished_at=finished,
            metrics=run_metrics,
            late=late,
        )

    # -- accounting -------------------------------------------------------------

    def _account(
        self,
        metrics: ServerMetrics,
        outcomes: dict[int, QueryOutcome],
        last_event: float,
    ) -> ServerMetrics:
        for outcome in outcomes.values():
            if outcome.status == "served":
                metrics.served += 1
                metrics.served_late += outcome.late
            elif outcome.status == "shed":
                metrics.shed += 1
            elif outcome.status == "rejected":
                metrics.rejected += 1
            else:
                metrics.partial += 1
            metrics.queue_wait_seconds += outcome.queue_wait_seconds
            if outcome.metrics is not None:
                metrics.service_seconds += outcome.metrics.service_seconds
                metrics.retry_wait_seconds += outcome.metrics.retry_wait_seconds
                metrics.transfer_attempts += outcome.metrics.transfer_attempts
                metrics.breaker_fast_fails += outcome.metrics.breaker_fast_fails
                metrics.recoveries += len(outcome.metrics.recoveries)
                metrics.replica_failovers += outcome.metrics.replica_failovers
                metrics.replica_switches_breaker += (
                    outcome.metrics.replica_switches_breaker
                )
                metrics.partial_failures_avoided += (
                    outcome.metrics.partial_failures_avoided
                )
                metrics.stale_reads += outcome.metrics.stale_reads
                metrics.refresh_waits += outcome.metrics.refresh_waits
                metrics.refresh_wait_seconds += (
                    outcome.metrics.refresh_wait_seconds
                )
                metrics.freshness_demotions += (
                    outcome.metrics.freshness_demotions
                )
                metrics.logical_bytes_shipped += (
                    outcome.metrics.total_bytes_shipped
                )
                metrics.wire_bytes_shipped += (
                    outcome.metrics.total_wire_bytes_shipped
                )
                metrics.chunks_shipped += outcome.metrics.total_chunks_shipped
        metrics.finished_at_seconds = last_event
        if self.breakers is not None:
            metrics.breaker_trips = self.breakers.total_trips()
            metrics.breaker_states = self.breakers.snapshot()
        return metrics


class PartialFailureError(ReproError):
    """Typed wrapper carrying a :class:`~repro.execution.PartialFailure`
    description on a :class:`QueryOutcome` — so every non-served
    outcome exposes a ``ReproError`` under ``outcome.error``."""
