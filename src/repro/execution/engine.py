"""Query execution engine with an optional runtime compliance guard.

The engine executes located physical plans against a
:class:`~repro.geo.GeoDatabase`, simulating cross-site transfers under
the network cost model.  When constructed with a policy evaluator it acts
as the last line of defense (paper Figure 2's query executor only runs
plans the optimizer accepted; here we additionally *verify*): a plan that
would ship restricted data is refused with
:class:`~repro.errors.ComplianceViolationError` before any data moves.

Every run goes through the fragment scheduler
(:mod:`repro.execution.scheduler`): the plan is cut at SHIP boundaries
into per-site fragments (:mod:`repro.execution.fragments`), run one
after another in topological order while an event-driven simulation
overlaps them on the simulated clock.  A run reports both cost views —
``shipping_seconds``, the sum of SHIP transfer times, and
``makespan_seconds``, the critical-path response time under the
``α + β·bytes`` model — and fault injection and runtime freshness
checking work on every engine.

``executor`` selects the operator backend: ``"row"`` (tuple-at-a-time,
the default) or ``"batch"`` (columnar with compiled batch kernels,
:mod:`repro.execution.vectorized`) — row-identical by construction; see
docs/EXECUTION.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..geo import GeoDatabase, NetworkModel, synthetic_network
from ..optimizer.validator import guarded_plan
from ..plan import PhysicalPlan
from ..policy import PolicyEvaluator
from ..trace import current_recorder
from .faults import FaultPlan
from .freshness import FreshnessPolicy
from .metrics import ExecutionMetrics, PartialFailure
from .recovery import RetryPolicy
from .scheduler import FragmentScheduler, validate_executor_name, validate_worker_count
from .wire import ShipConfig


@dataclass
class ExecutionResult:
    """Rows plus everything measured while producing them."""

    columns: list[str]
    rows: list[tuple]
    metrics: ExecutionMetrics
    seconds: float  # wall-clock local compute time (not simulated WAN time)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def simulated_cost(self) -> float:
        """The paper's execution-cost metric: total simulated transfer
        time of all SHIPs under the α + β·bytes model."""
        return self.metrics.shipping_seconds

    @property
    def makespan_seconds(self) -> float:
        """Simulated critical-path response time of the fragment
        schedule."""
        return self.metrics.makespan_seconds

    @property
    def partial_failure(self) -> PartialFailure | None:
        """Set when injected faults made the query unrecoverable (the
        rows are then empty); ``None`` for every completed query."""
        return self.metrics.partial_failure

    @property
    def ok(self) -> bool:
        return self.metrics.partial_failure is None


class ExecutionEngine:
    """Executes physical plans over geo-distributed in-memory data."""

    def __init__(
        self,
        database: GeoDatabase,
        network: NetworkModel | None = None,
        policy_guard: PolicyEvaluator | None = None,
        parallel: bool = False,
        max_workers: int | None = None,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        executor: str = "row",
        freshness: "FreshnessPolicy | None" = None,
        ship: "ShipConfig | None" = None,
    ) -> None:
        validate_worker_count(max_workers)  # accepted, never used
        self.database = database
        self.network = network or synthetic_network(database.catalog.locations)
        self.policy_guard = policy_guard
        #: Like ``max_workers``, accepted and stored only for the
        #: performance ledger's call sites; nothing in the engine reads it.
        self.parallel = parallel
        self.faults = faults
        self.retry_policy = retry_policy
        self.executor = validate_executor_name(executor)
        self.freshness = freshness
        #: Wire format every SHIP edge uses.  Default: legacy monolithic
        #: uncompressed transfers.
        self.ship = ship or ShipConfig()

    def execute(self, plan: "PhysicalPlan | Any") -> ExecutionResult:
        """Run ``plan``; raises :class:`ComplianceViolationError` when a
        policy guard is installed and the plan is non-compliant.

        ``plan`` may also be an
        :class:`~repro.optimizer.compliant.OptimizationResult`: when the
        optimizer (plan cache) already validated the plan *with this
        engine's own guard evaluator*, the per-run guard re-check is
        skipped — that is what makes a warm cache hit skip compliance
        machinery end to end without weakening the guard for any other
        plan source.
        """
        plan = guarded_plan(plan, self.policy_guard, "execute")
        recorder = current_recorder()
        query = None
        if recorder is not None:
            query = recorder.begin_query(executor=self.executor)
        start = time.perf_counter()
        scheduler = FragmentScheduler(
            self.database,
            self.network,
            faults=self.faults,
            retry_policy=self.retry_policy,
            compliance_guard=self.policy_guard,
            executor=self.executor,
            freshness=self.freshness,
            ship=self.ship,
        )
        try:
            (columns, rows), metrics = scheduler.run(plan)
        except BaseException:
            if recorder is not None:
                recorder.end_query(query, at=0.0, status="error")
            raise
        elapsed = time.perf_counter() - start
        metrics.rows_output = len(rows)
        if recorder is not None:
            recorder.end_query(
                query,
                at=metrics.makespan_seconds,
                status="ok" if metrics.partial_failure is None else "partial",
                rows=len(rows),
                makespan=metrics.makespan_seconds,
            )
        return ExecutionResult(
            columns=columns, rows=rows, metrics=metrics, seconds=elapsed
        )
