"""The four workloads: a world to build, a facade call to time per op,
and the untimed accounting and correctness check of what it returned.

A world is everything a fresh process pays for before steady state —
data, policies, optimizer, engines — and is driven only through the
system's public entry points.  ``run`` is the timed region and does
nothing but call the facade; ``account`` runs outside the timers and
derives the exact (simulated-clock and byte) numbers, and compares the
output with a reference computed once per world by ``prepare_checks``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro import tpch
from repro.errors import NonCompliantQueryError
from repro.execution import (
    ExecutionEngine,
    FaultPlan,
    LinkDown,
    RetryPolicy,
    ShipConfig,
    reference_plan,
)
from repro.optimizer import CompliantOptimizer, check_compliance, normalize
from repro.plan import LogicalSort, ship_operators
from repro.policy import PolicyEvaluator
from repro.server import BreakerRegistry, QueryRequest, QueryServer
from repro.sql import Binder
from repro.trace import ComplianceAuditor, TraceRecorder, parse_trace, tracing

from workloads import (
    EXEC_POLICY_SET,
    POLICY_SETS,
    ExecOp,
    OptimizeOp,
    ServeOp,
    Sizes,
    exec_ops,
    optimize_ops,
    serve_ops,
)

#: The machine has two cores: the fragment scheduler gets both and
#: nothing else in the harness runs threads.
MAX_WORKERS = 2
STREAM = ShipConfig(chunk_rows=256, compression="auto")
#: Execution ops must stay small enough that one pass fits the run.
MAX_OP_ROWS = 200_000


@dataclass
class Outcome:
    """What one op produced, in the units the end-to-end metrics use."""

    queries: int
    compliant: int
    sim_ms: float  # summed over the op's queries
    wire_bytes: float
    est_ms: float  # summed over the op's compliant queries
    #: Must be identical in every pass of the same op.
    exact: tuple
    error: str | None = None


def require(condition: bool, message: str) -> None:
    """A set-up condition the benchmark's numbers rest on."""
    if not condition:
        raise RuntimeError(f"benchmark set-up: {message}")


def same_rows(actual: list[tuple], expected: list[tuple], ordered: bool) -> bool:
    """Row equality against the reference plan's rows.  The reference
    joins in another order, so float sums may differ in the last bits:
    floats compare with a relative tolerance, everything else exactly."""
    if len(actual) != len(expected):
        return False
    if not ordered:
        actual, expected = sorted(actual, key=_row_key), sorted(expected, key=_row_key)
    return all(
        len(a) == len(e) and all(_same_value(x, y) for x, y in zip(a, e))
        for a, e in zip(actual, expected)
    )


def _row_key(row: tuple) -> str:
    return repr(tuple(f"{v:.6g}" if isinstance(v, float) else v for v in row))


def _same_value(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
    return type(x) is type(y) and x == y


def reference_rows(world: World, sql: str) -> list[tuple]:
    """Rows of the single-site reference plan — no optimizer, no SHIP —
    on the engine's defaults (sequential row executor), so that the
    oracle shares no kernel, codec or scheduler with the batch paths."""
    bound = Binder(world.catalog).bind_sql(sql)
    if isinstance(bound, LogicalSort):
        bound = replace(bound, child=normalize(bound.child))
    else:
        bound = normalize(bound)
    oracle = ExecutionEngine(world.database, world.network)
    return oracle.execute(reference_plan(bound)).rows


def plan_shape(plan) -> tuple:
    """Operators and their sites in walk order: equal for equal plans,
    and far cheaper than printing them."""
    return tuple((node.__class__.__name__, node.location) for node in plan.walk())


def estimated_ship_bytes(plan) -> int:
    """Bytes the site selector's estimate billed for ``plan``."""
    return sum(ship.estimated_bytes for ship in ship_operators(plan))


class World:
    """Interface of a workload (see module docstring)."""

    name: str
    ops: list
    #: Scales stamped into the output header.
    scales: dict[str, float]

    def build(self) -> None:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Reset whatever must be cold at the start of each pass."""

    def run(self, op):
        raise NotImplementedError

    def first_run(self, op):
        """``run`` as the warm-up pass calls it."""
        return self.run(op)

    def account(self, op, raw, warm: bool) -> Outcome:
        """``warm`` is True for timed passes (after the warm-up pass)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute references; called once per measured world, untimed."""

    def finish_warmup(self, outcomes: list[Outcome]) -> None:
        """Set-up assertions over the warm-up pass's outcomes."""


def _build_tpch(world: World) -> None:
    """Data at the world's scale, statistics at SF 1 (so plan choices
    do not depend on the scale the benchmark can afford)."""
    world.catalog, world.database = tpch.build_benchmark(
        scale=world.scales["tpch"], stats_scale=1.0
    )
    world.network = tpch.default_network()


def _build_executing(world: World) -> None:
    """What the executing and serving worlds share: data, the CR policy
    set and an optimizer whose plan cache holds the whole working set."""
    _build_tpch(world)
    world.policies = tpch.curated_policies(world.catalog, EXEC_POLICY_SET)
    world.optimizer = CompliantOptimizer(
        world.catalog, world.policies, world.network, plan_cache=True
    )


class OptimizeCold(World):
    name = "optimize_cold"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.ops: list[OptimizeOp] = optimize_ops(seed, sizes)
        self.scales = {"tpch": sizes.serve_scale, "stats": 1.0}

    def build(self) -> None:
        # Nothing executes here; data is still generated so that
        # ``setup_s`` covers datagen on every workload.
        _build_tpch(self)
        self.optimizers = {
            name: CompliantOptimizer(
                self.catalog,
                tpch.curated_policies(self.catalog, name),
                self.network,
                plan_cache=True,
            )
            for name in POLICY_SETS
        }
        for name, optimizer in self.optimizers.items():
            shapes = sum(op.policy_set == name for op in self.ops)
            require(shapes <= optimizer.plan_cache.capacity, "a cold pass would evict")

    def prepare_checks(self) -> None:
        # Independent of the optimizers' own evaluators and caches.
        self.checkers = {
            name: PolicyEvaluator(optimizer.policies)
            for name, optimizer in self.optimizers.items()
        }

    def start_pass(self) -> None:
        for optimizer in self.optimizers.values():
            optimizer.plan_cache.clear()

    def run(self, op: OptimizeOp):
        try:
            return self.optimizers[op.policy_set].optimize(op.sql)
        except NonCompliantQueryError:
            return None

    def account(self, op: OptimizeOp, raw, warm: bool) -> Outcome:
        if raw is None:
            return Outcome(1, 0, 0.0, 0.0, 0.0, exact=("rejected",))
        est_ms = raw.estimated_shipping_cost * 1000.0
        nbytes = estimated_ship_bytes(raw.plan)
        error = None
        if not raw.compliance_validated:
            error = "plan not validated at store time"
        elif not warm and check_compliance(raw.plan, self.checkers[op.policy_set]):
            error = "independent validator found a violation"
        # With nothing executed, the simulated response and the bytes
        # are the site selector's estimates.  Two distinct texts may
        # still prepare to one cache key, so a hit is no failure here —
        # but it must be the same hit in every pass.
        return Outcome(1, 1, est_ms, nbytes, est_ms,
                       exact=(plan_shape(raw.plan), est_ms, raw.cache_hit), error=error)


class _Exec(World):
    """Shared by the two executing workloads: same ops, scale and
    policies; the engine differs."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.ops: list[ExecOp] = exec_ops(seed, sizes)
        self.scales = {"tpch": sizes.exec_scale, "stats": 1.0}

    def make_engine(self) -> ExecutionEngine:
        raise NotImplementedError

    def build(self) -> None:
        _build_executing(self)
        require(len(self.ops) <= self.optimizer.plan_cache.capacity,
                "the working set must fit the plan cache")
        self.engine = self.make_engine()

    def prepare_checks(self) -> None:
        self.expected = {op.name: reference_rows(self, op.sql) for op in self.ops}

    def run(self, op: ExecOp):
        optimized = self.optimizer.optimize(op.sql)
        return optimized, self.engine.execute(optimized)

    def account(self, op: ExecOp, raw, warm: bool) -> Outcome:
        optimized, result = raw
        metrics = result.metrics
        sim = metrics.makespan_seconds if self.engine.parallel else metrics.shipping_seconds
        wire = metrics.total_wire_bytes_shipped
        est_ms = optimized.estimated_shipping_cost * 1000.0
        error = None
        if warm and not optimized.cache_hit:
            error = "plan cache miss on a warm pass"
        elif not result.ok:
            error = f"partial failure: {result.partial_failure}"
        elif len(result.rows) >= MAX_OP_ROWS:
            error = f"{len(result.rows)} rows: op too large for this benchmark"
        elif not same_rows(result.rows, self.expected[op.name], op.ordered):
            error = "rows differ from the reference plan's"
        cross_site = any(s.source != s.target for s in metrics.ships)
        return Outcome(
            1, 1, sim * 1000.0, wire, est_ms,
            exact=(len(result.rows), wire, sim, est_ms, cross_site),
            error=error,
        )

    def finish_warmup(self, outcomes: list[Outcome]) -> None:
        shipping = sum(o.exact[4] for o in outcomes)
        require(shipping >= 0.8 * len(outcomes), "too few ops cross a site boundary")


class ExecBatchStream(_Exec):
    name = "exec_batch_stream"

    def make_engine(self) -> ExecutionEngine:
        return ExecutionEngine(
            self.database,
            self.network,
            policy_guard=self.optimizer.evaluator,
            parallel=True,
            max_workers=MAX_WORKERS,
            executor="batch",
            ship=STREAM,
        )


class ExecRowSeq(_Exec):
    name = "exec_row_seq"

    def make_engine(self) -> ExecutionEngine:
        # The engine's defaults: row backend, sequential, monolithic.
        return ExecutionEngine(
            self.database, self.network, policy_guard=self.optimizer.evaluator
        )


class ServeFaultedTraced(World):
    name = "serve_faulted_traced"
    CONCURRENCY = 2
    RETRIES = RetryPolicy(max_retries=8)

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.queries: list[ExecOp] = exec_ops(seed, sizes)
        self.ops: list[ServeOp] = serve_ops(seed, sizes, self.queries)
        self.scales = {"tpch": sizes.serve_scale, "stats": 1.0}

    def build(self) -> None:
        _build_executing(self)
        self.auditor = ComplianceAuditor(self.policies)
        # Warm the shared plan cache with every query a batch can draw,
        # and learn which links each plan uses so that fault windows
        # land on links the batch actually ships over.
        used = sorted({index for op in self.ops for _, index, _ in op.requests})
        require(len(used) <= self.optimizer.plan_cache.capacity,
                "the working set must fit the plan cache")
        self.est_ms: dict[int, float] = {}
        self.links: dict[int, set[tuple[str, str]]] = {}
        for index in used:
            optimized = self.optimizer.optimize(self.queries[index].sql)
            self.est_ms[index] = optimized.estimated_shipping_cost * 1000.0
            self.links[index] = {(s.source, s.target) for s in ship_operators(optimized.plan)}
        self.requests = {
            op.name: [
                QueryRequest(sql=self.queries[index].sql, arrival=arrival, name=label)
                for label, index, arrival in op.requests
            ]
            for op in self.ops
        }
        self.faults: dict[str, FaultPlan] = {}

    def first_run(self, op: ServeOp):
        """The warm-up run also settles the op's fault plan: the first
        from ``op.fault_seed`` onwards under which the whole batch is
        served.  An open breaker on a scan fragment's only link is a
        partial failure by design, so not every drawn plan is
        recoverable; the simulation is deterministic, so the search is
        too."""
        pairs = sorted(set().union(*(self.links[index] for _, index, _ in op.requests)))
        for attempt in range(32):
            self.faults[op.name] = self._fault_plan(op.fault_seed + attempt, pairs)
            raw = self.run(op)
            if raw[0].metrics.served == len(op.requests):
                return raw
        raise RuntimeError(f"{op.name}: no recoverable fault plan in 32 draws")

    def _fault_plan(self, seed: int, pairs: list[tuple[str, str]]) -> FaultPlan:
        """Transient ``flaky``/``slow`` windows (``random:SEED``'s
        generator) plus one short ``drop`` window, all on links the
        batch uses: every fault is one a retry outlasts."""
        plan = FaultPlan.random(seed, self.catalog.locations, pairs=pairs or None)
        if pairs:
            rng = random.Random(seed)
            source, target = rng.choice(pairs)
            plan.add(
                LinkDown(source, target, at=round(rng.uniform(0.0, 0.1), 3),
                         duration=round(rng.uniform(0.02, 0.1), 3))
            )
        return plan

    def prepare_checks(self) -> None:
        self.expected = {
            index: reference_rows(self, self.queries[index].sql) for index in self.est_ms
        }

    def serve(self, op: ServeOp):
        """One fresh server draining the op's batch under its fault plan."""
        server = QueryServer(
            self.database,
            self.network,
            optimizer=self.optimizer,
            evaluator=self.optimizer.evaluator,
            concurrency=self.CONCURRENCY,
            breakers=BreakerRegistry(),
            faults=self.faults[op.name],
            retry_policy=self.RETRIES,
            executor="batch",
            max_workers=MAX_WORKERS,
            ship=STREAM,
        )
        return server.serve(self.requests[op.name])

    def run(self, op: ServeOp):
        recorder = TraceRecorder()
        with tracing(recorder):
            served = self.serve(op)
        text = recorder.to_jsonl()
        report = self.auditor.audit_events(parse_trace(text))
        return served, text, report

    def account(self, op: ServeOp, raw, warm: bool) -> Outcome:
        served, text, report = raw
        metrics = served.metrics
        error = None
        sim = 0.0
        statuses = []
        for (label, index, arrival), outcome in zip(op.requests, served.outcomes):
            require(outcome.request.name == label, "outcomes are not in request order")
            statuses.append(outcome.status)
            if outcome.status != "served":
                error = error or f"{label}: {outcome.status}: {outcome.error}"
                continue
            sim += outcome.finished_at - arrival
            query = self.queries[index]
            if not same_rows(outcome.rows, self.expected[index], query.ordered):
                error = error or f"{label}: rows differ from the reference plan's"
        if not metrics.reconciles():
            error = error or "server metrics do not reconcile"
        if not report.ok:
            error = error or f"audit: {report.violations[0]}"
        if warm and metrics.plan_cache_misses:
            error = error or "plan cache miss on a warm pass"
        est = sum(self.est_ms[index] for _, index, _ in op.requests)
        return Outcome(
            len(op.requests), metrics.served, sim * 1000.0,
            metrics.wire_bytes_shipped, est,
            exact=(tuple(statuses), metrics.wire_bytes_shipped, sim, len(text),
                   report.attempts, report.chunk_attempts, metrics.transfer_attempts),
            error=error,
        )


WORLDS = {
    cls.name: cls for cls in (OptimizeCold, ExecBatchStream, ExecRowSeq, ServeFaultedTraced)
}
