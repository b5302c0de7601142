"""The traced run: per-layer times and counts, taken from outside.

The facades (``optimize``, ``execute``, ``serve``) call their layers
internally, so the harness cannot put a span around a layer *inside* a
facade call without editing the program.  Instead, after each timed
facade call the harness **mirrors** the op: it calls the same layers'
public functions one at a time, on its own instances (own plan cache,
own policy evaluator — so the mirror meets the same cache states the
facade met), wraps each call in an in-memory span, and checks that the
mirrored plan and rows equal the facade's.  Layer times are per-query
means of each op's best-of-P; counts are exact.  Derived self-times
(``*.overhead_ms``) subtract mirrored children from a mirrored parent
and may be negative when the children overlap on two workers.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from repro import tpch
from repro.errors import NonCompliantQueryError
from repro.execution import (
    ExecutionEngine,
    FragmentScheduler,
    ShipConfig,
    encode_ship,
    fragment_plan,
)
from repro.optimizer import (
    PlanAnnotator,
    PlanCache,
    SiteSelector,
    check_compliance,
    default_rules,
    normalize,
)
from repro.plan import LogicalSort, Ship, Sort
from repro.policy import PolicyEvaluator
from repro.sql import Binder, parse_query
from repro.trace import TraceRecorder, parse_trace, tracing

from measure import Failures, calibrate, check_budget, set_up
from spec import PER_LAYER
from workloads import Sizes
from worlds import (
    MAX_WORKERS,
    STREAM,
    OptimizeCold,
    ServeFaultedTraced,
    World,
    _Exec,
    plan_shape,
)


class MirrorMismatch(Exception):
    """A mirrored layer call disagreed with the facade's output."""


class Tracer:
    """Spans of the current pass, in memory, plus per-op layer totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, op, parent, start, end]
        #: layer -> seconds spent in it by the op being mirrored.
        self.layer_seconds: dict[str, float] = defaultdict(float)
        self.op = ""
        self.parent: int | None = None

    def begin(self, name: str) -> int:
        self.spans.append([name, self.op, self.parent, time.perf_counter(), None])
        return len(self.spans) - 1

    def end(self, span: int) -> float:
        record = self.spans[span]
        record[4] = time.perf_counter()
        return record[4] - record[3]

    def call(self, layer: str, fn, *args, **kwargs):
        """``fn(*args)`` inside a span charged to ``layer``."""
        span = self.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.layer_seconds[layer] += self.end(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, op, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "parent": parent, "name": name,
                                      "op": op, "start": start, "end": end}) + "\n")


class OptimizerMirror:
    """``CompliantOptimizer.optimize`` as its public layer calls."""

    def __init__(self, optimizer) -> None:
        catalog = optimizer.catalog
        self.binder = Binder(catalog)
        self.evaluator = PolicyEvaluator(optimizer.policies)
        # No evaluator on the cache: store() then does not validate,
        # so validation is timed once, as its own layer.
        self.cache = PlanCache(optimizer.policies)
        self.annotator = PlanAnnotator(
            cost_model=optimizer.cost_model,
            evaluator=self.evaluator,
            all_locations=frozenset(catalog.locations),
            rules=default_rules(False),
            catalog=catalog,
        )
        self.selector = SiteSelector(optimizer.network)

    def optimize(self, tracer: Tracer, counts: dict, sql: str):
        """The located plan, or ``None`` when the query is rejected."""
        bound = tracer.call("sql.bind_ms", self.binder.bind, tracer.call("sql.parse_ms", parse_query, sql))
        prepared = tracer.call("plancache.prepare_ms", self.cache.prepare, bound)
        entry = tracer.call("plancache.lookup_ms", self.cache.lookup, prepared)
        if entry is not None:
            return tracer.call("plancache.rebind_ms", self.cache.rebind, entry, prepared)
        core, sort = (bound.child, bound) if isinstance(bound, LogicalSort) else (bound, None)
        dependencies: set[int] = set()
        with self.evaluator.collecting_dependencies(dependencies):
            core = tracer.call("optimizer.normalize_ms", normalize, core)
            try:
                annotated = tracer.call(
                    "optimizer.annotate_ms", self.annotator.annotate, core, pre_normalized=True
                )
            except NonCompliantQueryError:
                counts["optimizer.rejected"] += 1
                return None
            counts["optimizer.memo_groups"] += annotated.group_count
            counts["optimizer.memo_expressions"] += annotated.expression_count
            counts["optimizer.rule_firings"] += annotated.explore_stats.rule_firings
            selection = tracer.call("optimizer.site_select_ms", self.selector.select, annotated.root)
            plan = selection.plan
            if sort is not None:
                plan = Sort(fields=plan.fields, location=plan.location,
                            estimated_rows=plan.estimated_rows, child=plan,
                            sort_keys=sort.sort_keys, limit=sort.limit)
            if tracer.call("optimizer.validate_ms", check_compliance, plan, self.evaluator):
                raise MirrorMismatch("mirrored plan is not compliant")
            tracer.call(
                "plancache.store_ms", self.cache.store, prepared, None, plan=plan,
                normalized=core, annotate=annotated, selection=selection,
                dependencies=dependencies,
            )
        return plan


class ExecutionMirror:
    """One located plan through fragmenting, sequential compute, the
    wire codec on every SHIP payload, and the standalone scheduler."""

    def __init__(self, world: World, backend: str, ship: ShipConfig, scheduled: bool) -> None:
        self.world = world
        self.ship = ship
        self.scheduled = scheduled
        self.compute_layer = "operators.compute_ms" if backend == "row" else "vectorized.compute_ms"
        # Sequential, no codec, no guard: operator compute alone.
        self.sequential = ExecutionEngine(world.database, world.network, executor=backend)
        #: plan key -> [(columns, rows, logical bytes)] per SHIP, obtained
        #: once by executing each Ship's child subtree untimed.
        self.payloads: dict[str, list[tuple]] = {}

    def execute(self, tracer: Tracer, counts: dict, key: str, plan, faults=None, retries=None,
                start_at: float = 0.0):
        dag = tracer.call("fragments.split_ms", fragment_plan, plan)
        counts["fragments.per_query"] += len(dag.fragments)
        result = tracer.call(self.compute_layer, self.sequential.execute, plan)
        counts["operators.rows_scanned"] += result.metrics.rows_scanned
        counts["operators.executed"] += result.metrics.operators_executed
        counts["fragments.ships_per_query"] += len(result.metrics.ships)
        logical = result.metrics.total_bytes_shipped
        counts["wire.logical_bytes"] += logical
        if not self.ship.active:
            counts["wire.wire_bytes"] += logical
            counts["wire.chunks"] += len(result.metrics.ships)
        else:
            if key not in self.payloads:
                self.payloads[key] = [
                    (out.columns, out.rows, encode_ship(out.columns, out.rows).logical_bytes)
                    for out in (self.sequential.execute(node.child)
                                for node in plan.walk() if isinstance(node, Ship))
                ]
            for columns, rows, nbytes in self.payloads[key]:
                transfer = tracer.call("wire.encode_ms", encode_ship, columns, rows,
                                       logical_bytes=nbytes, config=self.ship)
                decoded = tracer.call("wire.decode_ms", transfer.decode_rows)
                if decoded != rows:
                    raise MirrorMismatch("wire round trip changed the rows")
                counts["wire.wire_bytes"] += transfer.wire_bytes
                counts["wire.chunks"] += len(transfer.chunks)
        if self.scheduled:
            scheduler = FragmentScheduler(
                self.world.database, self.world.network, max_workers=MAX_WORKERS,
                faults=faults, retry_policy=retries,
                compliance_guard=self.world.optimizer.evaluator, executor="batch",
                ship=self.ship,
            )
            (_, rows), metrics = tracer.call("scheduler.run_ms", scheduler.run, plan,
                                             start_at=start_at)
            if metrics.partial_failure is None and rows != result.rows:
                raise MirrorMismatch("scheduler rows differ from sequential rows")
            counts["scheduler.fragments_run"] += len(metrics.fragments)
            counts["scheduler.transfer_attempts"] += metrics.transfer_attempts
            counts["scheduler.retries"] += (
                metrics.transfer_attempts - metrics.total_chunks_shipped
            )
            counts["scheduler.recoveries"] += len(metrics.recoveries)
            counts["scheduler.retry_wait_sim_ms"] += metrics.retry_wait_seconds * 1000.0
            counts["network.sim_transfer_ms"] += metrics.shipping_seconds * 1000.0
        else:
            counts["network.sim_transfer_ms"] += result.metrics.shipping_seconds * 1000.0
        return result


# -- one mirror per workload ---------------------------------------------------------


class OptimizeMirror:
    def __init__(self, world: OptimizeCold) -> None:
        self.world = world
        self.facades = list(world.optimizers.values())
        self.optimizers = {name: OptimizerMirror(opt) for name, opt in world.optimizers.items()}

    def start_pass(self) -> None:
        for mirror in self.optimizers.values():
            mirror.cache.clear()

    def run(self, tracer: Tracer, counts: dict, op, raw) -> None:
        plan = self.optimizers[op.policy_set].optimize(tracer, counts, op.sql)
        if (plan is None) != (raw is None):
            raise MirrorMismatch("mirror and facade disagree on rejection")
        if plan is not None and plan_shape(plan) != plan_shape(raw.plan):
            raise MirrorMismatch("mirrored plan differs from the facade's")


class ExecMirror:
    def __init__(self, world: _Exec) -> None:
        self.world = world
        self.facades = [world.optimizer]
        self.optimizer = OptimizerMirror(world.optimizer)
        engine = world.engine
        self.execution = ExecutionMirror(world, engine.executor, engine.ship, engine.parallel)

    def start_pass(self) -> None:
        pass

    def run(self, tracer: Tracer, counts: dict, op, raw) -> None:
        optimized, result = raw
        plan = self.optimizer.optimize(tracer, counts, op.sql)
        if plan_shape(plan) != plan_shape(optimized.plan):
            raise MirrorMismatch("mirrored plan differs from the facade's")
        mirrored = self.execution.execute(tracer, counts, op.name, plan)
        if mirrored.rows != result.rows:
            raise MirrorMismatch("mirrored rows differ from the facade's")


class ServeMirror:
    def __init__(self, world: ServeFaultedTraced) -> None:
        self.world = world
        self.facades = [world.optimizer]
        self.optimizer = OptimizerMirror(world.optimizer)
        self.execution = ExecutionMirror(world, "batch", STREAM, scheduled=True)

    def start_pass(self) -> None:
        pass

    def run(self, tracer: Tracer, counts: dict, op, raw) -> None:
        world = self.world
        _, text, report = raw
        untraced = tracer.call("server.serve_ms", world.serve, op)
        recorder = TraceRecorder()
        with tracing(recorder):
            traced = tracer.call("server.traced_serve", world.serve, op)
        mirrored_text = tracer.call("trace.serialize_ms", recorder.to_jsonl)
        if mirrored_text != text:
            raise MirrorMismatch("mirrored trace differs from the facade's")
        events = tracer.call("trace.parse_ms", parse_trace, text)
        audit = tracer.call("auditor.audit_ms", world.auditor.audit_events, events)
        metrics = untraced.metrics
        for key, value in (
            ("server.served", metrics.served), ("server.served_late", metrics.served_late),
            ("server.shed", metrics.shed), ("server.rejected", metrics.rejected),
            ("server.partial", metrics.partial), ("server.breaker_trips", metrics.breaker_trips),
            ("server.breaker_fast_fails", metrics.breaker_fast_fails),
            ("server.queue_wait_sim_ms", metrics.queue_wait_seconds * 1000.0),
            ("server.makespan_sim_ms", metrics.makespan_seconds * 1000.0),
            ("trace.events_per_query", len(events)), ("trace.bytes_per_query", len(text)),
            ("auditor.attempts", audit.attempts), ("auditor.chunk_attempts", audit.chunk_attempts),
            ("auditor.payloads", audit.payloads), ("auditor.violations", len(audit.violations)),
        ):
            counts[key] += value
        if (audit.attempts, len(audit.violations)) != (report.attempts, len(report.violations)):
            raise MirrorMismatch("mirrored audit differs from the facade's")
        for (_, index, _), outcome, again in zip(op.requests, untraced.outcomes, traced.outcomes):
            query = world.queries[index]
            plan = self.optimizer.optimize(tracer, counts, query.sql)
            mirrored = self.execution.execute(
                tracer, counts, query.name, plan, faults=world.faults[op.name],
                retries=world.RETRIES, start_at=outcome.started_at or 0.0,
            )
            if outcome.rows != mirrored.rows or again.rows != mirrored.rows:
                raise MirrorMismatch("served rows differ from sequential rows")


def make_mirror(world: World):
    if isinstance(world, OptimizeCold):
        return OptimizeMirror(world)
    if isinstance(world, ServeFaultedTraced):
        return ServeMirror(world)
    return ExecMirror(world)


# -- the traced run --------------------------------------------------------------------


def _policy_counters(facades) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for optimizer in facades:
        stats, cache = optimizer.evaluator.stats, optimizer.plan_cache.stats
        totals["evaluations"] += stats.evaluations
        totals["expressions_scanned"] += stats.expressions_scanned
        totals["implication_checks"] += stats.implication_checks
        totals["implication_misses"] += stats.implication_cache_misses
        totals["hits"] += cache.hits
        totals["misses"] += cache.misses
    return totals


def run_traced(name: str, seed: int, seconds: float, sizes: Sizes, import_s: float,
               out_dir: Path) -> dict:
    """One traced run of workload ``name``; returns the result record
    with every per-layer metric and writes the last pass's spans."""
    world, baseline, _ = set_up(name, seed, replace(sizes, setups=1))
    start = time.perf_counter()
    _, database = tpch.build_benchmark(scale=world.scales["tpch"], stats_scale=1.0)
    datagen_s = time.perf_counter() - start
    rows_loaded = sum(database.row_count(db, table)
                      for db, (_, tables) in tpch.TABLE_PLACEMENT.items() for table in tables)
    del database

    mirror = make_mirror(world)
    failures = Failures()
    ops = world.ops
    queries = sum(o.queries for o in baseline)
    best: dict[str, list[float]] = defaultdict(lambda: [math.inf] * len(ops))
    best_facade = [math.inf] * len(ops)
    facade_wall: list[float] = []
    total_wall: list[float] = []
    calib: list[float] = []
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    counts: dict[str, float] = {}
    delta: dict[str, int] = {}

    def one_pass(record: bool) -> None:
        nonlocal tracer, counts, delta
        gc.collect()
        calib.append(calibrate())
        tracer, counts = Tracer(), defaultdict(float)
        before = _policy_counters(mirror.facades)
        world.start_pass()
        mirror.start_pass()
        wall = both = 0.0
        for i, op in enumerate(ops):
            tracer.op, tracer.parent = op.name, None
            tracer.parent = tracer.begin("op")
            raw = world.run(op)
            seconds_op = tracer.end(tracer.parent)
            outcome = world.account(op, raw, warm=True)
            tracer.parent = tracer.begin("mirror")
            tracer.layer_seconds.clear()
            try:
                mirror.run(tracer, counts, op, raw)
            except MirrorMismatch as mismatch:
                outcome.error = outcome.error or str(mismatch)
            wall += seconds_op
            both += seconds_op + tracer.end(tracer.parent)
            failures.record(op.name, outcome, baseline[i])
            if record:
                best_facade[i] = min(best_facade[i], seconds_op)
                for layer, spent in tracer.layer_seconds.items():
                    best[layer][i] = min(best[layer][i], spent)
        after = _policy_counters(mirror.facades)
        delta = {key: after[key] - before[key] for key in after}
        if record:
            facade_wall.append(wall)
            total_wall.append(both)

    # The mirror's own warm-up: its plan cache and payload cache fill,
    # as the facade's did in set-up.  Not recorded.
    one_pass(record=False)
    started = time.perf_counter()
    for _ in range(sizes.passes[name][1]):
        one_pass(record=True)
    timed_s = time.perf_counter() - started
    check_budget(timed_s, seconds)

    def per_query_ms(layer: str) -> float:
        return sum(t for t in best[layer] if t != math.inf) * 1000.0 / queries

    lookups = delta["hits"] + delta["misses"]
    metrics = {m.name: 0.0 for m in PER_LAYER}
    for m in PER_LAYER:
        if m.unit == "ms" and m.name in best:
            metrics[m.name] = per_query_ms(m.name)
    # Counts of the last pass (every pass counts the same), per query.
    for key, value in counts.items():
        metrics[key] = value / queries
    checks = delta["implication_checks"]
    metrics.update({
        "tpch.datagen_s": datagen_s,
        "tpch.rows_loaded": rows_loaded,
        "policy.evaluations": delta["evaluations"] / queries,
        "policy.expressions_scanned": delta["expressions_scanned"] / queries,
        "policy.implication_checks": checks / queries,
        "policy.implication_cache_hit_ratio":
            (checks - delta["implication_misses"]) / checks if checks else 0.0,
        "plancache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "plancache.entries": sum(len(o.plan_cache) for o in mirror.facades),
        "wire.compression_ratio":
            counts["wire.logical_bytes"] / counts["wire.wire_bytes"]
            if counts["wire.wire_bytes"] else 1.0,
        "scheduler.overhead_ms": metrics["scheduler.run_ms"] - metrics["vectorized.compute_ms"]
            - metrics["wire.encode_ms"] - metrics["wire.decode_ms"],
        "server.overhead_ms": metrics["server.serve_ms"]
            and metrics["server.serve_ms"] - metrics["scheduler.run_ms"],
        "trace.record_overhead_ms":
            per_query_ms("server.traced_serve") - metrics["server.serve_ms"],
        "harness.import_s": import_s,
        "harness.calib_ms": statistics.median(calib),
        "harness.pass_spread": max(facade_wall) / min(facade_wall),
        "harness.trace_overhead_ratio": sum(total_wall) / sum(facade_wall),
        "harness.failed_share": failures.failed / failures.attempted,
    })
    tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
    op_ms = sum(best_facade) * 1000.0 / queries
    optimize = sum(v for k, v in metrics.items()
                   if k.endswith("_ms") and k.split(".")[0] in ("sql", "optimizer", "plancache"))
    execute = (metrics["scheduler.run_ms"] or metrics["operators.compute_ms"]
               + metrics["vectorized.compute_ms"] + metrics["wire.encode_ms"]
               + metrics["wire.decode_ms"])
    control = sum(metrics[k] for k in (
        "server.overhead_ms", "trace.record_overhead_ms", "trace.serialize_ms",
        "trace.parse_ms", "auditor.audit_ms"))
    return {
        "shares": {
            "op wall per query (ms)": op_ms,
            "sql+optimizer+plancache (policy inside)": optimize / op_ms,
            "operators|vectorized+wire+scheduler": execute / op_ms,
            "server+trace+auditor": control / op_ms,
        },
        "workload": name,
        "ops": len(ops),
        "queries": queries,
        "passes": len(facade_wall),
        "timed_s": timed_s,
        "scales": world.scales,
        "calib_ms": metrics["harness.calib_ms"],
        "pass_spread": metrics["harness.pass_spread"],
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.first,
        "metrics": metrics,
    }
