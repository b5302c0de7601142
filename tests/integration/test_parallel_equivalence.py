"""Executor equivalence: every engine run goes through the fragment
scheduler, and it must be indistinguishable (row-wise) from the
centralized reference execution, bill every SHIP exactly what the
network model prices it at, and obey the critical-path makespan
invariants.

Three workloads:

* the curated TPC-H queries (the tier-1 integration plans), under
  both optimizers;
* ``>= 50`` randomized ad-hoc TPC-H queries from
  :mod:`repro.tpch.querygen` (the paper's §7.1 generator);
* a GAV-fragmented deployment whose UNION ALL plans produce many
  independent fragments.

Invariants checked on every executed plan: ``makespan <= sum of ship
times`` (a critical path cannot exceed the sum of all edges), equality
only possible when the fragment DAG is a chain, and strict inequality
whenever independent fragments exist.
"""

import pytest

from repro.execution import (
    ExecutionEngine,
    ShipConfig,
    fragment_plan,
    reference_plan,
)
from repro.optimizer import CompliantOptimizer, TraditionalOptimizer, normalize
from repro.optimizer.compliant import _strip_sort
from repro.sql import Binder
from repro.tpch import AdHocQueryGenerator, QUERIES, curated_policies
from repro.trace import TraceRecorder, tracing

from ..conftest import rows_as_multiset

#: Satellite requirement: at least 50 randomized queries.
ADHOC_QUERIES = AdHocQueryGenerator(seed=1234).generate(55)


#: Small chunk size so even the 0.002-scale test batches actually split.
STREAM = ShipConfig(chunk_rows=64, compression="auto")


def engine_matrix(database, network):
    """Row and batch backends, each with monolithic and streamed +
    compressed SHIP; the first entry is the baseline."""
    return {
        "row": ExecutionEngine(database, network),
        "batch": ExecutionEngine(database, network, executor="batch"),
        "row-stream": ExecutionEngine(database, network, ship=STREAM),
        "batch-stream": ExecutionEngine(
            database, network, executor="batch", ship=STREAM
        ),
    }


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    compliant = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR+A"), tpch_network
    )
    traditional = TraditionalOptimizer(catalog, tpch_network)
    return catalog, compliant, traditional, engine_matrix(database, tpch_network)


def assert_makespan_invariants(plan, metrics):
    pairs = fragment_plan(plan).independent_pairs()
    assert metrics.makespan_seconds <= metrics.shipping_seconds + 1e-9
    if pairs > 0:
        # Independent fragments transfer concurrently: the response
        # time comes in strictly below the shipped-seconds sum.
        assert metrics.makespan_seconds < metrics.shipping_seconds
    return pairs


def traced_execute(engine, plan):
    """Run ``plan`` under a fresh trace recorder; return the result and
    the trace-derived SHIP summary: the sorted ``(source, target, rows,
    bytes)`` of every delivered cross-border transfer."""
    recorder = TraceRecorder()
    with tracing(recorder):
        result = engine.execute(plan)
    delivered = sorted(
        (event.source, event.target, event.rows, event.bytes)
        for event in recorder.events()
        if event.kind == "ship"
        and event.outcome == "delivered"
        and event.source != event.target
    )
    return result, delivered


def check_equivalence(catalog, optimizer, engines, sql):
    core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
    baseline = next(iter(engines.values()))
    expected = rows_as_multiset(
        baseline.execute(reference_plan(normalize(core))).rows
    )
    plan = optimizer.optimize(core).plan
    base_run, base_ships = traced_execute(baseline, plan)
    assert rows_as_multiset(base_run.rows) == expected
    for engine in engines.values():
        run, ships = traced_execute(engine, plan)
        metrics = run.metrics
        # The batch executor preserves the row backend's exact iteration
        # orders and streamed transfers sit on the data path (rows flow
        # through the codec), so every corner must be *row-identical*
        # (ordered), not just multiset-equal, and bill the same logical
        # SHIP bytes.
        assert run.columns == base_run.columns
        assert run.rows == base_run.rows
        assert metrics.total_bytes_shipped == base_run.metrics.total_bytes_shipped
        assert metrics.operators_executed == base_run.metrics.operators_executed
        # The trace and the metrics record the same delivered
        # cross-border transfers, identical across every corner.
        assert ships == sorted(
            (s.source, s.target, s.rows, s.bytes)
            for s in metrics.ships
            if s.source != s.target
        )
        assert ships == base_ships
        if not engine.ship.active:
            # A fault-free monolithic SHIP is one α + β·bytes message.
            for s in metrics.ships:
                assert s.seconds == engine.network.transfer_time(
                    s.source, s.target, s.bytes
                )
        assert metrics.total_wire_bytes_shipped <= metrics.total_bytes_shipped
        assert metrics.makespan_seconds <= metrics.shipping_seconds + 1e-9
    pairs = assert_makespan_invariants(plan, base_run.metrics)
    return base_run, pairs


@pytest.mark.parametrize("name", list(QUERIES))
def test_tpch_compliant_plans(world, name):
    catalog, compliant, _traditional, engines = world
    check_equivalence(catalog, compliant, engines, QUERIES[name])


@pytest.mark.parametrize("name", list(QUERIES))
def test_tpch_traditional_plans(world, name):
    catalog, _compliant, traditional, engines = world
    check_equivalence(catalog, traditional, engines, QUERIES[name])


#: Per-adhoc-query independent-pair counts, recorded as the equivalence
#: tests run (read by the coverage summary test below).
_ADHOC_PAIRS: dict[int, int] = {}


@pytest.mark.parametrize(
    "index", range(len(ADHOC_QUERIES)), ids=lambda i: f"adhoc{i:02d}"
)
def test_randomized_adhoc_queries(world, index):
    catalog, _compliant, traditional, engines = world
    query = ADHOC_QUERIES[index]
    _run, pairs = check_equivalence(catalog, traditional, engines, query.sql)
    _ADHOC_PAIRS[index] = pairs


def test_adhoc_workload_exercises_parallel_fragments():
    """The randomized workload must actually stress the scheduler: a
    healthy fraction of the optimized plans contain independent
    fragments (otherwise every DAG is a chain and the equivalence suite
    would never cover concurrent execution)."""
    if len(_ADHOC_PAIRS) < len(ADHOC_QUERIES):
        pytest.skip("requires the full adhoc equivalence run in this session")
    assert sum(1 for pairs in _ADHOC_PAIRS.values() if pairs > 0) >= 5


def test_fragmented_union_plans(tpch_network):
    """GAV-fragmented tables: UNION ALL over per-site fragments yields
    wide (highly parallel) DAGs — results must still match everywhere."""
    from repro.bench import fragmented_policies
    from repro.tpch import build_benchmark

    catalog, database = build_benchmark(
        scale=0.002, fragmented=("customer", "orders"), fragment_locations=3
    )
    policies = fragmented_policies(catalog)
    compliant = CompliantOptimizer(catalog, policies, tpch_network)
    sql = """
        SELECT c.c_mktsegment, COUNT(*) AS n, SUM(o.o_totalprice) AS total
        FROM customer c, orders o
        WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000
        GROUP BY c.c_mktsegment
    """
    run, _pairs = check_equivalence(
        catalog, compliant, engine_matrix(database, tpch_network), sql
    )
    assert len(run.metrics.fragments) >= 3


def test_batch_executor_under_transient_chaos(world):
    """The batch backend rides the fault scheduler's retry paths
    unchanged: under seeded transient fault plans it must stay
    row-identical to the fault-free row executor on every curated
    TPC-H query, with at least one combo actually retrying."""
    from repro.execution import FaultPlan, RetryPolicy

    catalog, compliant, _trad, engines = world
    baseline_engine = engines["row"]
    database, network = baseline_engine.database, baseline_engine.network
    retried = 0
    for name, sql in sorted(QUERIES.items()):
        core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
        plan = compliant.optimize(core).plan
        baseline = baseline_engine.execute(plan)
        pairs = [
            (s.source, s.target)
            for s in baseline.metrics.ships
            if s.source != s.target
        ]
        for seed in (0, 1, 2):
            faults = FaultPlan.random(seed, catalog.locations, pairs=pairs or None)
            chaotic = ExecutionEngine(
                database,
                network,
                executor="batch",
                faults=faults,
                retry_policy=RetryPolicy(max_retries=6),
                policy_guard=compliant.evaluator,
            )
            result = chaotic.execute(plan)
            key = (name, seed, str(faults))
            assert result.partial_failure is None, key
            assert result.columns == baseline.columns, key
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                baseline.rows
            ), key
            retried += result.metrics.transfer_attempts > len(result.metrics.ships)
    assert retried >= 3  # the chaos actually bit somewhere


def test_streaming_executor_under_transient_chaos(world):
    """Chunk-granular retry under seeded transient faults: the
    streaming+compressed scheduler must stay row-identical to the
    fault-free monolithic baseline on every curated TPC-H query and
    keep billing logical bytes, with at least one combo retrying."""
    from repro.execution import FaultPlan, RetryPolicy

    catalog, compliant, _trad, engines = world
    baseline_engine = engines["row"]
    database, network = baseline_engine.database, baseline_engine.network
    retried = 0
    for name, sql in sorted(QUERIES.items()):
        core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
        plan = compliant.optimize(core).plan
        baseline = baseline_engine.execute(plan)
        pairs = [
            (s.source, s.target)
            for s in baseline.metrics.ships
            if s.source != s.target
        ]
        for seed in (0, 1, 2):
            faults = FaultPlan.random(seed, catalog.locations, pairs=pairs or None)
            chaotic = ExecutionEngine(
                database,
                network,
                faults=faults,
                retry_policy=RetryPolicy(max_retries=6),
                policy_guard=compliant.evaluator,
                ship=STREAM,
            )
            result = chaotic.execute(plan)
            key = (name, seed, str(faults))
            assert result.partial_failure is None, key
            assert result.columns == baseline.columns, key
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                baseline.rows
            ), key
            retried += result.metrics.transfer_attempts > len(result.metrics.ships)
    assert retried >= 3  # the chaos actually bit somewhere
