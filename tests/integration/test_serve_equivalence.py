"""Serving-layer equivalence: every query the concurrent server
*serves* must return rows identical — ordered identity, not just
multiset equality — to a sequential single-query execution of the same
plan, for both the row and batch executors.  Concurrency, admission
control, shared breaker state, and clock offsets must be invisible in
results; they may only change *when* things happen.

Also locks down the degradation contract under sustained faults: every
non-served request carries a typed error (no hangs, no silent drops),
every served one returns the reference rows, and the outcome buckets
reconcile to the workload size.  Circuit breakers may only help: with
them on, a sustained flaky link never lengthens the workload makespan.
"""

import pytest

from repro.errors import ReproError
from repro.execution import ExecutionEngine, parse_fault_spec
from repro.optimizer import CompliantOptimizer
from repro.server import (
    BreakerRegistry,
    QueryServer,
    workload_from_queries,
)
from repro.tpch import QUERIES, curated_policies

SERVED_QUERIES = [(name, QUERIES[name]) for name in sorted(QUERIES)]
SUSTAINED_FLAKY = "flaky:Europe->NorthAmerica@0+1e9"


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    return catalog, database, tpch_network, optimizer


@pytest.fixture(scope="module")
def references(world):
    """Sequential single-query executions, per executor."""
    catalog, database, network, optimizer = world
    out = {}
    for executor in ("row", "batch"):
        engine = ExecutionEngine(
            database,
            network,
            policy_guard=optimizer.evaluator,
            executor=executor,
        )
        out[executor] = {
            name: engine.execute(optimizer.optimize(sql).plan)
            for name, sql in SERVED_QUERIES
        }
    return out


@pytest.mark.parametrize("executor", ["row", "batch"])
def test_served_rows_are_ordered_identical_to_sequential(
    world, references, executor
):
    catalog, database, network, optimizer = world
    server = QueryServer(
        database,
        network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        concurrency=3,
        executor=executor,
        breakers=BreakerRegistry(),
    )
    workload = workload_from_queries(SERVED_QUERIES, interarrival=0.02, repeat=2)
    result = server.serve(workload)
    assert result.metrics.served == len(workload)
    assert result.metrics.reconciles()
    for outcome in result.outcomes:
        name = outcome.request.name.split("#")[0]
        reference = references[executor][name]
        assert outcome.columns == reference.columns
        assert outcome.rows == reference.rows


def test_row_and_batch_serving_agree(world, references):
    for name, _ in SERVED_QUERIES:
        assert references["row"][name].rows == references["batch"][name].rows


def serve_under_flaky_link(world, references, breakers, interarrival, **knobs):
    """Serve two rounds of the curated queries over a permanently flaky
    link and check the degradation contract; returns the metrics."""
    catalog, database, network, optimizer = world
    server = QueryServer(
        database,
        network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        breakers=breakers,
        faults=parse_fault_spec(SUSTAINED_FLAKY, locations=catalog.locations),
        **knobs,
    )
    workload = workload_from_queries(
        SERVED_QUERIES, interarrival=interarrival, repeat=2
    )
    result = server.serve(workload)
    metrics = result.metrics
    assert metrics.total == len(workload)
    assert metrics.reconciles()
    assert len(result.outcomes) == len(workload)
    for outcome in result.outcomes:
        if outcome.status == "served":
            assert outcome.error is None
            reference = references["row"][outcome.request.name.split("#")[0]]
            assert outcome.columns == reference.columns
            assert outcome.rows == reference.rows
        else:
            assert isinstance(outcome.error, ReproError)
            assert str(outcome.error)  # a real message, not a bare type
    return metrics


def test_degradation_is_typed_and_reconciles_under_faults(world, references):
    serve_under_flaky_link(
        world,
        references,
        BreakerRegistry(),
        interarrival=0.01,
        concurrency=2,
        queue_depth=2,
        default_deadline=0.5,
    )


def test_breakers_never_lengthen_the_makespan(world, references):
    """Fast-failing an open breaker never slows the workload down
    versus burning the full retry backoff on a known-bad link."""
    knobs = dict(interarrival=0.02, concurrency=3, queue_depth=24, default_deadline=2.0)
    off = serve_under_flaky_link(world, references, None, **knobs)
    on = serve_under_flaky_link(world, references, BreakerRegistry(), **knobs)
    assert on.breaker_fast_fails > 0  # the breaker actually engaged
    assert on.makespan_seconds <= off.makespan_seconds + 1e-9
