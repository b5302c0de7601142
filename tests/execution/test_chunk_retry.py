"""Chunk-granular retry: faults re-send only what was never delivered.

The monolithic fault path re-ships an entire payload on every retry.
Streaming makes recovery chunk-granular: a transient link fault costs
only the undelivered chunks, every chunk is billed exactly once, and
the total billed wire bytes of a faulted run equal the fault-free
run's.  All three properties are asserted from the recorded trace —
the same evidence the auditor sees — and cross-checked against the
scheduler's metrics.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.execution import (
    ExecutionEngine,
    RetryPolicy,
    ShipConfig,
    parse_fault_spec,
)
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, curated_policies
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

#: Small chunks so every transfer in the 0.002-scale fixture splits.
STREAM = ShipConfig(chunk_rows=64, compression="auto")

#: Transient fault windows covering the early transfer instants of the
#: curated plans on the default network (drop = hard failures that
#: retry through backoff; flaky = intermittent failures).
FAULT_SPECS = [
    "drop:Europe->NorthAmerica@0.01+0.05",
    "flaky:AsiaPacific->NorthAmerica@0.0+0.1",
    "drop:Europe->NorthAmerica@0.01+0.05;flaky:MiddleEast->Europe@0.0+0.08",
]


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    return catalog, database, tpch_network, optimizer


def traced_run(engine, plan):
    recorder = TraceRecorder()
    with tracing(recorder):
        result = engine.execute(plan)
    return result, list(recorder.events())


def chunk_events(events):
    return [e for e in events if e.kind == "chunk"]


def delivered_chunk_bytes(events):
    """Total billed wire bytes: delivered chunk events only."""
    return sum(e.bytes for e in chunk_events(events) if e.outcome == "delivered")


@pytest.mark.parametrize("name", ["Q3", "Q5", "Q10"])
@pytest.mark.parametrize("spec", FAULT_SPECS, ids=["drop", "flaky", "both"])
def test_only_undelivered_chunks_resent(world, name, spec):
    catalog, database, network, optimizer = world
    plan = optimizer.optimize(QUERIES[name]).plan

    clean_engine = ExecutionEngine(database, network, parallel=True, ship=STREAM)
    clean, clean_events = traced_run(clean_engine, plan)
    assert clean.partial_failure is None

    faults = parse_fault_spec(spec, locations=catalog.locations)
    faulted_engine = ExecutionEngine(
        database,
        network,
        parallel=True,
        faults=faults,
        retry_policy=RetryPolicy(max_retries=8),
        ship=STREAM,
    )
    faulted, faulted_events = traced_run(faulted_engine, plan)
    key = (name, spec)
    assert faulted.partial_failure is None, key
    assert faulted.rows == clean.rows, key
    # Retried chunks are audited evidence too: the faulted trace is clean.
    assert ComplianceAuditor(optimizer.policies).audit_events(faulted_events).ok, key

    # No chunk is double-billed: for every logical (producer, consumer,
    # target, chunk) key there is exactly one *delivered* chunk event;
    # any extra events for that key are failed attempts that preceded
    # the delivery — the re-sends cover only undelivered chunks.
    attempts = defaultdict(list)
    for event in chunk_events(faulted_events):
        attempts[(event.producer, event.consumer, event.target, event.chunk)].append(
            event
        )
    retried_keys = 0
    for chunk_key, events in attempts.items():
        delivered = [e for e in events if e.outcome == "delivered"]
        assert len(delivered) == 1, (key, chunk_key)
        assert events[-1].outcome == "delivered", (key, chunk_key)
        assert all(e.outcome != "delivered" for e in events[:-1]), (key, chunk_key)
        retried_keys += len(events) > 1

    # When the faults actually bit (some chunk attempt failed), the
    # re-sends never touched every chunk: delivered-before-the-fault
    # chunks are not re-shipped.
    if any(e.outcome != "delivered" for e in chunk_events(faulted_events)):
        assert 0 < retried_keys < len(attempts), key

    # Total billed wire bytes match the fault-free run — chunk-granular
    # retry adds attempts, never billed bytes.
    assert delivered_chunk_bytes(faulted_events) == delivered_chunk_bytes(
        clean_events
    ), key
    assert (
        faulted.metrics.total_wire_bytes_shipped
        == clean.metrics.total_wire_bytes_shipped
    ), key
    assert (
        faulted.metrics.total_bytes_shipped == clean.metrics.total_bytes_shipped
    ), key


def test_faults_actually_retried_chunks(world):
    """At least one (query, fault) combination in the matrix above must
    exercise per-chunk retry, or the suite is vacuous."""
    catalog, database, network, optimizer = world
    retried = 0
    for name in ("Q3", "Q5", "Q10"):
        plan = optimizer.optimize(QUERIES[name]).plan
        for spec in FAULT_SPECS:
            faults = parse_fault_spec(spec, locations=catalog.locations)
            engine = ExecutionEngine(
                database,
                network,
                parallel=True,
                faults=faults,
                retry_policy=RetryPolicy(max_retries=8),
                ship=STREAM,
            )
            result, events = traced_run(engine, plan)
            assert result.partial_failure is None
            failed = [
                e for e in chunk_events(events) if e.outcome != "delivered"
            ]
            retried += bool(failed)
    assert retried >= 2


def test_chunk_seconds_cover_makespan(world):
    """The per-record seconds of a chunked transfer sum *all* acked
    chunk times, so the makespan <= shipping-seconds invariant holds in
    streaming mode, fault-free.  Against monolithic transfers of the
    same plan, first-chunk admission never lengthens the makespan (and
    shortens at least one), and compression puts fewer bytes on the
    wire than the logical bytes billed."""
    _catalog, database, network, optimizer = world
    engine = ExecutionEngine(database, network, parallel=True, ship=STREAM)
    monolithic = ExecutionEngine(database, network, parallel=True)
    shortened = logical = wire = 0
    for name in ("Q3", "Q5", "Q10"):
        plan = optimizer.optimize(QUERIES[name]).plan
        result = engine.execute(plan)
        assert result.metrics.makespan_seconds <= (
            result.metrics.shipping_seconds + 1e-9
        ), name
        mono = monolithic.execute(plan).makespan_seconds
        assert result.makespan_seconds <= mono + 1e-9, name
        shortened += result.makespan_seconds < mono - 1e-9
        logical += result.metrics.total_bytes_shipped
        wire += result.metrics.total_wire_bytes_shipped
    assert shortened > 0
    assert wire < logical
