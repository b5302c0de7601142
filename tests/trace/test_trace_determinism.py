"""Trace determinism: the recorder's JSONL serialization is a pure
function of (query, policies, seed, executor) — byte-identical across
runs.  The fragment scheduler computes fragments one after another in
topological order and the server executes queries in dispatch order,
so even the *emission* order of events repeats exactly.

Determinism is what makes traces diffable (CI can compare a trace
against a golden file) and what lets the auditor's verdict be
reproduced exactly from a stored artifact.  It holds because events
carry only simulated-clock timestamps (never wall-clock), everything
runs on the caller's thread in a fixed order, and serialization sorts
canonically (scheduler events tie-break on content, so the bytes
depend on the simulated schedule alone).
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.execution import ExecutionEngine, FaultPlan, RetryPolicy
from repro.optimizer import CompliantOptimizer
from repro.server import QueryRequest, QueryServer
from repro.tpch import QUERIES, curated_policies
from repro.trace import TraceRecorder, parse_trace, tracing


class _EmissionLog(TraceRecorder):
    """A recorder that also keeps every event in emission order."""

    def __init__(self) -> None:
        super().__init__()
        self.emitted: list[dict] = []

    def emit(self, event) -> None:
        super().emit(event)
        self.emitted.append(event.to_dict())


def _engine_run(tpch_small, tpch_network, executor, fault_seed, recorder):
    """One full optimize + execute pass, traced iff ``recorder`` is set."""
    catalog, database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    faults = (
        FaultPlan.random(fault_seed, catalog.locations)
        if fault_seed is not None
        else None
    )
    engine = ExecutionEngine(
        database,
        tpch_network,
        policy_guard=optimizer.evaluator,
        executor=executor,
        faults=faults,
        retry_policy=RetryPolicy(max_retries=6) if faults else None,
    )
    with tracing(recorder) if recorder is not None else nullcontext():
        plan = optimizer.optimize(QUERIES["Q5"]).plan
        return engine.execute(plan)


def _traced_engine_run(tpch_small, tpch_network, executor, fault_seed):
    """The JSONL trace of one pass under a fresh recorder, and its result."""
    recorder = TraceRecorder()
    result = _engine_run(tpch_small, tpch_network, executor, fault_seed, recorder)
    return recorder.to_jsonl(), result


@pytest.mark.parametrize("executor", ["row", "batch"])
@pytest.mark.parametrize(
    "fault_seed", [None, 11], ids=["parallel", "parallel-faults"]
)
def test_engine_trace_is_byte_identical(tpch_small, tpch_network, executor, fault_seed):
    first, traced = _traced_engine_run(tpch_small, tpch_network, executor, fault_seed)
    second, _ = _traced_engine_run(tpch_small, tpch_network, executor, fault_seed)
    assert first == second
    assert first.endswith("\n")
    events = parse_trace(first)
    assert events, "trace must not be empty"
    kinds = {event.kind for event in events}
    assert {"query_start", "optimized", "ship", "query_end"} <= kinds
    # The recorder observes the simulation; it never perturbs it.
    untraced = _engine_run(tpch_small, tpch_network, executor, fault_seed, None)
    assert untraced.rows == traced.rows
    assert untraced.makespan_seconds == traced.makespan_seconds


@pytest.mark.parametrize("executor", ["row", "batch"])
def test_faulted_emission_order_repeats(tpch_small, tpch_network, executor):
    """Not only the canonical serialization: the order the scheduler
    emits events in is itself identical across runs."""
    logs = []
    for _ in range(2):
        log = _EmissionLog()
        _engine_run(tpch_small, tpch_network, executor, 11, log)
        logs.append(log.emitted)
    assert logs[0] == logs[1]
    assert any(event["kind"] == "ship" and event["at"] > 0 for event in logs[0])


def _traced_server_run(tpch_small, tpch_network):
    catalog, database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    server = QueryServer(
        database,
        tpch_network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        concurrency=2,
        queue_depth=4,
        faults=FaultPlan.random(3, catalog.locations),
        retry_policy=RetryPolicy(max_retries=6),
    )
    requests = [
        QueryRequest(sql=QUERIES["Q3"], arrival=0.0, name="Q3"),
        QueryRequest(sql=QUERIES["Q5"], arrival=0.01, name="Q5"),
        QueryRequest(sql=QUERIES["Q10"], arrival=0.02, name="Q10"),
    ]
    recorder = TraceRecorder()
    with tracing(recorder):
        server.serve(requests)
    return recorder.to_jsonl()


def test_server_workload_trace_is_byte_identical(tpch_small, tpch_network):
    first = _traced_server_run(tpch_small, tpch_network)
    second = _traced_server_run(tpch_small, tpch_network)
    assert first == second
    kinds = {event.kind for event in parse_trace(first)}
    assert "request" in kinds, "admission events must be traced"


def test_trace_round_trips_through_jsonl(tpch_small, tpch_network):
    """parse(serialize(events)) reproduces the events exactly: the
    auditor sees the same data whether fed live events or a file."""
    text, _ = _traced_engine_run(tpch_small, tpch_network, "row", 11)
    events = parse_trace(text)
    recorder = TraceRecorder()
    for event in events:
        recorder.emit(event)
    assert recorder.to_jsonl() == text
