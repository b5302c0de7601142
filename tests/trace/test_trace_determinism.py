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

    def emit(self, event, stable: bool = True) -> None:
        super().emit(event, stable)
        self.emitted.append(event.to_dict())


def _traced_engine_run(
    tpch_small, tpch_network, executor, parallel, fault_seed, recorder=None
):
    """One full optimize + execute pass under a fresh recorder."""
    catalog, database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    faults = (
        FaultPlan.random(fault_seed, catalog.locations)
        if parallel and fault_seed is not None
        else None
    )
    engine = ExecutionEngine(
        database,
        tpch_network,
        policy_guard=optimizer.evaluator,
        parallel=parallel,
        executor=executor,
        faults=faults,
        retry_policy=RetryPolicy(max_retries=6) if faults else None,
    )
    recorder = TraceRecorder() if recorder is None else recorder
    with tracing(recorder):
        plan = optimizer.optimize(QUERIES["Q5"]).plan
        engine.execute(plan)
    return recorder.to_jsonl()


@pytest.mark.parametrize("executor", ["row", "batch"])
@pytest.mark.parametrize(
    "parallel,fault_seed",
    [(False, None), (True, None), (True, 11)],
    ids=["sequential", "parallel", "parallel-faults"],
)
def test_engine_trace_is_byte_identical(
    tpch_small, tpch_network, executor, parallel, fault_seed
):
    first = _traced_engine_run(
        tpch_small, tpch_network, executor, parallel, fault_seed
    )
    second = _traced_engine_run(
        tpch_small, tpch_network, executor, parallel, fault_seed
    )
    assert first == second
    assert first.endswith("\n")
    events = parse_trace(first)
    assert events, "trace must not be empty"
    kinds = {event.kind for event in events}
    assert {"query_start", "optimized", "ship", "query_end"} <= kinds


@pytest.mark.parametrize("executor", ["row", "batch"])
def test_faulted_emission_order_repeats(tpch_small, tpch_network, executor):
    """Not only the canonical serialization: the order the scheduler
    emits events in is itself identical across runs."""
    logs = []
    for _ in range(2):
        log = _EmissionLog()
        _traced_engine_run(tpch_small, tpch_network, executor, True, 11, log)
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
    text = _traced_engine_run(tpch_small, tpch_network, "row", True, 11)
    events = parse_trace(text)
    recorder = TraceRecorder()
    for event in events:
        recorder.emit(event)
    assert recorder.to_jsonl() == text
