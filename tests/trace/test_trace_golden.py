"""Golden trace digests: the recorded trace and the headline numbers of
a small fixed matrix must not move when execution code is refactored.

Every other trace test compares a run against a *second run of the same
code*; this one compares against digests recorded once and committed
in ``golden_trace_digests.json`` (re-recorded only on an intended
behaviour change).  A case is

    {Q3, Q5, Q10} × {row, batch} × transport × scenario

with three transports (monolithic, compress-only, 64-row streaming) and
scenarios that reach every branch of the transfer simulation: fault-free,
transient retries from the first
send and mid-stream, a permanent drop (consumer failover), a crash
behind a flaky link (producer failover), and both fragment-timeout
shapes (while backing off, and a delivery that lands too late).

The world is permissive on purpose — every table may ship anywhere and
three replicas sit at otherwise unused sites — so that each plan keeps
one movable producer (Europe → Asia) and a movable consumer
(NorthAmerica → Africa): under the curated policy sets every TPC-H
fragment is pinned to its scans and no failover could be recorded.

To regenerate after an *intended* behaviour change::

    PYTHONPATH=src python -m tests.trace.test_trace_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.execution import (
    ExecutionEngine,
    RetryPolicy,
    ShipConfig,
    parse_fault_spec,
)
from repro.optimizer import CompliantOptimizer
from repro.policy import PolicyCatalog
from repro.tpch import QUERIES, build_benchmark, default_network
from repro.trace import TraceRecorder, tracing

GOLDEN = Path(__file__).with_name("golden_trace_digests.json")

QUERY_NAMES = ("Q3", "Q5", "Q10")
EXECUTORS = ("row", "batch")
TRANSPORTS = {
    "monolithic": ShipConfig(),
    "compress-only": ShipConfig(compression="auto"),
    "stream-64": ShipConfig(chunk_rows=64, compression="auto"),
}
REPLICAS = (
    ("db1", "customer", "Asia"),
    ("db1", "orders", "Asia"),
    ("db4", "lineitem", "Africa"),
)
LINK = "Europe->NorthAmerica"  # carries the last SHIP of all three plans
RETRY = RetryPolicy(max_retries=8)

#: scenario -> (fault spec, retry policy).  The mid-stream
#: windows open between two chunk sends of the fault-free stream-64 run
#: of Q3, Q10 and Q5 respectively, so a delivered prefix is in the
#: ledger when the fault hits.
SCENARIOS: dict[str, tuple[str | None, RetryPolicy | None]] = {
    "fault-free": (None, None),
    "flaky": (f"flaky:{LINK}@0+0.3", RETRY),
    "flaky-midstream": (
        f"flaky:{LINK}@0.02906+0.01;flaky:{LINK}@0.1055+0.01;"
        f"flaky:{LINK}@0.1742+0.01",
        RETRY,
    ),
    "drop-consumer-failover": (f"drop:{LINK}@0", RetryPolicy(max_retries=2)),
    "crash-producer-failover": (f"flaky:{LINK}@0+1e9;crash:Europe@1.0", RETRY),
    "timeout-backoff": (
        f"flaky:{LINK}@0+1e9",
        RetryPolicy(max_retries=8, fragment_timeout=0.2),
    ),
    "timeout-delivery": (
        f"slow:{LINK}@0x50",
        RetryPolicy(max_retries=2, fragment_timeout=1.0),
    ),
}

CASES = [
    (query, executor, transport, scenario)
    for query in QUERY_NAMES
    for executor in EXECUTORS
    for transport in TRANSPORTS
    for scenario in SCENARIOS
]


def build_world():
    catalog, database = build_benchmark(scale=0.002)
    for replica in REPLICAS:
        catalog.add_replica(*replica)
    policies = PolicyCatalog(catalog)
    for table in catalog.tables:
        policies.add_text(f"ship * from {table.name} to *")
    network = default_network()
    optimizer = CompliantOptimizer(catalog, policies, network)
    plans = {name: optimizer.optimize(QUERIES[name]).plan for name in QUERY_NAMES}
    return catalog, database, network, optimizer.evaluator, plans


def run_case(world, query, executor, transport, scenario) -> dict:
    catalog, database, network, evaluator, plans = world
    spec, retry_policy = SCENARIOS[scenario]
    faults = (
        parse_fault_spec(spec, locations=catalog.locations) if spec else None
    )
    engine = ExecutionEngine(
        database,
        network,
        policy_guard=evaluator,
        faults=faults,
        retry_policy=retry_policy,
        executor=executor,
        ship=TRANSPORTS[transport],
    )
    recorder = TraceRecorder()
    with tracing(recorder):
        metrics = engine.execute(plans[query]).metrics
    return {
        "sha256": hashlib.sha256(recorder.to_jsonl().encode("utf-8")).hexdigest(),
        "makespan": metrics.makespan_seconds,
        "total_bytes": metrics.total_bytes_shipped,
        "total_wire_bytes": metrics.total_wire_bytes_shipped,
        "transfer_attempts": metrics.transfer_attempts,
        "recoveries": len(metrics.recoveries),
    }


@pytest.fixture(scope="session")
def golden_world():
    return build_world()


@pytest.fixture(scope="session")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_matrix(golden):
    assert sorted(golden) == sorted("/".join(case) for case in CASES)


@pytest.mark.parametrize(
    "query,executor,transport,scenario", CASES, ids=["/".join(c) for c in CASES]
)
def test_trace_and_numbers_match_golden(
    golden_world, golden, query, executor, transport, scenario
):
    # Floats survive JSON exactly (repr round-trip), so == is the test.
    assert run_case(golden_world, query, executor, transport, scenario) == golden[
        "/".join((query, executor, transport, scenario))
    ]


def test_failover_scenarios_actually_fail_over(golden):
    """The matrix is only an oracle for recovery if recoveries happen."""
    for key, entry in golden.items():
        if key.endswith(("failover", "timeout-backoff", "timeout-delivery")):
            assert entry["recoveries"] >= 1, key
        if key.endswith("/flaky"):
            assert entry["recoveries"] == 0, key


if __name__ == "__main__":
    world = build_world()
    GOLDEN.write_text(
        json.dumps(
            {"/".join(case): run_case(world, *case) for case in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
