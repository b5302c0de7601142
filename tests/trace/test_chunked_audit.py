"""Audit invariance under chunked streaming SHIP.

Chunking is a transport detail: the auditor must reach the same verdict
whatever the chunk size.  Every fault-free streamed run audits clean at
any granularity, each logical transfer contributes exactly one
payload-carrying SHIP descriptor (chunk events are payload-less and
join to it), and a chunk event whose recorded destination is rewritten
to a non-permitted site flips the verdict — the chunk stream is
audited evidence, not decoration.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from collections import Counter

import pytest

from repro.execution import ExecutionEngine, FaultPlan, RetryPolicy, ShipConfig
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, curated_policies
from repro.trace import ComplianceAuditor, TraceRecorder, parse_trace, tracing
from repro.trace.codec import decode_logical


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    policies = curated_policies(catalog, "CR")
    optimizer = CompliantOptimizer(catalog, policies, tpch_network)
    auditor = ComplianceAuditor(policies)
    return catalog, database, tpch_network, optimizer, auditor


def traced_stream_run(world, name, chunk_rows, compression="auto"):
    _catalog, database, network, optimizer, _auditor = world
    plan = optimizer.optimize(QUERIES[name]).plan
    engine = ExecutionEngine(
        database,
        network,
        ship=ShipConfig(chunk_rows=chunk_rows, compression=compression),
    )
    recorder = TraceRecorder()
    with tracing(recorder):
        result = engine.execute(plan)
    assert result.partial_failure is None
    return recorder


@pytest.mark.parametrize("chunk_rows", [None, 1, 7, 64, 4096])
@pytest.mark.parametrize("name", ["Q3", "Q5"])
def test_audit_verdict_invariant_under_chunk_size(world, name, chunk_rows):
    auditor = world[4]
    recorder = traced_stream_run(world, name, chunk_rows)
    report = auditor.audit_events(recorder.events())
    assert report.ok, (name, chunk_rows, report.violations)
    if chunk_rows is not None:
        assert report.chunk_attempts > 0, (name, chunk_rows)


@pytest.mark.parametrize("name", ["Q3", "Q5", "Q10"])
def test_one_payload_descriptor_per_logical_transfer(world, name):
    """Streaming emits many chunk events but exactly one payload-carrying
    SHIP descriptor per logical transfer — the same set of descriptors a
    monolithic run of the same plan records."""
    streamed = traced_stream_run(world, name, chunk_rows=16)
    monolithic = traced_stream_run(world, name, chunk_rows=None, compression="none")

    def payload_keys(recorder):
        keys = Counter()
        for event in recorder.events():
            if event.kind == "ship" and getattr(event, "payload", None):
                keys[
                    (event.query, event.producer, event.consumer, event.outcome)
                ] += 1
        return keys

    streamed_keys = payload_keys(streamed)
    assert streamed_keys == payload_keys(monolithic)
    for key, count in streamed_keys.items():
        assert count == 1, key

    # Every chunk event joins to one of those payload descriptors.
    descriptors = {key[:3] for key in streamed_keys}
    for event in streamed.events():
        if event.kind == "chunk":
            assert (event.query, event.producer, event.consumer) in descriptors


def test_corrupted_chunk_destination_is_flagged(world):
    """Rewriting one delivered chunk's destination to a site outside the
    payload's permitted set must flip the verdict."""
    auditor = world[4]
    recorder = traced_stream_run(world, "Q5", chunk_rows=16)
    assert auditor.audit_events(recorder.events()).ok

    mutated = []
    flipped = 0
    for line in recorder.to_jsonl().splitlines():
        entry = json.loads(line)
        if (
            not flipped
            and entry.get("kind") == "chunk"
            and entry.get("outcome") == "delivered"
            and entry["source"] != entry["target"]
        ):
            entry["target"] = "Atlantis"  # never in any permitted set
            flipped += 1
        mutated.append(json.dumps(entry, sort_keys=True))
    assert flipped == 1, "no cross-border chunk to mutate"
    report = auditor.audit_events(parse_trace("\n".join(mutated)))
    assert len(report.violations) >= 1
    assert report.violations[0].category in (
        "forbidden-destination",
        "unauditable",
    )


def test_orphan_chunk_is_unauditable(world):
    """A chunk event that joins to no payload-carrying transfer
    descriptor cannot be checked against any policy — the auditor must
    fail it closed rather than ignore it."""
    auditor = world[4]
    recorder = traced_stream_run(world, "Q3", chunk_rows=16)

    mutated = []
    orphaned = 0
    for line in recorder.to_jsonl().splitlines():
        entry = json.loads(line)
        if (
            not orphaned
            and entry.get("kind") == "chunk"
            and entry.get("outcome") == "delivered"
        ):
            # Detach the chunk from its transfer: a producer fragment
            # index nothing in the trace describes.
            entry["producer"] = 4095
            entry["consumer"] = 4096
            orphaned += 1
        mutated.append(json.dumps(entry, sort_keys=True))
    assert orphaned == 1
    report = auditor.audit_events(parse_trace("\n".join(mutated)))
    assert any(v.category == "unauditable" for v in report.violations)


# -- one payload key per transfer stays fail-closed ----------------------------


def faulted_stream_trace(world, name, seed):
    """A streamed run under random transient faults, as parsed JSONL."""
    catalog, database, network, optimizer, _auditor = world
    plan = optimizer.optimize(QUERIES[name]).plan
    engine = ExecutionEngine(
        database,
        network,
        faults=FaultPlan.random(seed, sorted(catalog.locations)),
        retry_policy=RetryPolicy(max_retries=8),
        ship=ShipConfig(chunk_rows=16, compression="auto"),
    )
    recorder = TraceRecorder()
    with tracing(recorder):
        engine.execute(plan)
    return parse_trace(recorder.to_jsonl())


@pytest.mark.parametrize("name,seed", [("Q5", 3), ("Q10", 11)])
def test_auditing_one_trace_twice_gives_equal_reports(world, name, seed):
    """The per-transfer payload keys live for one call: a second audit
    of the same events by the same auditor reaches the same report."""
    events = faulted_stream_trace(world, name, seed)
    auditor = ComplianceAuditor(world[3].policies)
    first = auditor.audit_events(events)
    second = auditor.audit_events(events)
    assert first.ok and first.chunk_attempts > 0
    assert first == second


def test_tampered_retry_payload_is_judged_on_its_own_payload(world):
    """A retried attempt of a streamed transfer whose payload was
    swapped for one its destination does not admit is flagged, although
    the transfer's first attempt (whose payload the chunks share) is
    clean."""
    auditor = world[4]
    events = parse_trace(traced_stream_run(world, "Q5", chunk_rows=16).to_jsonl())
    ships = [e for e in events if e.kind == "ship" and e.source != e.target]
    permitted = {
        id(ship): auditor.permitted_destinations(decode_logical(ship.payload))
        for ship in ships
    }
    swaps = [
        (ship, other)
        for ship in ships
        for other in ships
        if ship.target not in permitted[id(other)]
    ]
    assert swaps, "no payload in the trace is forbidden at another ship's target"
    ship, other = swaps[0]
    retry = dataclasses.replace(
        ship, attempt=ship.attempt + 1, payload=copy.deepcopy(other.payload)
    )
    tampered = list(events)
    tampered.insert(events.index(ship) + 1, retry)

    assert auditor.audit_events(events).ok
    report = auditor.audit_events(tampered)
    assert [(v.category, v.target, v.permitted) for v in report.violations] == [
        ("forbidden-destination", ship.target, tuple(sorted(permitted[id(other)])))
    ]
    assert f"attempt {retry.attempt} " in report.violations[0].message


def test_tampered_chunk_target_falls_back_to_its_transfer_payload(world):
    """A chunk sent to a real site no ship event announced joins its
    transfer by identity alone and is judged on that transfer's
    payload: a forbidden destination, not an unauditable chunk."""
    auditor = world[4]
    events = parse_trace(traced_stream_run(world, "Q5", chunk_rows=16).to_jsonl())
    ships = {
        (e.query, e.producer, e.consumer): e
        for e in events
        if e.kind == "ship" and e.source != e.target
    }
    for position, event in enumerate(events):
        if event.kind != "chunk":
            continue
        ship = ships.get((event.query, event.producer, event.consumer))
        if ship is None:
            continue
        permitted = auditor.permitted_destinations(decode_logical(ship.payload))
        forbidden = sorted(auditor.policies.all_locations - permitted)
        if forbidden:
            break
    else:
        pytest.fail("no chunk whose transfer payload forbids some site")
    tampered = list(events)
    tampered[position] = dataclasses.replace(event, target=forbidden[0])

    report = auditor.audit_events(tampered)
    assert [(v.category, v.target, v.permitted) for v in report.violations] == [
        ("forbidden-destination", forbidden[0], tuple(sorted(permitted)))
    ]
    assert report.violations[0].message.startswith(f"chunk {event.chunk}/{event.of} ")
