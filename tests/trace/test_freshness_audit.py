"""The auditor's per-scan freshness verdicts.

The trace carries a *claim* (``staleness_at_read`` on scan_read events
and payload scan descriptors); the auditor trusts none of it — it
re-derives every read's staleness from the catalog's replica set and
refresh schedules and classifies each read fresh / stale-within-bound /
bound-violated.  A claim that disagrees with the derivation is itself a
violation, and evidence the auditor cannot re-derive fails closed.
"""

import dataclasses

import pytest

from repro.catalog import FreshnessTracker, RefreshSchedule
from repro.errors import FreshnessAuditError
from repro.execution import FragmentScheduler, FreshnessPolicy
from repro.policy import PolicyCatalog
from repro.trace import (
    ComplianceAuditor,
    OptimizedEvent,
    ScanReadEvent,
    ShipEvent,
    TraceRecorder,
    annotate_payload_reads,
    payload_reads,
    strip_payload_reads,
    parse_trace,
    tracing,
)

from ..execution.test_freshness_runtime import freshness_world, scan_plan


def traced_run(mode="plan-only", bound=None, start_at=0.0):
    """One traced run of the replicated scan plan; returns the world's
    catalog, its policy set, and the recorded events (through a full
    JSONL serialize/parse round-trip)."""
    catalog, database, network = freshness_world()
    policies = PolicyCatalog(catalog)
    policies.add_text("ship id from emp to *")
    policy = FreshnessPolicy(
        FreshnessTracker(catalog), mode=mode, max_staleness=bound
    )
    scheduler = FragmentScheduler(database, network, freshness=policy)
    recorder = TraceRecorder()
    with tracing(recorder):
        _, metrics = scheduler.run(scan_plan("L2"), start_at=start_at)
    assert metrics.partial_failure is None
    events = parse_trace(recorder.to_jsonl())
    return catalog, policies, events, metrics


def test_roundtrip_verdicts_and_counter_reconciliation():
    catalog, policies, events, metrics = traced_run(mode="plan-only")
    auditor = ComplianceAuditor(policies, freshness=FreshnessTracker(catalog))
    report = auditor.audit_events(events)
    assert report.ok
    assert report.scan_reads == 1
    assert report.fresh_reads == 0
    assert report.stale_within_bound == 1  # 0.3s stale, no bound declared
    assert report.bound_violated == 0
    assert "1 replica reads" in report.summary()
    # Runtime counters reconcile 1:1 against the trace.
    scan_events = [e for e in events if isinstance(e, ScanReadEvent)]
    assert len(scan_events) == len(metrics.scan_reads)
    assert (
        sum(1 for e in scan_events if e.staleness_at_read > 1e-9)
        == metrics.stale_reads
    )
    # The ship out of the scan fragment carries the freshness claim.
    ships = [e for e in events if isinstance(e, ShipEvent)]
    assert any(e.staleness_at_read == pytest.approx(0.3) for e in ships)
    annotated = [e for e in ships if payload_reads(e.payload or {})]
    assert annotated


def test_auditor_bound_flags_stale_reads_plan_only_served():
    catalog, policies, events, metrics = traced_run(mode="plan-only")
    assert metrics.stale_reads == 1  # plan-only served the stale read
    auditor = ComplianceAuditor(
        policies, freshness=FreshnessTracker(catalog), max_staleness=0.1
    )
    report = auditor.audit_events(events)
    assert report.bound_violated == 1
    assert [v.category for v in report.violations] == ["stale-read"]


def test_traced_per_query_bound_overrides_auditor_default():
    catalog, policies, events, _ = traced_run(mode="plan-only")
    (scan_event,) = [e for e in events if isinstance(e, ScanReadEvent)]
    declared = OptimizedEvent(query=scan_event.query, at=0.0, max_staleness=1.0)
    auditor = ComplianceAuditor(
        policies, freshness=FreshnessTracker(catalog), max_staleness=0.1
    )
    # The traced bound (1.0s) wins over the auditor's 0.1s default.
    report = auditor.audit_events([declared, *events])
    assert report.bound_violated == 0
    assert report.stale_within_bound == 1


def test_missing_tracker_fails_closed():
    _, policies, events, _ = traced_run(mode="plan-only")
    with pytest.raises(FreshnessAuditError, match="no freshness tracker"):
        ComplianceAuditor(policies).audit_events(events)


def test_mismatched_catalog_fails_closed():
    catalog, policies, events, _ = traced_run(mode="plan-only")
    catalog.drop_replica("db1", "emp", "L2")  # audit-side catalog diverges
    auditor = ComplianceAuditor(policies, freshness=FreshnessTracker(catalog))
    with pytest.raises(FreshnessAuditError, match="cannot re-derive"):
        auditor.audit_events(events)


def test_tampered_scan_read_is_a_misreport():
    catalog, policies, events, _ = traced_run(mode="plan-only")
    tampered = [
        dataclasses.replace(e, staleness_at_read=0.0)
        if isinstance(e, ScanReadEvent)
        else e
        for e in events
    ]
    auditor = ComplianceAuditor(policies, freshness=FreshnessTracker(catalog))
    report = auditor.audit_events(tampered)
    assert any(v.category == "freshness-misreport" for v in report.violations)
    # The verdict still uses the *derived* staleness, not the claim.
    assert report.stale_within_bound == 1


def test_tampered_payload_claim_is_a_misreport():
    catalog, policies, events, _ = traced_run(mode="plan-only")
    tampered = []
    for event in events:
        if isinstance(event, ShipEvent) and payload_reads(event.payload or {}):
            payload = event.payload
            for node in payload_reads(payload):
                node["staleness_at_read"] = 0.0
            event = dataclasses.replace(event, payload=payload)
        tampered.append(event)
    auditor = ComplianceAuditor(policies, freshness=FreshnessTracker(catalog))
    report = auditor.audit_events(tampered)
    assert any(v.category == "freshness-misreport" for v in report.violations)


def test_ship_claim_without_annotated_scan_fails_closed():
    catalog, policies, events, _ = traced_run(mode="plan-only")
    stripped = []
    for event in events:
        if isinstance(event, ShipEvent) and event.staleness_at_read is not None:
            event = dataclasses.replace(
                event, payload=strip_payload_reads(event.payload)
            )
        stripped.append(event)
    auditor = ComplianceAuditor(policies, freshness=FreshnessTracker(catalog))
    with pytest.raises(FreshnessAuditError, match="no annotated scan"):
        auditor.audit_events(stripped)


def test_scheduled_replica_derivation_matches_runtime():
    """With a refresh schedule, the audit-side catalog must carry the
    same schedule for verdicts to re-derive — and then they agree with
    the runtime to the misreport tolerance."""
    catalog, database, network = freshness_world()
    catalog.set_refresh("db1", "emp", "L2", RefreshSchedule(period=0.2))
    policies = PolicyCatalog(catalog)
    policies.add_text("ship id from emp to *")
    policy = FreshnessPolicy(FreshnessTracker(catalog), mode="plan-only")
    scheduler = FragmentScheduler(database, network, freshness=policy)
    recorder = TraceRecorder()
    with tracing(recorder):
        _, metrics = scheduler.run(scan_plan("L2"), start_at=0.35)
    events = parse_trace(recorder.to_jsonl())
    (read,) = metrics.scan_reads
    assert read.staleness_seconds == pytest.approx(0.15)  # 0.35 - 0.2
    report = ComplianceAuditor(
        policies, freshness=FreshnessTracker(catalog)
    ).audit_events(events)
    assert report.ok
    assert report.stale_within_bound == 1


def test_payload_annotation_codec_roundtrip():
    """annotate/read/strip are inverse: annotations attach to matching
    scan descriptors, are discoverable, and strip back to the original
    payload (the auditor's permitted-set cache key)."""
    from repro.execution import fragment_plan
    from repro.execution.metrics import ScanRead
    from repro.trace import encode_payload

    plan = scan_plan("L2")
    dag = fragment_plan(plan)
    payload = encode_payload(dag.fragments[0].root)
    before = strip_payload_reads(payload)
    reads = (ScanRead("db1", "emp", "L2", 0.4, 0.15),)
    annotated = annotate_payload_reads(payload, reads)
    (node,) = payload_reads(annotated)
    assert node["read_at"] == 0.4
    assert node["staleness_at_read"] == 0.15
    assert payload == before  # the original was never mutated
    assert strip_payload_reads(annotated) == before
