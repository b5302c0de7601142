"""Differential soundness suite for the tracer + compliance auditor.

Theorem 1 as a *runtime* property: every execution the stack actually
performs — random TPC-H-derived queries x random curated policy sets x
random fault schedules (or none), on both operator backends — must
produce a trace the independent auditor declares compliant (zero
violations).  And the auditor must not be
vacuous: corrupting a single fragment's placement post-hoc (the same
mutation a buggy failover would make) has to be flagged on **every**
corrupted run, and rewriting a recorded transfer's destination to a
non-permitted site has to flag the mutated trace.

The auditor is differential by construction: it never sees the
optimizer's annotations, only the serialized payload descriptors in the
trace, and recomputes each payload's permitted-location set from the
policy catalog alone.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import NonCompliantQueryError
from repro.execution import (
    ExecutionEngine,
    FaultPlan,
    RetryPolicy,
    fragment_plan,
    relocate_fragment,
)
from repro.optimizer import CompliantOptimizer, check_compliance
from repro.plan import Ship, TableScan
from repro.tpch import AdHocQueryGenerator, QUERIES, curated_policies
from repro.trace import ComplianceAuditor, TraceRecorder, parse_trace, tracing

#: Curated policy-expression sets fuzzed over ("T" grants everything and
#: never rejects; the interesting sets are the restrictive ones).
POLICY_SETS = ("C", "CR", "CR+A")

#: Satellite requirement: >= 30 fuzzed (query, policies, faults) combos.
FUZZ_EXAMPLES = 30

_STATE: dict = {}


def _world(tpch_small, tpch_network):
    """Module cache: optimizers per policy set plus every compliant
    (query, policy-set, plan) combo from the TPC-H + ad-hoc pool."""
    if _STATE:
        return _STATE
    catalog, database = tpch_small
    queries = [(name, QUERIES[name]) for name in ("Q3", "Q5", "Q10")]
    queries += [
        (f"adhoc{i}", q.sql)
        for i, q in enumerate(AdHocQueryGenerator(seed=77).generate(6))
    ]
    optimizers = {
        pset: CompliantOptimizer(
            catalog, curated_policies(catalog, pset), tpch_network
        )
        for pset in POLICY_SETS
    }
    auditors = {
        pset: ComplianceAuditor(curated_policies(catalog, pset))
        for pset in POLICY_SETS
    }
    combos = []
    for label, sql in queries:
        for pset in POLICY_SETS:
            try:
                plan = optimizers[pset].optimize(sql).plan
            except NonCompliantQueryError:
                continue
            combos.append((label, pset, plan))
    assert len(combos) >= 15, "query pool too restrictive to fuzz"
    _STATE.update(
        catalog=catalog,
        database=database,
        network=tpch_network,
        optimizers=optimizers,
        auditors=auditors,
        combos=combos,
    )
    return _STATE


def _traced_run(world, plan, pset, executor, fault_seed):
    faults = None
    retry_policy = None
    if fault_seed is not None:
        faults = FaultPlan.random(fault_seed, world["catalog"].locations)
        retry_policy = RetryPolicy(max_retries=6)
    engine = ExecutionEngine(
        world["database"],
        world["network"],
        policy_guard=world["optimizers"][pset].evaluator,
        executor=executor,
        faults=faults,
        retry_policy=retry_policy,
    )
    recorder = TraceRecorder()
    with tracing(recorder):
        engine.execute(plan)
    return recorder


@settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_traced_execution_audits_clean(tpch_small, tpch_network, data):
    """Soundness: random query x policies x faults x mode, both
    executors — the auditor must report zero violations, through a full
    JSONL serialize/parse round-trip."""
    world = _world(tpch_small, tpch_network)
    label, pset, plan = data.draw(
        st.sampled_from(world["combos"]), label="combo"
    )
    fault_seed = data.draw(st.none() | st.integers(0, 9_999), label="fault_seed")
    for executor in ("row", "batch"):
        recorder = _traced_run(world, plan, pset, executor, fault_seed)
        events = parse_trace(recorder.to_jsonl())
        report = world["auditors"][pset].audit_events(events)
        key = (label, pset, executor, fault_seed)
        assert report.ok, (key, [str(v) for v in report.violations])
        assert report.queries == 1, key
        # Every cross-border attempt carried an auditable payload.
        if report.cross_border:
            assert report.payloads >= 1, key


def _displaced_shipped_scan(plan, catalog) -> bool:
    """True when some scan below a SHIP runs away from its table's
    stored location.  Scans in the *root* fragment never enter any
    shipped payload — the trace records data movement, so a scan that
    moves without any transfer is invisible to the auditor (and caught
    instead by ``check_recovery_placement`` at failover time)."""
    shipped: set[int] = set()
    for node in plan.walk():
        if isinstance(node, Ship) and node.child is not None:
            shipped.update(id(n) for n in node.child.walk())
    return any(
        isinstance(node, TableScan)
        and id(node) in shipped
        and catalog.stored_table(node.database, node.table).location
        != node.location
        for node in plan.walk()
    )


def _corruption_cases(world):
    """Every single-fragment relocation of a compliant plan that an
    auditor *must* flag: the corrupted plan either ships a payload over
    a border to a non-permitted site, or ships a payload whose scan ran
    away from the table's stored location."""
    if "corruptions" in _STATE:
        return _STATE["corruptions"]
    catalog = world["catalog"]
    cases = []
    for label, pset, plan in world["combos"]:
        evaluator = world["optimizers"][pset].evaluator
        fragments = fragment_plan(plan).fragments
        for index, fragment in enumerate(fragments):
            for site in sorted(catalog.locations):
                if site == fragment.location:
                    continue
                corrupted = relocate_fragment(plan, fragment, site)
                cross_border = any(
                    isinstance(v.node, Ship) and v.node.target != v.node.source
                    for v in check_compliance(corrupted, evaluator)
                )
                if cross_border or _displaced_shipped_scan(corrupted, catalog):
                    cases.append((label, pset, index, site, corrupted))
    assert len(cases) >= 30, "relocation mutations should be plentiful"
    _STATE["corruptions"] = cases
    return cases


@settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_corrupted_placements_are_flagged(tpch_small, tpch_network, data):
    """Sensitivity: execute a plan whose fragment placement was
    corrupted post-optimization (no policy guard — we *want* the bad
    run) and the audit of its trace must report >= 1 violation."""
    world = _world(tpch_small, tpch_network)
    label, pset, index, site, corrupted = data.draw(
        st.sampled_from(_corruption_cases(world)), label="corruption"
    )
    executor = data.draw(st.sampled_from(["row", "batch"]), label="executor")
    engine = ExecutionEngine(world["database"], world["network"], executor=executor)
    recorder = TraceRecorder()
    with tracing(recorder):
        engine.execute(corrupted)
    report = world["auditors"][pset].audit_events(recorder.events())
    assert not report.ok, (label, pset, index, site, executor)
    assert all(
        v.category in ("forbidden-destination", "displaced-scan")
        for v in report.violations
    )


def test_mutated_trace_destination_is_flagged(tpch_small, tpch_network):
    """Trace-level sensitivity: rewriting one delivered cross-border
    event's destination to a site outside the payload's permitted set
    must flip the verdict from COMPLIANT to >= 1 violation."""
    world = _world(tpch_small, tpch_network)
    label, pset, plan = next(
        c for c in world["combos"] if c[1] == "CR"
    )
    auditor = world["auditors"][pset]
    recorder = _traced_run(world, plan, pset, "row", fault_seed=None)
    assert auditor.audit_events(recorder.events()).ok

    lines = recorder.to_jsonl().splitlines()
    mutated = []
    flipped = 0
    for line in lines:
        entry = json.loads(line)
        if (
            not flipped
            and entry.get("kind") == "ship"
            and entry.get("outcome") == "delivered"
            and entry["source"] != entry["target"]
        ):
            # An off-catalog region is never in any permitted set.
            entry["target"] = "Atlantis"
            flipped += 1
        mutated.append(json.dumps(entry, sort_keys=True))
    assert flipped == 1, f"{label}: no cross-border transfer to mutate"
    report = auditor.audit_events(parse_trace("\n".join(mutated)))
    assert len(report.violations) >= 1
    assert report.violations[0].category == "forbidden-destination"


def test_unobservable_relocations_stay_clean(tpch_small, tpch_network):
    """The oracle is two-sided: a relocation that produces *no* illegal
    observable movement (no cross-border ship of a forbidden payload, no
    displaced scan inside any shipped payload) must audit clean — the
    auditor flags illegal data movement, not movement per se."""
    world = _world(tpch_small, tpch_network)
    catalog = world["catalog"]
    checked = 0
    for label, pset, plan in world["combos"]:
        if checked >= 5:
            break
        evaluator = world["optimizers"][pset].evaluator
        fragments = fragment_plan(plan).fragments
        for index, fragment in enumerate(fragments):
            for site in sorted(catalog.locations):
                if site == fragment.location or checked >= 5:
                    continue
                moved = relocate_fragment(plan, fragment, site)
                cross_border = any(
                    isinstance(v.node, Ship) and v.node.target != v.node.source
                    for v in check_compliance(moved, evaluator)
                )
                if cross_border or _displaced_shipped_scan(moved, catalog):
                    continue
                engine = ExecutionEngine(world["database"], world["network"])
                recorder = TraceRecorder()
                with tracing(recorder):
                    engine.execute(moved)
                report = world["auditors"][pset].audit_events(recorder.events())
                assert report.ok, (label, pset, index, site)
                checked += 1
    assert checked >= 1, "expected at least one clean relocation in the pool"
