"""Replica failover: the planner's first resort for scan-bearing
fragments.

A fragment that scans a base table used to be pinned — crashing its
site was a guaranteed partial failure.  With a *compliant* replica
registered, the scan's ℰ includes the replica site, so the failover
planner moves the whole fragment there (``kind == "replica"``), the
scheduler re-derives the payload descriptor (the replica site is the
new scan source), and the run finishes row-identically.  Breakers
steer: a candidate whose links are refused by an open circuit breaker
sorts last.
"""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.errors import CircuitOpenError
from repro.execution import (
    ExecutionEngine,
    FragmentScheduler,
    RetryPolicy,
    fragment_plan,
    fragment_scans,
    parse_fault_spec,
    scan_sites,
)
from repro.geo import GeoDatabase, synthetic_network
from repro.optimizer import CompliantOptimizer
from repro.plan import TableScan
from repro.policy import PolicyCatalog
from repro.server import BreakerConfig, BreakerRegistry

from ..conftest import rows_as_multiset

QUERY = "SELECT t.k, t.v, u.w FROM t, u WHERE t.k = u.k"


def build_world(t_replica=True, u_replica=False):
    """t (small) at home with an optional compliant replica at near;
    u (large) at far with an optional replica at near.  The join lands
    at far, so the t-scan is its own cross-border fragment."""
    catalog = Catalog()
    catalog.add_database("db1", "home")
    catalog.add_database("db2", "near")
    catalog.add_database("db3", "far")
    catalog.add_table(
        "db1",
        TableSchema(
            "t",
            (Column("k", DataType.INTEGER), Column("v", DataType.INTEGER)),
            primary_key=("k",),
        ),
        row_count=10,
    )
    catalog.add_table(
        "db3",
        TableSchema(
            "u",
            (Column("k", DataType.INTEGER), Column("w", DataType.INTEGER)),
            primary_key=("k",),
        ),
        row_count=1000,
    )
    policies = PolicyCatalog(catalog)
    policies.add_text("ship k, v from t to near, far")
    policies.add_text("ship k, w from u to *")
    if t_replica:
        catalog.add_replica("db1", "t", "near")
    if u_replica:
        catalog.add_replica("db3", "u", "near")
    database = GeoDatabase(catalog)
    database.load("db1", "t", [(i, i * 3) for i in range(10)])
    database.load("db3", "u", [(i % 10, i) for i in range(1000)])
    network = synthetic_network(catalog.locations)
    optimizer = CompliantOptimizer(catalog, policies, network)
    return catalog, database, network, optimizer


def t_scan_site(plan):
    for node in plan.walk():
        if isinstance(node, TableScan) and node.table == "t":
            return node.location
    raise AssertionError("no t scan")


def test_scan_site_crash_fails_over_to_compliant_replica():
    catalog, database, network, optimizer = build_world()
    plan = optimizer.optimize(QUERY).plan
    site = t_scan_site(plan)
    baseline = ExecutionEngine(database, network).execute(plan)

    faults = parse_fault_spec(f"crash:{site}@0", locations=catalog.locations)
    engine = ExecutionEngine(
        database,
        network,
        faults=faults,
        policy_guard=optimizer.evaluator,
    )
    result = engine.execute(plan)
    assert result.partial_failure is None
    assert rows_as_multiset(result.rows) == rows_as_multiset(baseline.rows)

    metrics = result.metrics
    assert metrics.replica_failovers >= 1
    # The scan's own site died: without the replica this run was a
    # guaranteed partial failure.
    assert metrics.partial_failures_avoided >= 1
    assert metrics.replica_switches_breaker == 0  # no breakers installed
    replica_recoveries = [r for r in metrics.recoveries if r.kind == "replica"]
    assert metrics.replica_failovers == len(replica_recoveries)
    assert metrics.freshness_demotions == 0  # a crash, not a stale read
    for record in replica_recoveries:
        assert record.validated
        assert record.from_site == site
        # ℰ of the t-scan is {home, near}: the failover target is the
        # other legal copy (primary or replica, whichever was not hit).
        assert record.to_site in {"home", "near"} - {site}


def test_same_crash_without_replica_is_partial_failure():
    catalog, database, network, optimizer = build_world(t_replica=False)
    plan = optimizer.optimize(QUERY).plan
    site = t_scan_site(plan)
    faults = parse_fault_spec(f"crash:{site}@0", locations=catalog.locations)
    engine = ExecutionEngine(
        database,
        network,
        faults=faults,
        policy_guard=optimizer.evaluator,
    )
    result = engine.execute(plan)
    assert result.partial_failure is not None
    assert result.partial_failure.error_type == "SiteUnavailableError"
    assert result.metrics.replica_failovers == 0


def test_replica_failover_updates_fragment_scan_sites():
    """After a replica-kind failover the re-fragmented DAG reads the
    table at the replica site — the payload the auditor sees."""
    catalog, database, network, optimizer = build_world()
    plan = optimizer.optimize(QUERY).plan
    site = t_scan_site(plan)
    dag = fragment_plan(plan)
    before = {s for f in dag.fragments for s in scan_sites(f)}
    assert ("db1", "t", site) in before

    faults = parse_fault_spec(f"crash:{site}@0", locations=catalog.locations)
    scheduler = FragmentScheduler(
        database,
        network,
        faults=faults,
        compliance_guard=optimizer.evaluator,
    )
    _batch, metrics = scheduler.run(plan)
    assert metrics.partial_failure is None
    assert any(r.kind == "replica" for r in metrics.recoveries)


def test_breaker_steered_replica_switch():
    """An open breaker on the consumer's input link re-places the
    (scan-bearing) consumer at the replica site and counts the switch
    as breaker-steered."""
    catalog, database, network, optimizer = build_world(u_replica=True)
    # Pin the result at far so the u-scan + join fragment stays there
    # (collapsing at the near replicas would be cheaper otherwise).
    plan = optimizer.optimize(QUERY, result_location="far").plan
    t_site = t_scan_site(plan)
    assert t_site != "far"
    dag = fragment_plan(plan)
    (consumer,) = [
        f
        for f in dag.fragments
        if fragment_scans(f) and any(s[1] == "u" for s in scan_sites(f))
    ]
    assert consumer.location == "far"

    # Trip the t-site -> far breaker before the run: every delivery into
    # far fast-fails with CircuitOpenError, so the consumer must move.
    breakers = BreakerRegistry(BreakerConfig(cooldown=1e9))
    for i in range(20):
        breakers.record_failure(t_site, "far", i * 1e-4)
    assert not breakers.allow(t_site, "far", 1.0)

    scheduler = FragmentScheduler(
        database,
        network,
        retry_policy=RetryPolicy(max_retries=1),
        compliance_guard=optimizer.evaluator,
        breakers=breakers,
    )
    # Start past the failure burst so the open window covers the run.
    batch, metrics = scheduler.run(plan, start_at=1.0)
    assert metrics.partial_failure is None
    assert metrics.replica_failovers >= 1
    assert metrics.replica_switches_breaker >= 1
    moved = [r for r in metrics.recoveries if r.kind == "replica"]
    assert any(r.from_site == "far" and r.to_site == "near" for r in moved)

    baseline = ExecutionEngine(database, network).execute(plan)
    assert rows_as_multiset(batch.rows) == rows_as_multiset(baseline.rows)


def replicated_chain():
    """Hand-built scan@L1 (ℰ = {L1, L2, L3}: two replica alternates)
    shipping to a pinned root at L4, over a network where L3 -> L4 is
    much cheaper than L2 -> L4."""
    from repro.geo import NetworkModel
    from repro.plan import Field, Project, Ship

    sites = ("L1", "L2", "L3", "L4")
    network = NetworkModel()
    for src in sites:
        for dst in sites:
            if src != dst:
                alpha = 0.05 if dst == "L4" and src == "L3" else 0.2
                network.set_link(src, dst, alpha=alpha, beta=1e-6)
    fields = (Field("id", DataType.INTEGER),)
    scan = TableScan(
        fields=fields,
        location="L1",
        execution_trait=frozenset({"L1", "L2", "L3"}),
        table="emp",
        database="db1",
        alias="e",
    )
    ship = Ship(fields=fields, location="L4", child=scan, source="L1", target="L4")
    root = Project(
        fields=fields,
        location="L4",
        execution_trait=frozenset({"L4"}),
        child=ship,
        exprs=tuple(f.to_ref() for f in fields),
        names=tuple(f.name for f in fields),
    )
    return root, network


def test_breaker_ranking_prefers_closed_links():
    """With two compliant replica alternates, the failover planner
    ranks the candidate whose output link has an open breaker below the
    healthy one — even though the open-link site is cheaper."""
    from repro.execution import FailoverPlanner

    plan, network = replicated_chain()
    dag = fragment_plan(plan)
    assert fragment_scans(dag.fragments[0])

    healthy = FailoverPlanner(network)
    choice = healthy.plan_failover(
        plan, dag, 0, unavailable=frozenset({"L1"}), reason="crash", at=1.0
    )
    assert choice is not None
    assert choice.kind == "replica"
    assert choice.to_site == "L3"  # cheapest link to the consumer

    breakers = BreakerRegistry(BreakerConfig(cooldown=1e9))
    for i in range(20):
        breakers.record_failure("L3", "L4", i * 1e-4)
    steered = FailoverPlanner(network, breakers=breakers)
    choice = steered.plan_failover(
        plan, dag, 0, unavailable=frozenset({"L1"}), reason="crash", at=1.0
    )
    assert choice is not None
    assert choice.to_site == "L2"  # L3's link is open: sorts last

    # An open link never *removes* a candidate: when every alternate is
    # refused, availability still wins over breaker avoidance.
    for i in range(20):
        breakers.record_failure("L2", "L4", i * 1e-4)
    choice = steered.plan_failover(
        plan, dag, 0, unavailable=frozenset({"L1"}), reason="crash", at=1.0
    )
    assert choice is not None
    assert choice.to_site == "L3"  # back to cheapest among equally open
