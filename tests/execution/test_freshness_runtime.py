"""Runtime freshness: staleness-checked admission and failover.

Plan-time replica filtering (PR 8's ``--max-staleness``) trusts the
catalog's *declared* bounds; these tests exercise the runtime half —
every scan-bearing fragment admission re-derives each replica's
staleness at that instant and demotes (or waits, or refuses) per the
configured policy, with every decision visible in metrics and recovery
records.
"""

import pytest

from repro.catalog import (
    Catalog,
    Column,
    FreshnessTracker,
    RefreshPause,
    RefreshSchedule,
    TableSchema,
)
from repro.datatypes import DataType
from repro.errors import ExecutionError, InvalidParameterError
from repro.expr import BaseColumn
from repro.execution import (
    ExecutionEngine,
    FailoverPlanner,
    FragmentScheduler,
    FreshnessPolicy,
    RetryPolicy,
    fragment_plan,
)
from repro.geo import GeoDatabase, NetworkModel
from repro.optimizer import CompliantOptimizer
from repro.plan import Field, Project, Ship, TableScan

from ..conftest import rows_as_multiset

SITES = ("L1", "L2", "L3", "L4")
ROWS = [(i,) for i in range(8)]


def freshness_world(near=0.3, far=0.3):
    """emp primary at L1 with replicas at L2 (``near`` seconds stale,
    statically) and L3 (``far``); the result is pinned at L4 over a
    network with identical link costs everywhere."""
    catalog = Catalog()
    for i, site in enumerate(SITES):
        catalog.add_database(f"db{i + 1}", site)
    catalog.add_table(
        "db1",
        TableSchema("emp", (Column("id", DataType.INTEGER),), primary_key=("id",)),
        row_count=len(ROWS),
    )
    catalog.add_replica("db1", "emp", "L2", staleness_seconds=near)
    catalog.add_replica("db1", "emp", "L3", staleness_seconds=far)
    database = GeoDatabase(catalog)
    database.load("db1", "emp", ROWS)
    network = NetworkModel()
    for src in SITES:
        for dst in SITES:
            if src != dst:
                network.set_link(src, dst, alpha=0.05, beta=1e-6)
    return catalog, database, network


def scan_plan(scan_site, trait=("L1", "L2", "L3")):
    """Hand-built scan@``scan_site`` shipping to a pinned root at L4."""
    fields = (Field("id", DataType.INTEGER, base=BaseColumn("db1", "emp", "id")),)
    scan = TableScan(
        fields=fields,
        location=scan_site,
        execution_trait=frozenset(trait),
        table="emp",
        database="db1",
        alias="e",
    )
    ship = Ship(
        fields=fields, location="L4", child=scan, source=scan_site, target="L4"
    )
    return Project(
        fields=fields,
        location="L4",
        execution_trait=frozenset({"L4"}),
        child=ship,
        exprs=tuple(f.to_ref() for f in fields),
        names=tuple(f.name for f in fields),
    )


def run_with(
    catalog,
    database,
    network,
    plan,
    mode,
    bound=None,
    retry_policy=None,
    start_at=0.0,
):
    policy = FreshnessPolicy(
        FreshnessTracker(catalog), mode=mode, max_staleness=bound
    )
    scheduler = FragmentScheduler(
        database, network, retry_policy=retry_policy, freshness=policy
    )
    return scheduler.run(plan, start_at=start_at)


def baseline_rows(database, network, plan):
    return rows_as_multiset(
        ExecutionEngine(database, network, parallel=True).execute(plan).rows
    )


# -- policy validation ---------------------------------------------------------


def test_policy_rejects_unknown_mode_and_negative_bound():
    catalog, _, _ = freshness_world()
    tracker = FreshnessTracker(catalog)
    with pytest.raises(InvalidParameterError, match="unknown staleness policy"):
        FreshnessPolicy(tracker, mode="yolo")
    with pytest.raises(InvalidParameterError, match="must be >= 0"):
        FreshnessPolicy(tracker, max_staleness=-1.0)


def test_engine_requires_parallel_for_freshness():
    catalog, database, network = freshness_world()
    policy = FreshnessPolicy(FreshnessTracker(catalog))
    with pytest.raises(ExecutionError, match="parallel=True"):
        ExecutionEngine(database, network, freshness=policy)


# -- read-stale: bounded staleness, minimum disruption ------------------------


def test_read_stale_commits_within_bound():
    catalog, database, network = freshness_world()
    plan = scan_plan("L2")
    batch, metrics = run_with(
        catalog, database, network, plan, "read-stale", bound=0.5
    )
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    assert metrics.stale_reads == 1
    assert metrics.freshness_demotions == 0
    (read,) = metrics.scan_reads
    assert (read.database, read.table, read.site) == ("db1", "emp", "L2")
    assert read.staleness_seconds == pytest.approx(0.3)


def test_read_stale_demotes_on_bound_violation():
    catalog, database, network = freshness_world()
    plan = scan_plan("L2")
    batch, metrics = run_with(
        catalog, database, network, plan, "read-stale", bound=0.1
    )
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    # L3 is as stale as L2: only the primary satisfies the bound.
    assert metrics.freshness_demotions == 1
    assert metrics.stale_reads == 0
    (record,) = metrics.recoveries
    assert record.kind == "replica"
    assert (record.from_site, record.to_site) == ("L2", "L1")
    assert record.staleness_at_read == pytest.approx(0.3)


def test_bound_violation_with_no_legal_copy_is_partial_failure():
    catalog, database, network = freshness_world()
    plan = scan_plan("L2", trait=("L2", "L3"))  # primary not compliant
    # Both copies are equally stale, so demoting cannot help either.
    for mode in ("read-stale", "prefer-fresh"):
        batch, metrics = run_with(
            catalog, database, network, plan, mode, bound=0.1
        )
        assert metrics.partial_failure is not None, mode
        assert metrics.partial_failure.error_type == "ReplicaStaleError", mode
        assert metrics.stale_reads == 0, mode  # the violating read never committed
        assert batch.rows == [], mode


# -- prefer-fresh: demote whenever a fresher copy exists ----------------------


def test_prefer_fresh_soft_demotes_to_primary():
    catalog, database, network = freshness_world()
    plan = scan_plan("L2")
    batch, metrics = run_with(catalog, database, network, plan, "prefer-fresh")
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    assert metrics.freshness_demotions == 1
    assert metrics.stale_reads == 0
    assert metrics.scan_reads == []  # primary reads are exact, untracked
    (record,) = metrics.recoveries
    assert record.kind == "replica"
    assert record.to_site == "L1"
    assert record.staleness_at_read == pytest.approx(0.3)


def test_prefer_fresh_commits_when_nothing_fresher_is_placeable():
    catalog, database, network = freshness_world()
    plan = scan_plan("L2", trait=("L2", "L3"))  # both copies equally stale
    batch, metrics = run_with(catalog, database, network, plan, "prefer-fresh")
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    assert metrics.freshness_demotions == 0
    assert metrics.stale_reads == 1  # in-bound (no bound): committed as-is


# -- wait-for-refresh ----------------------------------------------------------


def test_wait_for_refresh_parks_until_the_refresh_lands():
    catalog, database, network = freshness_world()
    catalog.set_refresh("db1", "emp", "L2", RefreshSchedule(period=0.5))
    plan = scan_plan("L2", trait=("L2",))  # pinned: waiting is the only option
    batch, metrics = run_with(
        catalog,
        database,
        network,
        plan,
        "wait-for-refresh",
        bound=0.1,
        start_at=0.3,
    )
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    assert metrics.refresh_waits == 1
    assert metrics.refresh_wait_seconds == pytest.approx(0.2)
    assert metrics.stale_reads == 0  # read exactly at the refresh instant
    (read,) = metrics.scan_reads
    assert read.at_seconds == pytest.approx(0.5)
    assert metrics.makespan_seconds >= 0.5


def test_wait_for_refresh_demotes_when_wait_blows_fragment_timeout():
    catalog, database, network = freshness_world()
    catalog.set_refresh("db1", "emp", "L2", RefreshSchedule(period=0.5))
    plan = scan_plan("L2")
    batch, metrics = run_with(
        catalog,
        database,
        network,
        plan,
        "wait-for-refresh",
        bound=0.1,
        retry_policy=RetryPolicy(fragment_timeout=0.1),
        start_at=0.3,
    )
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    assert metrics.refresh_waits == 0
    assert metrics.freshness_demotions == 1
    (record,) = metrics.recoveries
    assert record.to_site == "L1"


def test_wait_for_refresh_paused_forever_degrades():
    catalog, database, network = freshness_world()
    catalog.set_refresh(
        "db1", "emp", "L2",
        RefreshSchedule(period=0.5, pauses=(RefreshPause(at=0.0),)),
    )
    plan = scan_plan("L2", trait=("L2",))
    batch, metrics = run_with(
        catalog,
        database,
        network,
        plan,
        "wait-for-refresh",
        bound=0.1,
        start_at=0.3,
    )
    # No refresh is ever coming and no alternative copy is legal: the
    # query degrades rather than serve a bound-violating read.
    assert metrics.partial_failure is not None
    assert metrics.partial_failure.error_type == "ReplicaStaleError"


# -- plan-only: the experiment baseline ---------------------------------------


def test_plan_only_serves_bound_violating_rows_but_records_them():
    catalog, database, network = freshness_world()
    plan = scan_plan("L2")
    batch, metrics = run_with(
        catalog, database, network, plan, "plan-only", bound=0.1
    )
    assert metrics.partial_failure is None
    assert rows_as_multiset(batch.rows) == baseline_rows(database, network, plan)
    assert metrics.freshness_demotions == 0
    assert metrics.stale_reads == 1  # recorded, not enforced
    (read,) = metrics.scan_reads
    assert read.staleness_seconds == pytest.approx(0.3)


# -- scheduled staleness varies with the admission instant --------------------


def test_scheduled_replica_staleness_depends_on_admission_instant():
    catalog, database, network = freshness_world()
    catalog.set_refresh("db1", "emp", "L2", RefreshSchedule(period=10.0, phase=10.0))
    plan = scan_plan("L2")
    # Admitted at t=0.05 the copy is 0.05s stale — within the bound.
    _, early = run_with(
        catalog, database, network, plan, "read-stale", bound=0.1, start_at=0.05
    )
    assert early.freshness_demotions == 0
    assert early.stale_reads == 1
    # The *same plan* admitted at t=0.3 violates the bound and demotes:
    # plan-time legality is never trusted at runtime.
    _, late = run_with(
        catalog, database, network, plan, "read-stale", bound=0.1, start_at=0.3
    )
    assert late.freshness_demotions == 1
    assert late.stale_reads == 0


# -- failover-planner ranking (satellite: deterministic tie-break) ------------


def equal_cost_failover(near, far, mode="read-stale", bound=None):
    catalog, database, network = freshness_world(near=near, far=far)
    plan = scan_plan("L1")
    dag = fragment_plan(plan)
    policy = FreshnessPolicy(
        FreshnessTracker(catalog), mode=mode, max_staleness=bound
    )
    planner = FailoverPlanner(network, freshness=policy)
    return planner.plan_failover(
        plan, dag, 0, unavailable=frozenset({"L1"}), reason="crash", at=1.0
    )


def test_equally_priced_replicas_tie_break_freshest_first():
    choice = equal_cost_failover(near=0.2, far=0.1)
    assert choice is not None
    assert choice.to_site == "L3"  # identical link costs: freshest wins
    assert choice.staleness == pytest.approx(0.1)
    # Flip the staleness profile: the ranking flips with it.
    assert equal_cost_failover(near=0.1, far=0.2).to_site == "L2"


def test_equally_stale_replicas_tie_break_lexicographic():
    choice = equal_cost_failover(near=0.2, far=0.2)
    assert choice is not None
    assert choice.to_site == "L2"


def test_enforcing_planner_drops_bound_violating_candidates():
    choice = equal_cost_failover(near=0.05, far=0.3, bound=0.1)
    assert choice is not None
    assert choice.to_site == "L2"  # L3 violates the bound: never chosen
    # Nothing within the bound -> no failover at all (fail closed).
    assert equal_cost_failover(near=0.3, far=0.3, bound=0.1) is None


# -- plan cache x refresh schedules (satellite: precise invalidation) ---------


def test_refresh_schedule_change_invalidates_warm_plan_cache():
    from .test_replica_failover import QUERY, build_world

    catalog, database, network, _ = build_world()
    from repro.policy import PolicyCatalog

    policies = PolicyCatalog(catalog)
    policies.add_text("ship k, v from t to near, far")
    policies.add_text("ship k, w from u to *")
    optimizer = CompliantOptimizer(
        catalog, policies, network, plan_cache=True
    )
    optimizer.optimize(QUERY)
    warm = optimizer.optimize(QUERY)
    assert warm.cache_hit
    # Registering a refresh schedule bumps the catalog version: the
    # cached located plan pinned its scan under the old freshness
    # profile, so the next lookup must re-derive.
    catalog.set_refresh("db1", "t", "near", RefreshSchedule(period=0.1))
    after = optimizer.optimize(QUERY)
    assert not after.cache_hit
    assert optimizer.plan_cache.stats.invalidations == 1
    # And the re-stored entry serves hits again at the new version.
    assert optimizer.optimize(QUERY).cache_hit
