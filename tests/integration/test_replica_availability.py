"""Replica availability: seeded site crashes and link loss against a
fully replicated TPC-H catalog.

The tentpole's acceptance property: under policy set T every base table
has at least one *compliant* replica at another site, so any
single-site crash leaves a legal copy of everything — the failover
planner's replica-first resort must then serve **100%** of the sweep
with zero row divergence, where the identical sweep against the
replica-free catalog degrades at least some runs to typed
``PartialFailure``s (never wrong rows).  Traced faulted runs must audit
clean against the replicated catalog.
"""

import pytest

from repro.execution import (
    ExecutionEngine,
    RetryPolicy,
    fragment_plan,
    parse_fault_spec,
)
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

from ..conftest import rows_as_multiset

#: Compliant replicas giving every TPC-H table a copy at *both* Europe
#: and NorthAmerica — the two sites inside every table's full-scan grant
#: 𝒜 under set T.  Dual-site coverage matters: replica-aware placement
#: collapses whole plans into one fragment, and a collapsed fragment can
#: only fail over if all its scans share a common alternate site.
REPLICAS = (
    ("db1", "customer", "NorthAmerica"),
    ("db1", "orders", "NorthAmerica"),
    ("db2", "supplier", "Europe"),
    ("db2", "supplier", "NorthAmerica"),
    ("db2", "partsupp", "Europe"),
    ("db2", "partsupp", "NorthAmerica"),
    ("db3", "part", "Europe"),
    ("db3", "part", "NorthAmerica"),
    ("db4", "lineitem", "Europe"),
    ("db5", "nation", "Europe"),
    ("db5", "nation", "NorthAmerica"),
    ("db5", "region", "Europe"),
    ("db5", "region", "NorthAmerica"),
)

QUERY_NAMES = ("Q3", "Q5", "Q10")
RETRIES = RetryPolicy(max_retries=3)


def build_world(replicated: bool):
    catalog, database = build_benchmark(scale=0.002)
    if replicated:
        for db, table, site in REPLICAS:
            catalog.add_replica(db, table, site)
    network = default_network()
    policies = curated_policies(catalog, "T")
    optimizer = CompliantOptimizer(catalog, policies, network)
    plans = {name: optimizer.optimize(QUERIES[name]).plan for name in QUERY_NAMES}
    baselines = {
        name: ExecutionEngine(database, network).execute(plan)
        for name, plan in plans.items()
    }
    return catalog, database, network, optimizer, plans, baselines


@pytest.fixture(scope="module")
def replicated():
    return build_world(replicated=True)


@pytest.fixture(scope="module")
def replica_free():
    return build_world(replicated=False)


def crash_sweep(world):
    """Run every query under a crash of every location; yields
    (key, baseline, result)."""
    catalog, database, network, optimizer, plans, baselines = world
    for name, plan in plans.items():
        for site in sorted(catalog.locations):
            faults = parse_fault_spec(
                f"crash:{site}@0", locations=catalog.locations
            )
            engine = ExecutionEngine(
                database,
                network,
                faults=faults,
                retry_policy=RETRIES,
                policy_guard=optimizer.evaluator,
            )
            yield (name, site), baselines[name], engine.execute(plan)


def test_replicated_catalog_survives_every_single_site_crash(replicated):
    """100% availability: every (query, crashed site) combo serves
    row-identical results — no partial failures anywhere."""
    served = 0
    failovers = 0
    avoided = 0
    for key, baseline, result in crash_sweep(replicated):
        assert result.partial_failure is None, key
        assert rows_as_multiset(result.rows) == rows_as_multiset(
            baseline.rows
        ), key
        served += 1
        failovers += result.metrics.replica_failovers
        avoided += result.metrics.partial_failures_avoided
        for record in result.metrics.recoveries:
            assert record.validated, key
    assert served == len(QUERY_NAMES) * 5
    # The sweep must actually exercise the replica path, including
    # saves of fragments whose own scan site died.
    assert failovers > 0
    assert avoided > 0


def test_replica_free_catalog_degrades_on_the_same_sweep(replica_free):
    """Control: the identical sweep without replicas yields at least one
    typed PartialFailure (pinned scan sites) and zero wrong answers."""
    degraded = 0
    for key, baseline, result in crash_sweep(replica_free):
        if result.partial_failure is not None:
            degraded += 1
            assert result.rows == [], key
            assert result.metrics.replica_failovers == 0, key
        else:
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                baseline.rows
            ), key
    assert degraded > 0


def test_replicated_plans_collapse_away_cross_border_ships(
    replicated, replica_free
):
    """With every table legally copied to a common site, placement
    collapses each plan into a single local fragment: the baseline
    schedules use **zero** cross-site links, so no replicated schedule
    is slower than its replica-free twin."""
    _, _, _, _, _, baselines = replicated
    *_, free_baselines = replica_free
    for name, base in baselines.items():
        links = {
            (s.source, s.target)
            for s in base.metrics.ships
            if s.source != s.target
        }
        assert links == set(), name
        assert base.makespan_seconds <= free_baselines[name].makespan_seconds, name


def test_sustained_link_loss_spares_the_replicated_catalog(
    replicated, replica_free
):
    """Permanently drop every link the *replica-free* schedules depend
    on.  Replicated plans never touch those links, so every run serves
    row-identically; replica-free runs may degrade (typed partial
    failure) but must never return wrong rows."""
    catalog, database, network, optimizer, plans, baselines = replicated
    _, free_db, _, free_opt, free_plans, free_base = replica_free
    links = sorted(
        {
            (s.source, s.target)
            for base in free_base.values()
            for s in base.metrics.ships
            if s.source != s.target
        }
    )
    assert links  # replica-free schedules do ship cross-site
    for src, dst in links:
        faults = parse_fault_spec(
            f"drop:{src}->{dst}@0", locations=catalog.locations
        )
        for name, plan in plans.items():
            engine = ExecutionEngine(
                database,
                network,
                faults=faults,
                retry_policy=RETRIES,
                policy_guard=optimizer.evaluator,
            )
            result = engine.execute(plan)
            key = (name, src, dst)
            assert result.partial_failure is None, key
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                baselines[name].rows
            ), key
        for name, plan in free_plans.items():
            engine = ExecutionEngine(
                free_db,
                network,
                faults=faults,
                retry_policy=RETRIES,
                policy_guard=free_opt.evaluator,
            )
            result = engine.execute(plan)
            if result.partial_failure is None:
                assert rows_as_multiset(result.rows) == rows_as_multiset(
                    free_base[name].rows
                ), (name, src, dst)
            else:
                assert result.rows == [], (name, src, dst)


def test_faulted_replica_runs_audit_clean(replicated):
    """Satellite contract: a traced run that failed over to replicas
    audits clean — the auditor independently re-confirms each replica
    read against the replicated catalog."""
    catalog, database, network, optimizer, plans, baselines = replicated
    audited = 0
    policies = optimizer.policies
    for name, plan in plans.items():
        for site in sorted({f.location for f in fragment_plan(plan).fragments}):
            faults = parse_fault_spec(
                f"crash:{site}@0", locations=catalog.locations
            )
            engine = ExecutionEngine(
                database,
                network,
                faults=faults,
                retry_policy=RETRIES,
                policy_guard=optimizer.evaluator,
            )
            recorder = TraceRecorder()
            with tracing(recorder):
                result = engine.execute(plan)
            assert result.partial_failure is None, (name, site)
            report = ComplianceAuditor(policies).audit_events(recorder.events())
            assert report.ok, (
                (name, site),
                [str(v) for v in report.violations],
            )
            audited += 1
    assert audited >= 1
