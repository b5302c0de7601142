"""Chaos equivalence: the fault-injected executor must be row-identical
to the fault-free executor whenever recovery is possible, and degrade to
a *typed* partial failure when it is not.

Three properties, mirroring docs/ROBUSTNESS.md:

* **Transient equivalence** — over ``>= 25`` seeded query/fault combos
  (six curated TPC-H queries x five random fault seeds), flaky windows
  and slow links change *when* rows arrive (makespan), never *what*
  arrives (the rows).
* **Compliance-preserving failover** — a site crash may only re-place a
  fragment inside its execution traits ℰ, and every re-placement is
  re-validated by the compliance checker (Theorem 1 extended to runtime
  re-placements).
* **Typed degradation** — when no legal re-placement exists (pinned
  scan fragments, exhausted retry budgets, fragment timeouts) the run
  ends in ``ExecutionResult.partial_failure``, never in an unhandled
  exception or a wrong answer.
"""

import pytest

from repro.errors import ExecutionError
from repro.execution import (
    ExecutionEngine,
    FaultPlan,
    RetryPolicy,
    SiteCrash,
    failover_candidates,
    fragment_plan,
    parse_fault_spec,
)
from repro.optimizer import CompliantOptimizer
from repro.optimizer.compliant import _strip_sort
from repro.sql import Binder
from repro.tpch import QUERIES, curated_policies

from ..conftest import rows_as_multiset

SEEDS = (0, 1, 2, 3, 4)
RETRIES = RetryPolicy(max_retries=6)


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    compliant = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR+A"), tpch_network
    )
    baselines = {}
    for name, sql in sorted(QUERIES.items()):
        core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
        plan = compliant.optimize(core).plan
        result = ExecutionEngine(database, tpch_network, parallel=True).execute(plan)
        baselines[name] = (plan, result)
    return catalog, database, tpch_network, compliant, baselines


def faulted_engine(world, faults, policy=RETRIES):
    _catalog, database, network, compliant, _baselines = world
    return ExecutionEngine(
        database,
        network,
        parallel=True,
        faults=faults,
        retry_policy=policy,
        policy_guard=compliant.evaluator,
    )


def live_pairs(baseline):
    return [
        (s.source, s.target)
        for s in baseline.metrics.ships
        if s.source != s.target
    ]


def test_transient_chaos_equivalence(world):
    """>= 25 seeded combos: row-identical, makespan only ever inflated."""
    catalog, _db, _network, _compliant, baselines = world
    combos = retried = inflated = 0
    worst = 1.0
    for name, (plan, base) in baselines.items():
        for seed in SEEDS:
            faults = FaultPlan.random(
                seed, catalog.locations, pairs=live_pairs(base) or None
            )
            result = faulted_engine(world, faults).execute(plan)
            combos += 1
            key = (name, seed, str(faults))
            assert result.partial_failure is None, key
            assert result.columns == base.columns, key
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                base.rows
            ), key
            # Faults can only delay the critical path, never shorten it.
            assert (
                result.makespan_seconds >= base.makespan_seconds - 1e-9
            ), key
            metrics = result.metrics
            assert metrics.transfer_attempts >= len(metrics.ships), key
            retried += metrics.transfer_attempts > len(metrics.ships)
            inflated += (
                result.makespan_seconds > base.makespan_seconds + 1e-9
            )
            if base.makespan_seconds > 0:
                worst = max(worst, result.makespan_seconds / base.makespan_seconds)
    assert combos >= 25
    # The fault plans target links the schedule actually uses, so a
    # healthy share of the combos must really have hit a fault.
    assert retried >= combos // 4
    assert inflated >= combos // 4
    assert worst > 1.05  # and at least one costs the critical path > 5 %


def test_critical_path_retry_inflates_makespan_exactly(world):
    """On a chain plan the retried edge *is* the critical path: the
    simulated makespan grows by exactly the backoff the retries waited."""
    catalog, _db, _network, _compliant, baselines = world
    plan, base = baselines["Q3"]  # single WAN edge NorthAmerica -> Europe
    ((src, dst),) = set(live_pairs(base))
    faults = parse_fault_spec(
        f"flaky:{src}->{dst}@0+0.15", locations=catalog.locations
    )
    result = faulted_engine(world, faults, RetryPolicy(max_retries=8)).execute(
        plan
    )
    metrics = result.metrics
    assert rows_as_multiset(result.rows) == rows_as_multiset(base.rows)
    assert metrics.retry_wait_seconds > 0.0
    assert metrics.transfer_attempts > len(metrics.ships)
    assert result.makespan_seconds == pytest.approx(
        base.makespan_seconds + metrics.retry_wait_seconds
    )


def test_permanent_link_down_fails_over_around_the_link(world):
    """A permanent link outage is not retryable: the consumer fragment
    must relocate inside ℰ so its inputs route around the dead link."""
    catalog, _db, _network, _compliant, baselines = world
    plan, base = baselines["Q2"]
    pairs = sorted(set(live_pairs(base)))
    src, dst = pairs[0]
    faults = parse_fault_spec(
        f"drop:{src}->{dst}@0", locations=catalog.locations
    )
    result = faulted_engine(world, faults, RetryPolicy(max_retries=2)).execute(
        plan
    )
    assert result.partial_failure is None
    assert rows_as_multiset(result.rows) == rows_as_multiset(base.rows)
    assert result.metrics.recoveries
    dag = fragment_plan(plan)
    for record in result.metrics.recoveries:
        assert record.validated  # re-checked by the policy guard
        fragment = dag.fragments[record.fragment_index]
        assert record.to_site in failover_candidates(
            fragment, frozenset(), frozenset(catalog.locations)
        )


def test_site_crash_recoveries_stay_inside_execution_traits(world):
    """Property test: crash every site at two onsets for every curated
    query.  Each run either recovers row-identically — with every
    re-placement validated and inside the fragment's ℰ — or degrades to
    a typed partial failure.  No run may raise or return wrong rows."""
    catalog, _db, _network, _compliant, baselines = world
    locations = frozenset(catalog.locations)
    recovered = degraded = 0
    for name, (plan, base) in baselines.items():
        dag = fragment_plan(plan)
        fragment_sites = {f.location for f in dag.fragments}
        for site in sorted(fragment_sites):
            for at in (0.0, 0.02):
                faults = FaultPlan([SiteCrash(site, at=at)])
                result = faulted_engine(world, faults).execute(plan)
                key = (name, site, at)
                if result.partial_failure is not None:
                    degraded += 1
                    assert not result.ok, key
                    assert result.rows == [], key
                    assert "Error" in result.partial_failure.error_type, key
                else:
                    assert result.ok, key
                    assert rows_as_multiset(result.rows) == rows_as_multiset(
                        base.rows
                    ), key
                recovered += bool(result.metrics.recoveries)
                for record in result.metrics.recoveries:
                    assert record.validated, key
                    assert record.to_site != site, key
                    fragment = dag.fragments[record.fragment_index]
                    allowed = failover_candidates(
                        fragment, frozenset({site}), locations
                    )
                    assert record.to_site in allowed, (key, record)
    # The sweep must exercise both outcomes, or it proves nothing.
    assert recovered > 0
    assert degraded > 0


def test_crashed_scan_site_is_typed_partial_failure(world):
    """A scan fragment is pinned to its data: crashing its site can
    never be recovered and must surface as a typed partial failure."""
    catalog, _db, _network, _compliant, baselines = world
    plan, base = baselines["Q3"]
    scan_site = fragment_plan(plan).fragments[0].location
    faults = parse_fault_spec(
        f"crash:{scan_site}@0", locations=catalog.locations
    )
    result = faulted_engine(world, faults).execute(plan)
    failure = result.partial_failure
    assert failure is not None
    assert failure.error_type == "SiteUnavailableError"
    assert failure.location == scan_site
    assert result.rows == []
    assert result.columns == base.columns
    assert result.metrics.partial_failure is failure


def test_fragment_timeout_degrades_typed(world):
    """A slow link that blows the per-fragment deadline ends the run in
    a typed FragmentTimeoutError partial failure, not an exception."""
    catalog, _db, _network, _compliant, baselines = world
    plan, base = baselines["Q3"]
    ((src, dst),) = set(live_pairs(base))
    faults = parse_fault_spec(
        f"slow:{src}->{dst}@0x50", locations=catalog.locations
    )
    policy = RetryPolicy(fragment_timeout=base.makespan_seconds * 2)
    result = faulted_engine(world, faults, policy).execute(plan)
    failure = result.partial_failure
    assert failure is not None
    assert failure.error_type == "FragmentTimeoutError"
    assert "fragment timeout" in failure.message
    assert result.rows == []


def test_faults_require_the_parallel_engine(world):
    """The sequential reference engine has no WAN simulation to inject
    into: configuring faults on it is a loud error, not a silent no-op."""
    _catalog, database, network, _compliant, _baselines = world
    faults = FaultPlan([SiteCrash("Asia", at=0.0)])
    with pytest.raises(ExecutionError, match="parallel"):
        ExecutionEngine(database, network, parallel=False, faults=faults)
