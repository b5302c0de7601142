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

from repro.execution import (
    ExecutionEngine,
    FaultPlan,
    RetryPolicy,
    ShipConfig,
    SiteCrash,
    failover_candidates,
    fragment_plan,
    parse_fault_spec,
)
from repro.optimizer import CompliantOptimizer
from repro.optimizer.compliant import _strip_sort
from repro.sql import Binder
from repro.tpch import QUERIES, curated_policies
from repro.trace import ChunkEvent, ShipEvent, TraceRecorder, tracing

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
        result = ExecutionEngine(database, tpch_network).execute(plan)
        baselines[name] = (plan, result)
    return catalog, database, tpch_network, compliant, baselines


def faulted_engine(world, faults, policy=RETRIES, ship=None):
    _catalog, database, network, compliant, _baselines = world
    return ExecutionEngine(
        database,
        network,
        faults=faults,
        retry_policy=policy,
        policy_guard=compliant.evaluator,
        ship=ship,
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


TRANSPORTS = {
    "monolithic": ShipConfig(),
    "stream-64": ShipConfig(chunk_rows=64, compression="auto"),
}


def implied_backoff(record, producer, events, policy, streamed):
    """The backoff a transfer's attempt events imply: one
    ``policy.backoff`` per transient attempt, keyed as the transfer
    simulator keys its jitter.  A streamed transfer's attempts are its
    chunk events, accumulated over the whole run; a monolithic record
    covers only its final invocation, attempts ``1..n`` of which all
    but the delivered last were transient."""
    if streamed:
        chunks = [
            e
            for e in events
            if isinstance(e, ChunkEvent)
            and (e.producer, e.target) == (producer, record.target)
        ]
        assert len(chunks) == record.attempts
        return sum(
            policy.backoff(e.attempt, producer, e.source, e.target, e.chunk)
            for e in chunks
            if e.outcome == "transient"
        )
    sends = [
        e
        for e in events
        if isinstance(e, ShipEvent)
        and (e.producer, e.source, e.target)
        == (producer, record.source, record.target)
    ]
    assert {(record.attempts, "delivered")} <= {(e.attempt, e.outcome) for e in sends}
    transient = {e.attempt for e in sends if e.outcome == "transient"}
    assert set(range(1, record.attempts)) <= transient
    return sum(
        policy.backoff(attempt, producer, record.source, record.target)
        for attempt in range(1, record.attempts)
    )


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_retry_waits_match_attempt_events(world, transport):
    """Faulted corners, both transports: every ``ShipRecord``'s
    ``retry_wait_seconds`` is exactly the backoff its traced attempts
    imply — one accounting (the chunk ledger's) for either transport."""
    catalog, _db, _network, _compliant, baselines = world
    ship = TRANSPORTS[transport]
    checked = waited = 0
    for name, (plan, base) in baselines.items():
        specs = [
            FaultPlan.random(
                seed, catalog.locations, pairs=live_pairs(base) or None
            )
            for seed in SEEDS
        ]
        for src, dst in sorted(set(live_pairs(base)))[:1]:
            specs.append(
                parse_fault_spec(
                    f"flaky:{src}->{dst}@0+0.15", locations=catalog.locations
                )
            )
        for faults in specs:
            recorder = TraceRecorder()
            with tracing(recorder):
                result = faulted_engine(world, faults, ship=ship).execute(plan)
            key = (name, str(faults))
            assert result.partial_failure is None, key
            events = recorder.events()
            metrics = result.metrics
            for fragment, record in zip(metrics.fragments, metrics.ships):
                streamed = ship.streaming and record.source != record.target
                expected = implied_backoff(
                    record, fragment.index, events, RETRIES, streamed
                )
                assert record.retry_wait_seconds == pytest.approx(
                    expected, rel=1e-12, abs=0.0
                ), (key, fragment.index)
                checked += 1
                waited += record.retry_wait_seconds > 0
    assert checked > 0
    assert waited >= 5  # the corners really retried


def test_critical_path_retry_inflates_makespan_exactly(world):
    """On a chain plan the retried edge *is* the critical path: the
    simulated makespan grows by exactly the backoff the retries waited."""
    catalog, _db, _network, _compliant, baselines = world
    plan, base = baselines["Q3"]  # single WAN edge NorthAmerica -> Europe
    ((src, dst),) = set(live_pairs(base))
    faults = parse_fault_spec(
        f"flaky:{src}->{dst}@0+0.15", locations=catalog.locations
    )
    result = faulted_engine(world, faults, RetryPolicy(max_retries=8)).execute(plan)
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
    result = faulted_engine(world, faults, RetryPolicy(max_retries=2)).execute(plan)
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
