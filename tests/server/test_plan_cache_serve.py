"""Server-level plan-cache smoke: a warm serve run reports a positive
hit rate and serves exactly the rows a cold (cache-less) server serves.
This is the test the CI plan-cache smoke job runs."""

import pytest

from repro.errors import NonCompliantQueryError
from repro.optimizer import CompliantOptimizer
from repro.server import QueryRequest, QueryServer
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

from ..conftest import build_carco, rows_as_multiset


def template_workload(carco):
    """Repeated query templates: the CarCo query plus literal-varied
    selections — the workload shape the cache exists for."""
    requests = []
    at = 0.0
    for wave in range(3):
        requests.append(QueryRequest(sql=carco.query, arrival=at, name=f"carco-{wave}"))
        at += 0.01
        for seg in ("a", "b"):
            requests.append(
                QueryRequest(
                    sql=(
                        "SELECT custkey, name FROM customer "
                        f"WHERE mktseg = '{seg}'"
                    ),
                    arrival=at,
                    name=f"seg-{seg}-{wave}",
                )
            )
            at += 0.01
    return requests


def serve_with(carco, plan_cache):
    optimizer = CompliantOptimizer(
        carco.catalog, carco.policies, carco.network, plan_cache=plan_cache
    )
    server = QueryServer(
        carco.database,
        carco.network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
    )
    return server.serve(template_workload(carco)), optimizer


def test_warm_serve_hits_and_matches_cold(carco):
    warm, warm_optimizer = serve_with(carco, plan_cache=True)
    cold, _ = serve_with(carco, plan_cache=False)

    assert warm.metrics.served == cold.metrics.served == 9
    # Hit rate > 0: the repeated templates actually reused entries.
    assert warm.metrics.plan_cache_hits > 0
    assert (
        warm.metrics.plan_cache_hits + warm.metrics.plan_cache_misses
        == len(template_workload(carco))
    )
    assert warm.metrics.plan_cache_invalidations == 0
    assert warm_optimizer.plan_cache.stats.hit_rate > 0

    # Zero served-row divergence: ordered identity per request.
    for warm_outcome, cold_outcome in zip(warm.outcomes, cold.outcomes):
        assert warm_outcome.request.name == cold_outcome.request.name
        assert warm_outcome.status == cold_outcome.status == "served"
        assert warm_outcome.columns == cold_outcome.columns
        assert warm_outcome.rows == cold_outcome.rows

    # The cold server reports no cache activity at all.
    assert cold.metrics.plan_cache_hits == 0
    assert cold.metrics.plan_cache_misses == 0
    assert "plan cache" in warm.metrics.summary()
    assert "plan cache" not in cold.metrics.summary()


def test_hot_reload_during_serving_is_sound(carco):
    """A policy removal between serve waves invalidates dependent
    entries; subsequent requests re-derive instead of reusing."""
    optimizer = CompliantOptimizer(
        carco.catalog, carco.policies, carco.network, plan_cache=True
    )
    server = QueryServer(
        carco.database,
        carco.network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
    )
    request = [QueryRequest(sql=carco.query, arrival=0.0)]
    first = server.serve(request)
    assert first.metrics.served == 1

    # Replace some policy the CarCo derivation read with itself: the
    # entry's read set is table-wide, so the swap must invalidate it.
    target = carco.policies.expressions[0]
    from repro.policy import parse_policy

    carco.policies.replace(
        target, parse_policy(target.source_text, carco.catalog)
    )
    second = server.serve(request)
    assert second.metrics.served == 1
    assert second.metrics.plan_cache_invalidations == 1
    assert second.metrics.plan_cache_misses == 1
    third = server.serve(request)
    assert third.metrics.plan_cache_hits == 1
    assert first.outcomes[0].rows == second.outcomes[0].rows == third.outcomes[0].rows


def cacheless_server(world):
    optimizer = CompliantOptimizer(
        world.catalog, world.policies, world.network, plan_cache=False
    )
    server = QueryServer(
        world.database,
        world.network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
    )
    return server


def test_cacheless_server_replans_after_a_policy_removal():
    """Without the compliant plan cache there is nothing to invalidate,
    so nothing may be remembered: a plan guarded under yesterday's
    policies must not be re-served once the catalog has tightened.
    (The server used to memoize located plans by SQL text.)"""
    world = build_carco()
    server = cacheless_server(world)
    request = [QueryRequest(sql=world.query, arrival=0.0)]
    first = server.serve(request)
    assert first.metrics.served == 1

    # Supply data may no longer reach Europe, even aggregated: the plan
    # just served is now non-compliant, but another compliant one exists.
    world.policies.remove(world.policies.expressions[3])
    recorder = TraceRecorder()
    with tracing(recorder):
        second = server.serve(request)
    assert second.metrics.served == 1
    assert rows_as_multiset(second.outcomes[0].rows) == rows_as_multiset(
        first.outcomes[0].rows
    )
    report = ComplianceAuditor(world.policies).audit_events(recorder.events())
    assert report.ok, report.violations


def test_cacheless_server_refuses_once_no_compliant_plan_is_left():
    world = build_carco()
    server = cacheless_server(world)
    request = [QueryRequest(sql=world.query, arrival=0.0)]
    assert server.serve(request).metrics.served == 1
    # Customer data may no longer leave its site at all.
    world.policies.remove(world.policies.expressions[0])
    with pytest.raises(NonCompliantQueryError):
        server.serve(request)


def test_blocked_queue_head_is_planned_once(carco):
    """Plan-cache counters count requests, not dispatch attempts: at
    ``concurrency=1`` four same-instant arrivals leave a blocked queue
    head that every later arrival and completion re-tries, yet each
    request is optimized exactly once."""
    optimizer = CompliantOptimizer(
        carco.catalog, carco.policies, carco.network, plan_cache=True
    )
    server = QueryServer(
        carco.database,
        carco.network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        concurrency=1,
    )
    requests = [
        QueryRequest(sql=carco.query, arrival=0.0, name=f"carco-{i}")
        for i in range(4)
    ]
    recorder = TraceRecorder()
    with tracing(recorder):
        result = server.serve(requests)

    dispatched = [o for o in result.outcomes if o.started_at is not None]
    assert len(dispatched) == result.metrics.served == 4
    # Serialized service: the queue head really was blocked.
    starts = sorted(o.started_at for o in dispatched)
    assert starts[1] > starts[0]
    metrics = result.metrics
    assert metrics.plan_cache_hits + metrics.plan_cache_misses == len(dispatched)
    optimized = [e for e in recorder.events() if e.kind == "optimized"]
    assert len(optimized) == len(dispatched)
