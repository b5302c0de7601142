"""Differential cache-soundness: warm (cached) runs must be
indistinguishable from cold (freshly optimized) runs.

Over the 67-query equivalence workload (the six curated TPC-H
evaluation queries plus 55 randomized ad-hoc queries from the §7.1
generator, each submitted twice — prime + warm — plus the cold
reference), we assert:

* the warm plan is *structurally identical* to the plan a cache-less
  optimizer produces for the same SQL (the rebinder reproduced the
  template exactly);
* for the curated queries, warm execution matches cold execution
  row-for-row and byte-for-byte on the row and batch engines, and the warm run's trace passes the independent compliance
  audit clean;
* for the ad-hoc sweep, warm row-engine rows and shipped bytes match
  cold.
"""

import pytest

from repro.errors import NonCompliantQueryError
from repro.execution import ExecutionEngine
from repro.optimizer import CompliantOptimizer
from repro.tpch import AdHocQueryGenerator, QUERIES, curated_policies
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

from ..conftest import rows_as_multiset

ADHOC_QUERIES = AdHocQueryGenerator(seed=1234).generate(55)


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    policies = curated_policies(catalog, "CR+A")
    warm = CompliantOptimizer(catalog, policies, tpch_network, plan_cache=True)
    cold = CompliantOptimizer(catalog, policies, tpch_network)
    engines = {
        "row": ExecutionEngine(database, tpch_network),
        "batch": ExecutionEngine(database, tpch_network, executor="batch"),
    }
    return catalog, policies, warm, cold, engines


def warm_result(optimizer, sql):
    """Prime the cache, then return the warm (hit) optimization."""
    optimizer.optimize(sql)
    result = optimizer.optimize(sql)
    assert result.cache_hit, "identical resubmission must hit the cache"
    return result


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_curated_warm_equals_cold_everywhere(world, name):
    catalog, policies, warm, cold, engines = world
    sql = QUERIES[name]
    cold_plan = cold.optimize(sql).plan
    warm_run = warm_result(warm, sql)
    # The rebound plan is structurally the cold plan (same operators,
    # locations, expressions) — not merely row-equivalent.
    assert warm_run.plan == cold_plan

    reference = engines["row"].execute(cold_plan)
    expected = rows_as_multiset(reference.rows)
    for label, engine in engines.items():
        recorder = TraceRecorder()
        with tracing(recorder):
            served = engine.execute(warm_run.plan)
        assert rows_as_multiset(served.rows) == expected, label
        assert served.columns == reference.columns, label
        assert (
            served.metrics.total_bytes_shipped
            == reference.metrics.total_bytes_shipped
        ), label
        # The warm run's trace still passes the independent audit.
        report = ComplianceAuditor(policies).audit_events(recorder.events())
        assert report.ok, (label, report.summary())


def test_curated_warm_trace_audits_clean_from_file(world, tmp_path):
    """End-to-end `repro audit` semantics: record a warm optimization +
    execution to JSONL (including the plan_cache_hit field) and audit
    the file."""
    catalog, policies, warm, cold, engines = world
    sql = QUERIES[sorted(QUERIES)[0]]
    recorder = TraceRecorder()
    with tracing(recorder):
        result = warm_result(warm, sql)
        engines["row"].execute(result.plan)
    path = tmp_path / "warm.jsonl"
    recorder.write(str(path))
    report = ComplianceAuditor(policies).audit_file(str(path))
    assert report.ok, report.summary()
    assert report.attempts > 0  # the trace actually contains transfers


@pytest.mark.parametrize("index", range(len(ADHOC_QUERIES)))
def test_adhoc_warm_equals_cold(world, index):
    catalog, policies, warm, cold, engines = world
    sql = ADHOC_QUERIES[index].sql
    try:
        cold_plan = cold.optimize(sql).plan
    except NonCompliantQueryError:
        # Rejection consistency: the cache must not make a rejected
        # query acceptable — on either the priming or the repeat
        # submission (rejections are never cached).
        for _ in range(2):
            with pytest.raises(NonCompliantQueryError):
                warm.optimize(sql)
        return
    warm_run = warm_result(warm, sql)
    assert warm_run.plan == cold_plan

    engine = engines["row"]
    cold_out = engine.execute(cold_plan)
    warm_out = engine.execute(warm_run.plan)
    assert rows_as_multiset(warm_out.rows) == rows_as_multiset(cold_out.rows)
    assert warm_out.columns == cold_out.columns
    assert (
        warm_out.metrics.total_bytes_shipped
        == cold_out.metrics.total_bytes_shipped
    )


def test_workload_is_the_67_query_suite():
    # Mirrors the 67-run equivalence workload of
    # test_parallel_equivalence: the six curated queries compared under
    # two optimizations each (here: cold and warm) plus 55 ad-hoc
    # queries — 6 * 2 + 55 = 67 optimized plans checked differentially.
    assert len(QUERIES) == 6
    assert len(ADHOC_QUERIES) == 55
    assert 2 * len(QUERIES) + len(ADHOC_QUERIES) == 67
