"""Plan-cache unit tests: parameter signatures, pinning rules,
invalidation precision, and the evaluator stats-window regression.

The parameterization contract under test (see
``optimizer/plancache.py``): literal-only differences share one cache
entry and still return correct per-binding results; differences in
shape, literal type, or compared column never collide; and a literal is
deliberately *pinned* (not parameterized) whenever rebinding it could
change a policy-implication verdict — concretely, whenever its column
is mentioned by any policy predicate of a scanned table, is constrained
more than once, or the value itself is ambiguous in the plan.
"""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.errors import NonCompliantQueryError
from repro.execution import ExecutionEngine
from repro.geo import GeoDatabase, synthetic_network
from repro.optimizer import CompliantOptimizer, PlanCache, prepare_query
from repro.policy import PolicyCatalog
from repro.sql import Binder

from ..conftest import rows_as_multiset


def build_world():
    catalog = Catalog()
    catalog.add_database("db1", "home")
    for loc in ("x", "y"):
        catalog.add_database(f"db_{loc}", loc)
    catalog.add_table(
        "db1",
        TableSchema(
            "t",
            (
                Column("k", DataType.INTEGER),
                Column("v", DataType.INTEGER),
                Column("seg", DataType.VARCHAR),
                Column("price", DataType.DECIMAL),
            ),
            primary_key=("k",),
        ),
        row_count=20,
    )
    catalog.add_table(
        "db1",
        TableSchema(
            "u",
            (Column("k", DataType.INTEGER), Column("w", DataType.INTEGER)),
            primary_key=("k",),
        ),
        row_count=10,
    )
    database = GeoDatabase(catalog)
    database.load(
        "db1",
        "t",
        [
            (i, i * 3, ["a", "b", "c"][i % 3], round(i * 1.5, 2))
            for i in range(20)
        ],
    )
    database.load("db1", "u", [(i, i * i) for i in range(10)])
    return catalog, database


def build_policies(catalog):
    policies = PolicyCatalog(catalog)
    # v is the only column mentioned by a policy *predicate* — the only
    # "sensitive" key for queries over t.
    p_v = policies.add_text("ship k, v from t to x where v > 10")
    p_u = policies.add_text("ship k, w from u to y")
    return policies, p_v, p_u


@pytest.fixture()
def world():
    catalog, database = build_world()
    policies, p_v, p_u = build_policies(catalog)
    network = synthetic_network(catalog.locations)
    optimizer = CompliantOptimizer(catalog, policies, network, plan_cache=True)
    engine = ExecutionEngine(database, network, policy_guard=optimizer.evaluator)
    return catalog, database, policies, optimizer, engine, p_v, p_u


def fresh_rows(catalog, database, policies, sql, result_location=None):
    """Cold-optimize and execute ``sql`` with a cache-less optimizer."""
    network = synthetic_network(catalog.locations)
    optimizer = CompliantOptimizer(catalog, policies, network)
    engine = ExecutionEngine(database, network, policy_guard=optimizer.evaluator)
    return engine.execute(
        optimizer.optimize(sql, result_location=result_location).plan
    ).rows


# -- sharing ---------------------------------------------------------------------


def test_literal_only_difference_shares_entry_with_correct_results(world):
    catalog, database, policies, optimizer, engine, _, _ = world
    template = "SELECT k, price FROM t WHERE seg = '{s}'"
    results = {}
    for binding in ("a", "b", "c", "a"):
        result = optimizer.optimize(template.format(s=binding))
        results[binding] = engine.execute(result).rows
    stats = optimizer.plan_cache.stats
    assert stats.stores == 1  # one shared entry for all four submissions
    assert stats.hits == 3 and stats.misses == 1
    for binding in ("a", "b", "c"):
        expected = fresh_rows(
            catalog, database, policies, template.format(s=binding)
        )
        assert rows_as_multiset(results[binding]) == rows_as_multiset(expected)
    # The bindings return *different* data — the hit is not an echo.
    assert rows_as_multiset(results["a"]) != rows_as_multiset(results["b"])


def test_in_list_values_are_parameterized(world):
    catalog, database, policies, optimizer, engine, _, _ = world
    first = optimizer.optimize("SELECT k FROM t WHERE seg IN ('a', 'b')")
    second = optimizer.optimize("SELECT k FROM t WHERE seg IN ('b', 'c')")
    assert second.cache_hit
    expected = fresh_rows(
        catalog, database, policies, "SELECT k FROM t WHERE seg IN ('b', 'c')"
    )
    assert rows_as_multiset(engine.execute(second).rows) == rows_as_multiset(
        expected
    )
    assert engine.execute(first).rows  # template still has its own rows


def test_swapped_values_rebind_simultaneously(world):
    """{5 -> 7, 7 -> 5} must substitute in one pass, not sequentially."""
    catalog, database, policies, optimizer, engine, _, _ = world
    template = "SELECT k FROM t WHERE k > {a} AND price < {b}"
    optimizer.optimize(template.format(a=5, b=7))
    swapped = optimizer.optimize(template.format(a=7, b=5))
    assert swapped.cache_hit
    expected = fresh_rows(catalog, database, policies, template.format(a=7, b=5))
    assert rows_as_multiset(engine.execute(swapped).rows) == rows_as_multiset(
        expected
    )


# -- non-collision ---------------------------------------------------------------


def test_shape_difference_never_collides(world):
    catalog, _, policies, optimizer, _, _, _ = world
    optimizer.optimize("SELECT k FROM t WHERE seg = 'a'")
    other = optimizer.optimize("SELECT k FROM t WHERE seg = 'a' AND k > 5")
    assert not other.cache_hit
    assert optimizer.plan_cache.stats.stores == 2


def test_type_and_column_differences_never_collide(world):
    catalog, _, policies, optimizer, _, _, _ = world
    binder = Binder(catalog)

    def prepared(sql):
        return prepare_query(binder.bind_sql(sql), policies)

    by_seg = prepared("SELECT k FROM t WHERE seg = 'a'")
    by_k = prepared("SELECT k FROM t WHERE k = 1")
    by_price = prepared("SELECT k FROM t WHERE price = 1.0")
    # Different compared column => different shape, regardless of the
    # signature; different literal type shows up in the signature too.
    assert by_seg.key(None) != by_k.key(None)
    assert by_k.key(None) != by_price.key(None)
    assert by_seg.signature == (DataType.VARCHAR,)
    assert by_k.signature == (DataType.INTEGER,)
    assert by_price.signature == (DataType.DECIMAL,)


def test_result_location_is_part_of_the_key(world):
    catalog, _, _, optimizer, _, _, _ = world
    optimizer.optimize("SELECT k, w FROM u WHERE w > 4", result_location="y")
    home = optimizer.optimize("SELECT k, w FROM u WHERE w > 4")
    assert not home.cache_hit
    assert optimizer.plan_cache.stats.stores == 2


# -- pinning (deliberate non-caching) --------------------------------------------


def test_policy_relevant_literal_is_pinned(world):
    """v appears in a policy predicate: v-literals must never be
    parameterized, because rebinding them can flip the implication
    verdict ``P_q => (v > 10)`` — the paper's predicate-strengthening
    grant would then leak."""
    catalog, _, policies, optimizer, _, _, _ = world
    binder = Binder(catalog)
    prepared = prepare_query(
        binder.bind_sql("SELECT k, v FROM t WHERE v > 20"), policies
    )
    assert prepared.signature == ()  # pinned: no free parameters

    # End to end: the v > 20 plan may ship to x, the v > 5 one may not.
    # If the cache wrongly shared the entry, the second query would be
    # served a compliant-looking plan instead of being rejected.
    granted = optimizer.optimize(
        "SELECT k, v FROM t WHERE v > 20", result_location="x"
    )
    assert not granted.rejected
    with pytest.raises(NonCompliantQueryError):
        optimizer.optimize("SELECT k, v FROM t WHERE v > 5", result_location="x")


def test_multiply_constrained_key_is_pinned(world):
    catalog, _, policies, _, _, _, _ = world
    prepared = prepare_query(
        Binder(catalog).bind_sql("SELECT k FROM t WHERE k > 3 AND k < 10"),
        policies,
    )
    assert prepared.signature == ()


def test_ambiguous_repeated_value_is_pinned(world):
    catalog, _, policies, _, _, _, _ = world
    prepared = prepare_query(
        Binder(catalog).bind_sql("SELECT k FROM t WHERE k > 3 AND v > 3"),
        policies,
    )
    # (INTEGER, 3) occurs twice; rebinding by value would be ambiguous —
    # and v is policy-sensitive besides.  Nothing is parameterized.
    assert prepared.signature == ()


def test_projection_literals_are_pinned(world):
    catalog, _, policies, _, _, _, _ = world
    prepared = prepare_query(
        Binder(catalog).bind_sql("SELECT k + 7 FROM t WHERE seg = 'a'"),
        policies,
    )
    # Only the predicate literal is free; normalization may substitute
    # projection expressions into predicates, so 7 stays inline.
    assert prepared.signature == (DataType.VARCHAR,)
    assert [b.value for b in prepared.bindings] == ["a"]


# -- invalidation ----------------------------------------------------------------


def test_invalidation_is_precise_and_sound(world):
    catalog, database, policies, optimizer, engine, p_v, p_u = world
    # v is doubly constrained, so its literals are pinned *independently
    # of the policy set* — the cache key survives the reloads below and
    # the lookups exercise the dependency-based invalidation path (a
    # singly-constrained v would change classification after the remove
    # and simply miss on shape, which is the other sound path; see
    # test_policy_relevant_literal_is_pinned).
    t_query = "SELECT k, v FROM t WHERE v > 20 AND v < 1000"
    u_query = "SELECT k, w FROM u WHERE w > 4"
    optimizer.optimize(t_query, result_location="x")
    optimizer.optimize(u_query, result_location="y")

    # Removing the u policy must invalidate only the u entry...
    policies.remove(p_u)
    survivor = None
    try:
        survivor = optimizer.optimize(t_query, result_location="x")
    except NonCompliantQueryError:  # pragma: no cover - would be a bug
        pytest.fail("unrelated reload invalidated the t entry")
    assert survivor.cache_hit  # precision: untouched entry survives
    with pytest.raises(NonCompliantQueryError):
        # soundness: the stale u plan is not served; re-derivation
        # (now policy-less for u) rejects the placement.
        optimizer.optimize(u_query, result_location="y")
    assert optimizer.plan_cache.stats.invalidations == 1

    # ... and removing the t policy flushes the t entry too.
    policies.remove(p_v)
    with pytest.raises(NonCompliantQueryError):
        optimizer.optimize(t_query, result_location="x")
    assert optimizer.plan_cache.stats.invalidations == 2


def test_policy_addition_does_not_invalidate(world):
    catalog, _, policies, optimizer, _, _, _ = world
    sql = "SELECT k, v FROM t WHERE v > 20"
    optimizer.optimize(sql, result_location="x")
    policies.add_text("ship seg from t to y")
    again = optimizer.optimize(sql, result_location="x")
    # Monotonicity: a new policy only widens grants; the entry stays.
    assert again.cache_hit
    assert optimizer.plan_cache.stats.invalidations == 0


def test_replace_invalidates_like_remove(world):
    catalog, _, policies, optimizer, _, p_v, _ = world
    sql = "SELECT k, v FROM t WHERE v > 20"
    optimizer.optimize(sql, result_location="x")
    from repro.policy import parse_policy

    policies.replace(p_v, parse_policy("ship k, v from t to x where v > 30", catalog))
    with pytest.raises(NonCompliantQueryError):
        # v > 20 no longer implies the tightened policy predicate.
        optimizer.optimize(sql, result_location="x")
    assert optimizer.plan_cache.stats.invalidations == 1


# -- cache mechanics -------------------------------------------------------------


def test_lru_eviction(world):
    catalog, _, policies, _, _, _, _ = world
    network = synthetic_network(catalog.locations)
    cache = PlanCache(policies, capacity=2)
    optimizer = CompliantOptimizer(catalog, policies, network, plan_cache=cache)
    optimizer.optimize("SELECT k FROM t")
    optimizer.optimize("SELECT v FROM t")
    optimizer.optimize("SELECT seg FROM t")  # evicts the oldest entry
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert not optimizer.optimize("SELECT k FROM t").cache_hit  # was evicted
    assert optimizer.optimize("SELECT seg FROM t").cache_hit


def test_engine_guard_skip_requires_same_evaluator(world):
    catalog, database, policies, optimizer, engine, _, _ = world
    result = optimizer.optimize("SELECT k FROM t WHERE seg = 'a'")
    assert result.compliance_validated
    assert result.validated_by is optimizer.evaluator
    # A *different* guard must not be skipped: an engine guarding with
    # another evaluator still re-checks (and here still passes).
    other = CompliantOptimizer(catalog, policies, synthetic_network(catalog.locations))
    foreign = ExecutionEngine(
        database, synthetic_network(catalog.locations), policy_guard=other.evaluator
    )
    assert foreign.execute(result).rows == engine.execute(result).rows


# -- satellite 4: stats windows across a long-lived evaluator --------------------


def test_stats_window_invariant_across_queries(world):
    """reset_stats() opens a per-query window in which the counter
    invariant ``checks == hits + warm_hits + misses`` holds, with
    cross-window amortization split out as warm hits."""
    catalog, _, policies, _, _, _, _ = world
    optimizer = CompliantOptimizer(
        catalog, policies, synthetic_network(catalog.locations)
    )
    evaluator = optimizer.evaluator
    sql = "SELECT k, v FROM t WHERE v > 20"

    optimizer.optimize(sql)
    first = evaluator.stats
    assert first.implication_checks > 0
    assert first.implication_cache_warm_hits == 0
    assert first.implication_checks == (
        first.implication_cache_hits
        + first.implication_cache_warm_hits
        + first.implication_cache_misses
    )

    evaluator.reset_stats()
    optimizer.optimize(sql)
    second = evaluator.stats
    # Same query, fresh window: every check resolves from the kept
    # cache, but as *warm* hits — not conflated with intra-window hits.
    assert second.implication_cache_misses == 0
    assert second.implication_cache_warm_hits > 0
    assert second.implication_checks == (
        second.implication_cache_hits
        + second.implication_cache_warm_hits
        + second.implication_cache_misses
    )

    # Re-running within the *same* window upgrades the entries to
    # ordinary hits (they were re-tagged to the current generation).
    warm_before = second.implication_cache_warm_hits
    optimizer.optimize(sql)
    assert evaluator.stats.implication_cache_warm_hits == warm_before
    assert evaluator.stats.implication_cache_hits > 0

    # Clearing the cache starts truly cold again.
    evaluator.reset_stats(clear_implication_cache=True)
    optimizer.optimize(sql)
    cold = evaluator.stats
    assert cold.implication_cache_warm_hits == 0
    assert cold.implication_cache_misses > 0
    assert cold.implication_checks == (
        cold.implication_cache_hits
        + cold.implication_cache_misses
    )


# -- what an entry keeps alive ---------------------------------------------------


def test_entries_do_not_pin_the_memo(world):
    """A cached template is read for its annotated root and its counts;
    the explored memo stays with the caller of the cold optimization and
    is garbage once they drop it — not one memo per cached shape."""
    _, _, _, optimizer, _, _, _ = world
    template = "SELECT t.k, u.w FROM t, u WHERE t.k = u.k AND t.seg = '{s}'"
    cold = optimizer.optimize(template.format(s="a"))
    assert not cold.cache_hit
    assert cold.annotate.memo is not None  # the fresh result keeps it
    assert cold.annotate.memo.group_count == cold.annotate.group_count

    (entry,) = optimizer.plan_cache._entries.values()
    assert entry.annotate.memo is None
    assert entry.annotate.root is cold.annotate.root

    hit = optimizer.optimize(template.format(s="b"))
    assert hit.cache_hit and hit.annotate.memo is None
    assert hit.annotate.group_count == cold.annotate.group_count > 0
    assert hit.annotate.expression_count == cold.annotate.expression_count > 0
    assert hit.annotate.explore_stats == cold.annotate.explore_stats
