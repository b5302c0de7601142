"""Differential test of the phase-1 explorer against its frozen predecessor.

``tests/optimizer/reference_explore`` holds ``explore.py``, ``memo.py``
and ``rules/`` as they stood before exploration became incremental and
probe-first.  The rewrite promised the *same search*: identical group
ids, the same expressions in the same order in every group, equal
representatives, the same budget behaviour — and therefore the same
annotated plan, physical plan and estimated cost.  This file holds it to
that on the nine TPC-H queries under every curated policy set, a seeded
ad hoc stream, a GAV-fragmented (UNION) table, a cross-product run and
budget-exhausted runs; the last section seeds mutants of the new
explorer and requires each to be caught by the same comparison.
"""

from __future__ import annotations

import sys
import types
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import pytest

import repro.optimizer.memo as live_memo
import repro.optimizer.rules.joins as live_joins
from repro.catalog import Catalog, Column, TableSchema, uniform_stats
from repro.datatypes import DataType
from repro.errors import NonCompliantQueryError
from repro.geo import synthetic_network
from repro.optimizer import CompliantOptimizer, normalize
from repro.optimizer import annotator as annotator_module
from repro.optimizer.rules import (
    AggregateJoinTranspose,
    AggregateUnionTranspose,
    JoinAssociate,
    JoinCommute,
)
from repro.policy import PolicyCatalog
from repro.sql import Binder
from repro.tpch import EXTRA_QUERIES, QUERIES, AdHocQueryGenerator, curated_policies

from .reference_explore import explore as ref_explore
from .reference_explore import memo as ref_memo
from .reference_explore import rules as ref_rules

# ``repro.optimizer.explore`` the attribute is the function; this is the module.
live_explore = import_module("repro.optimizer.explore")

POLICY_SETS = ("T", "C", "CR", "CR+A")
TPCH = {**QUERIES, **EXTRA_QUERIES}
ADHOC_SEED = 20231
ADHOC_COUNT = 64


def live_rules(allow_cross_products=False, joins=live_joins):
    return [
        JoinCommute(),
        joins.JoinAssociate(allow_cross_products=allow_cross_products),
        AggregateJoinTranspose(),
        AggregateUnionTranspose(),
    ]


def reference_rules(allow_cross_products=False):
    return [
        ref_rules.JoinCommute(),
        ref_rules.JoinAssociate(allow_cross_products=allow_cross_products),
        ref_rules.AggregateJoinTranspose(),
        ref_rules.AggregateUnionTranspose(),
    ]


# -- comparison ---------------------------------------------------------------


def assert_same_memo(live, reference):
    """Group for group: same ordered expression keys, equal representative."""
    assert live.group_count == reference.group_count
    assert live.expression_count == reference.expression_count
    assert live.budget_exhausted == reference.budget_exhausted
    for mine, theirs in zip(live.groups, reference.groups):
        where = f"group {mine.group_id}"
        assert [m.key() for m in mine.exprs] == [m.key() for m in theirs.exprs], where
        assert [m.child_groups for m in mine.exprs] == [
            m.child_groups for m in theirs.exprs
        ], where
        assert mine.representative == theirs.representative, where
        assert mine.fields == theirs.fields, where
        assert mine.source_databases == theirs.source_databases, where


def assert_same_stats(live, reference):
    assert live.expressions_added == reference.expressions_added
    assert live.budget_exhausted == reference.budget_exhausted
    assert live.passes == reference.passes
    assert live.rule_firings <= reference.rule_firings


def explore_both(
    plan,
    *,
    allow_cross_products=False,
    max_expressions=50_000,
    memo_module=live_memo,
    explore_module=live_explore,
    joins=live_joins,
):
    """Explore ``plan`` (normalized) with both explorers and compare."""
    reference = ref_memo.Memo(max_expressions=max_expressions)
    reference.register_plan(plan)
    reference_stats = ref_explore.explore(reference, reference_rules(allow_cross_products))
    live = memo_module.Memo(max_expressions=max_expressions)
    live.register_plan(plan)
    live_stats = explore_module.explore(live, live_rules(allow_cross_products, joins))
    assert_same_memo(live, reference)
    assert_same_stats(live_stats, reference_stats)
    return live_stats


def annotated_image(node):
    """An annotated plan without its GroupRefs (each explorer has its own
    class of those): operator, traits, rows, children."""
    return (
        node.op.op_key(),
        node.execution_trait,
        node.shipping_trait,
        node.rows,
        tuple(annotated_image(child) for child in node.children),
    )


@contextmanager
def reference_explorer(optimizer, allow_cross_products=False):
    """Run ``optimizer`` on the frozen memo, explorer and rules."""
    patch = pytest.MonkeyPatch()
    patch.setattr(annotator_module, "Memo", ref_memo.Memo)
    patch.setattr(annotator_module, "explore", ref_explore.explore)
    patch.setattr(optimizer._annotator, "rules", reference_rules(allow_cross_products))
    try:
        yield
    finally:
        patch.undo()


def optimize_both(optimizer, query, allow_cross_products=False):
    """Full optimization on both explorers: same verdict, same memo, same
    annotated and physical plan, same costs."""

    def run():
        optimizer.evaluator.reset_stats(clear_implication_cache=True)
        try:
            return optimizer.optimize(query)
        except NonCompliantQueryError:
            return None

    live = run()
    live_stats = vars(optimizer.evaluator.stats).copy()
    with reference_explorer(optimizer, allow_cross_products):
        reference = run()
    assert (live is None) == (reference is None)
    # The explorers feed 𝒜 the same groups in the same order.
    assert vars(optimizer.evaluator.stats) == live_stats
    if live is None:
        return None
    assert_same_memo(live.annotate.memo, reference.annotate.memo)
    assert_same_stats(live.annotate.explore_stats, reference.annotate.explore_stats)
    assert annotated_image(live.annotate.root) == annotated_image(reference.annotate.root)
    assert live.annotate.phase1_cost == reference.annotate.phase1_cost
    assert live.plan == reference.plan
    assert live.estimated_shipping_cost == reference.estimated_shipping_cost
    return live


# -- corpus -------------------------------------------------------------------


@pytest.fixture(scope="module")
def optimizers(tpch_stats_catalog, tpch_network):
    return {
        name: CompliantOptimizer(
            tpch_stats_catalog, curated_policies(tpch_stats_catalog, name), tpch_network
        )
        for name in POLICY_SETS
    }


@pytest.mark.parametrize("policy_set", POLICY_SETS)
@pytest.mark.parametrize("name", list(TPCH))
def test_tpch_same_search_same_plan(optimizers, name, policy_set):
    optimize_both(optimizers[policy_set], TPCH[name])


def test_adhoc_stream_same_search_same_plan(optimizers, tpch_stats_catalog):
    binder = Binder(tpch_stats_catalog)
    generator = AdHocQueryGenerator(seed=ADHOC_SEED)
    compliant = 0
    for index, query in enumerate(generator.generate(ADHOC_COUNT)):
        # Memo only (every query), then end to end under one policy set.
        explore_both(normalize(binder.bind_sql(query.sql)))
        result = optimize_both(optimizers[POLICY_SETS[index % 4]], query.sql)
        compliant += result is not None
    assert compliant > ADHOC_COUNT // 4  # the comparison saw real plans


@pytest.fixture(scope="module")
def fragmented_world():
    """A sales table GAV-fragmented over three databases (UNION ALL scans)
    joined with an unfragmented one."""
    catalog = Catalog()
    for index in (1, 2, 3):
        catalog.add_database(f"db{index}", f"L{index}")
    sales = TableSchema(
        "sales",
        (
            Column("region", DataType.INTEGER),
            Column("amount", DataType.INTEGER),
        ),
    )
    catalog.add_fragmented_table(
        sales, [(f"db{index}", uniform_stats(sales, 100 * index)) for index in (1, 2, 3)]
    )
    regions = TableSchema(
        "regions",
        (
            Column("region", DataType.INTEGER),
            Column("label", DataType.VARCHAR),
        ),
    )
    catalog.add_table("db1", regions, row_count=5)
    policies = PolicyCatalog(catalog)
    policies.add_text("ship region, amount from db1.sales to L1")
    policies.add_text("ship region, label from db1.regions to *")
    for index in (2, 3):
        policies.add_text(
            f"ship amount as aggregates sum, count from db{index}.sales to L1 "
            "group by region"
        )
    network = synthetic_network(["L1", "L2", "L3"])
    return catalog, policies, network


FRAGMENTED_QUERIES = [
    "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region",
    "SELECT r.label, SUM(s.amount) AS total FROM sales s, regions r "
    "WHERE s.region = r.region GROUP BY r.label",
]


@pytest.mark.parametrize("sql", FRAGMENTED_QUERIES)
def test_fragmented_union_same_search_same_plan(fragmented_world, sql):
    catalog, policies, network = fragmented_world
    stats = explore_both(normalize(Binder(catalog).bind_sql(sql)))
    assert stats.expressions_added > 0  # the union transpose fired
    optimize_both(CompliantOptimizer(catalog, policies, network), sql)


@pytest.mark.parametrize("name", ["Q3", "Q10", "Q2"])
def test_cross_products_same_search_same_plan(tpch_stats_catalog, tpch_network, name):
    optimizer = CompliantOptimizer(
        tpch_stats_catalog,
        curated_policies(tpch_stats_catalog, "CR+A"),
        tpch_network,
        allow_cross_products=True,
    )
    restricted = explore_both(normalize(Binder(tpch_stats_catalog).bind_sql(TPCH[name])))
    result = optimize_both(optimizer, TPCH[name], allow_cross_products=True)
    assert result.annotate.explore_stats.expressions_added > restricted.expressions_added


@pytest.mark.parametrize("name", ["Q5", "Q8", "Q3"])
def test_budget_exhausted_mid_rule(tpch_stats_catalog, name):
    """The budget can run out between two outputs of one rule firing and
    inside the registration of a rule-built child; either way both
    explorers must stop with the same memo."""
    plan = normalize(Binder(tpch_stats_catalog).bind_sql(TPCH[name]))
    seed = live_memo.Memo()
    seed.register_plan(plan)
    initial = seed.expression_count
    exhausted = 0
    for extra in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89):
        stats = explore_both(plan, max_expressions=initial + extra)
        exhausted += stats.budget_exhausted
    assert exhausted >= 8


def test_end_to_end_budget_exhaustion(tpch_stats_catalog, tpch_network):
    optimizer = CompliantOptimizer(
        tpch_stats_catalog,
        curated_policies(tpch_stats_catalog, "CR"),
        tpch_network,
        max_expressions=120,
    )
    result = optimize_both(optimizer, TPCH["Q5"])
    assert result is None or result.annotate.explore_stats.budget_exhausted


def test_second_exploration_adds_nothing(tpch_stats_catalog):
    """State of an exploration dies with the call: exploring an explored
    memo again — with other rule objects — starts over and finds it
    saturated, as the frozen explorer does."""
    plan = normalize(Binder(tpch_stats_catalog).bind_sql(TPCH["Q10"]))
    memo = live_memo.Memo()
    memo.register_plan(plan)
    live_explore.explore(memo, live_rules())
    again = live_explore.explore(memo, live_rules())
    assert again.expressions_added == 0 and again.passes == 1


# -- seeded mutants -------------------------------------------------------------
#
# Each mutant is the live source of one module with one line changed,
# compiled into a throwaway module (the package's relative imports still
# resolve to the live siblings).  The differential comparison above must
# fail for every one of them on a small corpus — if a mutant survives,
# the oracle has a hole.


def mutate(module, old: str, new: str) -> types.ModuleType:
    source = Path(module.__file__).read_text()
    assert source.count(old) == 1, f"mutation site not found in {module.__name__}: {old!r}"
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__package__ = module.__package__
    mutant.__file__ = module.__file__
    sys.modules[mutant.__name__] = mutant  # @dataclass looks its module up
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant


MUTANTS = {
    "slice-off-by-one": lambda: {
        "explore_module": mutate(
            live_explore,
            "gained = members[watch.consumed:]",
            "gained = members[watch.consumed + 1:]",
        )
    },
    "multi-level-rule-fires-once": lambda: {
        "explore_module": mutate(
            live_explore,
            "self.watches[group_id].append(watch)",
            "pass",
        )
    },
    "probe-key-not-canonical": lambda: {
        "memo_module": mutate(
            live_memo,
            "if isinstance(plan, LogicalJoin) and child_ids[0] > child_ids[1]:",
            "if False:",
        )
    },
    "representative-from-latest-expression": lambda: {
        "memo_module": mutate(
            live_memo,
            "        self.groups[group_id].exprs.append(mexpr)\n",
            "        self.groups[group_id].exprs.append(mexpr)\n"
            "        self.groups[group_id].representative = mexpr.plan.with_children(\n"
            "            tuple(self.groups[g].representative for g in child_ids))\n",
        )
    },
    "duplicate-added-again": lambda: {
        "memo_module": mutate(
            live_memo,
            "if len(index) == known:",
            "if False:",
        )
    },
    "conjuncts-not-ordered": lambda: {
        "joins": mutate(
            live_joins,
            "conjuncts.sort(key=lambda conjunct: conjunct[0])",
            "pass",
        )
    },
}

MUTANT_CORPUS = ["Q3", "Q10", "Q2", "Q7"]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_seeded_mutant_is_caught(tpch_stats_catalog, mutant):
    overrides = MUTANTS[mutant]()
    binder = Binder(tpch_stats_catalog)
    caught = []
    for name in MUTANT_CORPUS:
        plan = normalize(binder.bind_sql(TPCH[name]))
        try:
            explore_both(plan, max_expressions=5_000, **overrides)
        except AssertionError:
            caught.append(name)
            break
    assert caught, f"mutant {mutant!r} survived {MUTANT_CORPUS}"
