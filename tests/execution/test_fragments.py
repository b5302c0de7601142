"""Fragment DAG construction: cutting located plans at SHIP boundaries."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.execution import (
    explain_fragments,
    fragment_plan,
    independent_pairs,
    reference_plan,
)
from repro.plan import NestedLoopJoin, Ship
from repro.sql import Binder


@pytest.fixture(scope="module")
def catalog():
    c = Catalog()
    c.add_database("db1", "L1")
    c.add_database("db2", "L2")
    c.add_database("db3", "L3")
    c.add_table(
        "db1",
        TableSchema("a", (Column("x", DataType.INTEGER),), primary_key=("x",)),
    )
    c.add_table(
        "db2",
        TableSchema("b", (Column("y", DataType.INTEGER),), primary_key=("y",)),
    )
    return c


def scan(catalog, table, database, location):
    plan = Binder(catalog).bind_sql(f"SELECT * FROM {table}")
    return reference_plan(plan, location)


def ship(child, source, target):
    return Ship(
        fields=child.fields, location=target, child=child, source=source, target=target
    )


def test_no_ship_plan_is_one_fragment(catalog):
    plan = scan(catalog, "a", "db1", "L1")
    dag = fragment_plan(plan)
    assert len(dag.fragments) == 1
    fragment = dag.root
    assert fragment.root is plan
    assert fragment.location == "L1"
    assert fragment.inputs == ()
    assert fragment.output is None
    assert fragment.consumer is None
    assert dag.independent_pairs() == 0


def test_single_ship_makes_linear_two_fragment_chain(catalog):
    inner = scan(catalog, "a", "db1", "L1")
    plan = ship(inner, "L1", "L2")
    dag = fragment_plan(plan)
    assert len(dag.fragments) == 2
    producer, consumer = dag.fragments
    # Producer-before-consumer topological order, root fragment last.
    assert producer.root is inner
    assert producer.output is plan
    assert producer.consumer == consumer.index
    assert consumer.root is plan  # relay fragment: body is the Ship leaf
    assert consumer.location == "L2"
    assert consumer.inputs[0].producer == producer.index
    assert consumer.inputs[0].ship is plan
    assert dag.independent_pairs() == 0


def test_nested_ship_relay_chain(catalog):
    inner = scan(catalog, "a", "db1", "L1")
    relay = ship(ship(inner, "L1", "L2"), "L2", "L3")
    dag = fragment_plan(relay)
    assert len(dag.fragments) == 3
    assert [f.location for f in dag.fragments] == ["L1", "L2", "L3"]
    # Middle fragment's body is just the inner Ship leaf.
    middle = dag.fragments[1]
    assert isinstance(middle.root, Ship)
    assert list(middle.body()) == [middle.root]
    assert dag.independent_pairs() == 0


def _bushy_join(catalog):
    """Two scans at different sites, both shipped into a join at L3."""
    left = ship(scan(catalog, "a", "db1", "L1"), "L1", "L3")
    right = ship(scan(catalog, "b", "db2", "L2"), "L2", "L3")
    return NestedLoopJoin(
        fields=left.fields + right.fields,
        location="L3",
        left=left,
        right=right,
        condition=None,
    )


def test_bushy_join_has_independent_producers(catalog):
    dag = fragment_plan(_bushy_join(catalog))
    assert len(dag.fragments) == 3
    join_fragment = dag.root
    assert isinstance(join_fragment.root, NestedLoopJoin)
    assert {f.location for f in dag.fragments} == {"L1", "L2", "L3"}
    assert len(join_fragment.inputs) == 2
    # The two scan fragments have no dependency on each other.
    assert dag.independent_pairs() == 1
    assert independent_pairs(_bushy_join(catalog)) == 1


def test_ancestors_follow_consumer_chain(catalog):
    dag = fragment_plan(_bushy_join(catalog))
    root = dag.root_index
    for fragment in dag.fragments:
        if fragment.index == root:
            assert dag.ancestors(fragment.index) == set()
        else:
            assert dag.ancestors(fragment.index) == {root}


def test_fragment_operator_count_excludes_producer_subtrees(catalog):
    dag = fragment_plan(_bushy_join(catalog))
    # Join fragment: the join node plus two cut Ship leaves.
    assert len(list(dag.root.body())) == 3
    # Producer fragments contain their full ship-free subtree.
    for fragment in dag.fragments[:-1]:
        assert not isinstance(fragment.root, Ship)
        assert len(list(fragment.body())) == sum(1 for _ in fragment.root.walk())


def test_explain_fragments_renders_cut_edges(catalog):
    text = explain_fragments(fragment_plan(_bushy_join(catalog)))
    assert "Fragment f0 @ L1 feeds f2 via L1 -> L3" in text
    assert "Fragment f1 @ L2 feeds f2 via L2 -> L3" in text
    assert "Fragment f2 @ L3 produces the query result" in text
    assert "[input from f0: Ship L1 -> L3]" in text
    assert "[input from f1: Ship L2 -> L3]" in text
    # The producer subtrees are not re-rendered inside the consumer.
    assert text.count("TableScan db1.a") == 1


def test_fragmenting_optimized_tpch_plan(tpch_small, tpch_network):
    from repro.optimizer import CompliantOptimizer
    from repro.optimizer.compliant import _strip_sort
    from repro.tpch import QUERIES, curated_policies

    catalog, _database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR+A"), tpch_network
    )
    core, _sort = _strip_sort(Binder(catalog).bind_sql(QUERIES["Q9"]))
    plan = optimizer.optimize(core).plan
    dag = fragment_plan(plan)
    ships = [n for n in plan.walk() if isinstance(n, Ship)]
    # One fragment per cut Ship plus the root fragment.
    assert len(dag.fragments) == len(ships) + 1
    # Every fragment runs where its root operator is located, and every
    # cut edge's target is its consumer's location.
    for fragment in dag.fragments:
        assert fragment.location == fragment.root.location
        if fragment.output is not None:
            consumer = dag.fragments[fragment.consumer]
            assert fragment.output.target == consumer.location
            assert fragment.output.source == fragment.location
