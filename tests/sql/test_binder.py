"""Binder tests: name resolution, typing, aggregation shaping, GAV."""

import pytest

from repro.catalog import Catalog, Column, TableSchema, uniform_stats
from repro.datatypes import DataType
from repro.errors import BindingError
from repro.expr import BaseColumn, ColumnRef
from repro.plan import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)
from repro.sql import Binder


@pytest.fixture()
def catalog():
    c = Catalog()
    c.add_database("db1", "L1")
    c.add_database("db2", "L2")
    c.add_table(
        "db1",
        TableSchema(
            "t",
            (
                Column("a", DataType.INTEGER),
                Column("b", DataType.VARCHAR),
                Column("d", DataType.DATE),
            ),
            primary_key=("a",),
        ),
        row_count=100,
    )
    c.add_table(
        "db2",
        TableSchema("u", (Column("a", DataType.INTEGER), Column("x", DataType.DECIMAL))),
        row_count=200,
    )
    return c


@pytest.fixture()
def binder(catalog):
    return Binder(catalog)


def test_simple_projection(binder):
    plan = binder.bind_sql("SELECT a, b FROM t")
    assert isinstance(plan, LogicalProject)
    assert plan.field_names == ("a", "b")
    assert plan.fields[0].base == BaseColumn("db1", "t", "a")


def test_star_expansion(binder):
    plan = binder.bind_sql("SELECT * FROM t")
    assert plan.field_names == ("a", "b", "d")


def test_where_typed_boolean(binder):
    plan = binder.bind_sql("SELECT a FROM t WHERE a > 1")
    assert isinstance(plan.child, LogicalFilter)


def test_non_boolean_where_rejected(binder):
    with pytest.raises(BindingError):
        binder.bind_sql("SELECT a FROM t WHERE a + 1")


def test_unknown_table_and_column(binder):
    with pytest.raises(Exception):
        binder.bind_sql("SELECT a FROM nope")
    with pytest.raises(BindingError):
        binder.bind_sql("SELECT zz FROM t")


def test_ambiguous_column_rejected(binder):
    with pytest.raises(BindingError, match="ambiguous"):
        binder.bind_sql("SELECT a FROM t, u")


def test_qualified_resolution(binder):
    plan = binder.bind_sql("SELECT t.a, u.a FROM t, u WHERE t.a = u.a")
    assert plan.field_names == ("a", "a_1")  # deduplicated output names


def test_duplicate_alias_rejected(binder):
    with pytest.raises(BindingError, match="duplicate"):
        binder.bind_sql("SELECT x.a FROM t x, u x")


def test_cross_join_shape(binder):
    plan = binder.bind_sql("SELECT t.a FROM t, u")
    join = plan.child
    assert isinstance(join, LogicalJoin)
    assert join.condition is None
    assert isinstance(join.left, LogicalScan)
    assert isinstance(join.right, LogicalScan)


def test_aggregate_plan_shape(binder):
    plan = binder.bind_sql("SELECT b, SUM(a) AS total FROM t GROUP BY b")
    assert isinstance(plan, LogicalProject)
    agg = plan.child
    assert isinstance(agg, LogicalAggregate)
    assert [k.name for k in agg.group_keys] == ["t.b"]
    assert plan.field_names == ("b", "total")


def test_global_aggregate_without_group_by(binder):
    plan = binder.bind_sql("SELECT COUNT(*) FROM t")
    agg = plan.child
    assert isinstance(agg, LogicalAggregate)
    assert agg.group_keys == ()


def test_non_grouped_output_rejected(binder):
    with pytest.raises(BindingError, match="non-grouped"):
        binder.bind_sql("SELECT a, SUM(a) FROM t GROUP BY b")


def test_computed_group_key_materialized(binder):
    plan = binder.bind_sql("SELECT YEAR(d), COUNT(*) FROM t GROUP BY YEAR(d)")
    agg = plan.child
    assert isinstance(agg, LogicalAggregate)
    assert agg.group_keys[0].name == "$gk0"
    pre = agg.child
    assert isinstance(pre, LogicalProject)
    assert "$gk0" in pre.names


def test_group_expr_reuse_in_output(binder):
    # YEAR(d) in SELECT must resolve to the materialized group key.
    plan = binder.bind_sql("SELECT YEAR(d) AS y, COUNT(*) FROM t GROUP BY YEAR(d)")
    assert plan.exprs[0] == ColumnRef("$gk0", DataType.INTEGER, None)


def test_having_becomes_filter_above_aggregate(binder):
    plan = binder.bind_sql("SELECT b FROM t GROUP BY b HAVING COUNT(*) > 1")
    having = plan.child
    assert isinstance(having, LogicalFilter)
    assert isinstance(having.child, LogicalAggregate)


def test_aggregate_in_where_rejected(binder):
    with pytest.raises(BindingError):
        binder.bind_sql("SELECT a FROM t WHERE SUM(a) > 1")


def test_count_star_only_for_count(binder):
    with pytest.raises(Exception):
        binder.bind_sql("SELECT SUM(*) FROM t")


def test_order_by_alias_and_limit(binder):
    plan = binder.bind_sql("SELECT a AS k FROM t ORDER BY k DESC LIMIT 3")
    assert isinstance(plan, LogicalSort)
    assert plan.sort_keys == (("k", True),)
    assert plan.limit == 3


def test_order_by_unknown_column_rejected(binder):
    with pytest.raises(BindingError):
        binder.bind_sql("SELECT a FROM t ORDER BY nope")


def test_derived_table_binding(binder):
    plan = binder.bind_sql(
        "SELECT x.total FROM (SELECT b, SUM(a) AS total FROM t GROUP BY b) AS x "
        "WHERE x.total > 10"
    )
    assert plan.field_names == ("total",)


def test_between_translated(binder):
    plan = binder.bind_sql("SELECT a FROM t WHERE a BETWEEN 1 AND 5")
    predicate = plan.child.predicate
    assert "(t.a >= 1)" in str(predicate) and "(t.a <= 5)" in str(predicate)


@pytest.mark.parametrize(
    "where",
    [
        "a < 'x'",
        "b = 1",
        "d > 3",
        "a BETWEEN 1 AND 'z'",
        "NOT (b BETWEEN 1 AND 2)",
        "a IN (1, 'two')",
        "b NOT IN (1)",
    ],
)
def test_incomparable_types_rejected(binder, where):
    with pytest.raises(BindingError, match="cannot compare"):
        binder.bind_sql(f"SELECT a FROM t WHERE {where}")


@pytest.mark.parametrize(
    "where", ["a = NULL", "NULL <> b", "d = NULL", "a BETWEEN NULL AND 2.5"]
)
def test_null_literal_compares_with_any_type(binder, where):
    plan = binder.bind_sql(f"SELECT a FROM t WHERE {where}")
    assert isinstance(plan.child, LogicalFilter)


def test_in_list_value_equal_to_literal_group_key_stays_constant(binder):
    plan = binder.bind_sql("SELECT a IN (1, 2) AS x FROM t GROUP BY a, 1")
    assert str(plan.exprs[0]) == "(t.a IN (1, 2))"


def test_fragmented_table_becomes_union():
    c = Catalog()
    c.add_database("db1", "L1")
    c.add_database("db2", "L2")
    schema = TableSchema("f", (Column("a", DataType.INTEGER),))
    c.add_fragmented_table(
        schema,
        [("db1", uniform_stats(schema, 10)), ("db2", uniform_stats(schema, 20))],
    )
    plan = Binder(c).bind_sql("SELECT a FROM f")
    union = plan.child
    assert isinstance(union, LogicalUnion)
    assert len(union.inputs) == 2
    assert {s.database for s in union.inputs} == {"db1", "db2"}
    # Union output fields drop fragment provenance.
    assert union.fields[0].base is None


def test_distinct_aggregate_rejected(binder):
    with pytest.raises(BindingError, match="DISTINCT"):
        binder.bind_sql("SELECT COUNT(DISTINCT a) FROM t")
