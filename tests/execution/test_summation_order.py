"""SUM and AVG add left to right with ``+=`` on both backends.

Python 3.12's :func:`sum` uses compensated float summation, so a backend
that switched to it would silently disagree with the other backend on
3.12 while agreeing on 3.10 and 3.11.  Over ``[1e16, 1.0, -1e16]`` the
left-to-right total is ``0.0`` (the ``1.0`` is absorbed by ``1e16``);
the compensated total is ``1.0``.
"""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.execution import (
    BatchOperatorExecutor,
    ExecutionMetrics,
    OperatorExecutor,
    reference_plan,
)
from repro.geo import GeoDatabase
from repro.sql import Binder

VALUES = [1e16, 1.0, -1e16]


@pytest.fixture(scope="module")
def world():
    catalog = Catalog()
    catalog.add_database("db", "L1")
    catalog.add_table(
        "db",
        TableSchema(
            "t", (Column("g", DataType.VARCHAR), Column("x", DataType.DECIMAL))
        ),
    )
    database = GeoDatabase(catalog)
    # Group "a" sees the values in order, interleaved with group "b".
    rows = []
    for value in VALUES:
        rows += [("a", value), ("b", value)]
    database.load("db", "t", rows)
    return catalog, database


def _both(world, sql):
    catalog, database = world
    plan = reference_plan(Binder(catalog).bind_sql(sql))
    row = OperatorExecutor(database, ExecutionMetrics()).run(plan).rows
    batch = BatchOperatorExecutor(database, ExecutionMetrics()).run(plan).rows
    return row, batch


def _left_to_right(values):
    total = 0
    for value in values:
        total += value
    return total


def test_fixture_separates_naive_from_compensated_summation():
    assert _left_to_right(VALUES) == 0.0
    assert _left_to_right(VALUES) != 1.0  # what compensated summation gives


def test_global_sum_and_avg_add_left_to_right(world):
    row, batch = _both(world, "SELECT SUM(x) AS s, AVG(x) AS a FROM t")
    assert row == batch == [(0.0, 0.0)]


def test_grouped_sum_and_avg_add_left_to_right(world):
    row, batch = _both(
        world, "SELECT g, SUM(x) AS s, AVG(x) AS a FROM t GROUP BY g"
    )
    assert row == batch == [("a", 0.0, 0.0), ("b", 0.0, 0.0)]
