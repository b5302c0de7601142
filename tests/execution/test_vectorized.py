"""Unit tests for the columnar batch executor and its wiring.

Cross-backend equivalence at scale lives in the integration suite; this
file covers the batch-specific seams: the ColumnBatch layout and its
row-conversion boundary, columnar byte accounting, the cached RowBatch
wire size, and executor-name validation through the engine/scheduler.
"""

import datetime

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.execution import (
    BatchOperatorExecutor,
    ColumnBatch,
    ExecutionEngine,
    ExecutionMetrics,
    FragmentScheduler,
    OperatorExecutor,
    RowBatch,
    actual_bytes,
    column_bytes,
    reference_plan,
    validate_executor_name,
)
from repro.geo import GeoDatabase, synthetic_network
from repro.sql import Binder


@pytest.fixture(scope="module")
def world():
    c = Catalog()
    c.add_database("db1", "L1")
    c.add_database("db2", "L2")
    c.add_table(
        "db1",
        TableSchema(
            "emp",
            (
                Column("id", DataType.INTEGER),
                Column("dept", DataType.VARCHAR),
                Column("salary", DataType.DECIMAL),
            ),
            primary_key=("id",),
        ),
    )
    c.add_table(
        "db2",
        TableSchema(
            "dept",
            (Column("name", DataType.VARCHAR), Column("budget", DataType.INTEGER)),
        ),
    )
    db = GeoDatabase(c)
    db.load(
        "db1",
        "emp",
        [
            (1, "eng", 100.0),
            (2, "eng", 200.0),
            (3, "sales", 150.0),
            (4, "sales", None),
            (5, None, 50.0),
        ],
    )
    db.load("db2", "dept", [("eng", 10), ("sales", 20), ("hr", 30)])
    return c, db


def run_both(world, sql):
    catalog, db = world
    plan = reference_plan(Binder(catalog).bind_sql(sql))
    row = OperatorExecutor(db, ExecutionMetrics()).run(plan)
    batch = BatchOperatorExecutor(db, ExecutionMetrics()).run(plan)
    return row, batch


# -- ColumnBatch layout -------------------------------------------------------


def test_column_batch_row_round_trip():
    rows = [(1, "a"), (2, "b"), (3, None)]
    batch = ColumnBatch.from_rows(["x", "y"], rows)
    assert batch.nrows == 3
    assert list(batch.data[0]) == [1, 2, 3]
    assert list(batch.data[1]) == ["a", "b", None]
    assert batch.to_rows() == rows


def test_column_batch_empty_round_trip():
    batch = ColumnBatch.from_rows(["x", "y"], [])
    assert batch.nrows == 0
    assert len(batch.data) == 2
    assert batch.to_rows() == []


def test_gather_applies_selection_vector():
    batch = ColumnBatch.from_rows(["x"], [(10,), (11,), (12,), (13,)])
    picked = batch.gather([0, 2])
    assert picked.nrows == 2
    assert picked.to_rows() == [(10,), (12,)]


# -- byte accounting ----------------------------------------------------------


def test_column_bytes_matches_row_actual_bytes():
    rows = [
        (1, True, None, "abc", 2.5),
        (7, False, None, "", -1.0),
        (
            0,
            None,
            datetime.date(2020, 1, 2),
            "xy",
            None,
        ),
        (3, True, datetime.datetime(2020, 1, 2, 3, 4), "z", 9.9),
    ]
    columns = list(zip(*rows))
    assert column_bytes(columns) == actual_bytes(rows)


def test_row_batch_caches_nbytes():
    batch = RowBatch(["x"], [(1,), (2,)])
    first = batch.nbytes
    # Mutating the rows after the first measurement must NOT change the
    # reported size: retry/failover paths reuse the cached measurement.
    batch.rows.append((3,))
    assert batch.nbytes == first == 16


def test_row_batch_unpacks_like_a_tuple():
    columns, rows = RowBatch(["x"], [(1,)])
    assert columns == ["x"]
    assert rows == [(1,)]


# -- executor-name validation -------------------------------------------------


def test_unknown_executor_rejected_everywhere(world):
    _catalog, db = world
    network = synthetic_network(["L1", "L2"])
    with pytest.raises(ExecutionError, match="unknown executor"):
        validate_executor_name("bogus")
    with pytest.raises(ExecutionError, match="unknown executor"):
        ExecutionEngine(db, network, executor="bogus")
    with pytest.raises(ExecutionError, match="unknown executor"):
        FragmentScheduler(db, network, executor="vectorised")


# -- per-operator batch semantics --------------------------------------------


def test_scan_project_filter(world):
    row, batch = run_both(world, "SELECT id FROM emp WHERE salary > 100")
    assert batch.columns == row.columns
    assert batch.rows == row.rows  # row-identical, including order


def test_hash_join_skips_null_keys(world):
    row, batch = run_both(
        world, "SELECT emp.id, dept.budget FROM emp, dept WHERE emp.dept = dept.name"
    )
    assert batch.rows == row.rows
    assert sorted(batch.rows) == [(1, 10), (2, 10), (3, 20), (4, 20)]


def test_aggregate_groups_in_first_seen_order(world):
    row, batch = run_both(
        world,
        "SELECT dept, COUNT(*) AS n, SUM(salary) AS s, AVG(salary) AS a, "
        "MIN(salary) AS lo, MAX(salary) AS hi FROM emp GROUP BY dept",
    )
    assert batch.columns == row.columns
    assert batch.rows == row.rows


def test_global_aggregate_on_empty_input(world):
    row, batch = run_both(
        world, "SELECT COUNT(*) AS n, SUM(salary) AS s FROM emp WHERE id > 99"
    )
    assert batch.rows == row.rows == [(0, None)]


def test_sort_null_placement_and_limit(world):
    row, batch = run_both(
        world, "SELECT id, salary FROM emp ORDER BY salary DESC, id ASC LIMIT 3"
    )
    assert batch.rows == row.rows


def test_metrics_match_row_backend(world):
    catalog, db = world
    plan = reference_plan(
        Binder(catalog).bind_sql("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept")
    )
    row_metrics, batch_metrics = ExecutionMetrics(), ExecutionMetrics()
    OperatorExecutor(db, row_metrics).run(plan)
    BatchOperatorExecutor(db, batch_metrics).run(plan)
    assert batch_metrics.operators_executed == row_metrics.operators_executed
    assert batch_metrics.rows_scanned == row_metrics.rows_scanned
    assert [r.rows_out for r in batch_metrics.operators] == [
        r.rows_out for r in row_metrics.operators
    ]


def test_engine_executor_switch_row_identical(world):
    catalog, db = world
    network = synthetic_network(["L1", "L2"])
    plan = reference_plan(
        Binder(catalog).bind_sql(
            "SELECT emp.dept, SUM(dept.budget) AS b FROM emp, dept "
            "WHERE emp.dept = dept.name GROUP BY emp.dept"
        )
    )
    row_run = ExecutionEngine(db, network).execute(plan)
    batch_run = ExecutionEngine(db, network, executor="batch").execute(plan)
    assert batch_run.columns == row_run.columns
    assert batch_run.rows == row_run.rows
