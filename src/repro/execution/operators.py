"""Physical operator implementations (tuple-at-a-time over lists).

Each operator consumes fully-materialized child results; geo-distributed
queries in this reproduction are small enough that pipelining would only
add complexity.  An executor evaluates one fragment body: its SHIP
leaves are the cut edges the fragment scheduler has already delivered
(and priced), handed over in ``ship_results``.
"""

from __future__ import annotations

import time
from itertools import product, starmap
from operator import concat, itemgetter
from typing import Any, Callable, Sequence

from ..errors import ExecutionError
from ..expr import (
    column_positions,
    compile_aggregation,
    compile_filter,
    compile_projection,
)
from ..geo import GeoDatabase
from ..plan import (
    Filter,
    HashAggregate,
    HashJoin,
    NestedLoopJoin,
    PhysicalPlan,
    Project,
    Ship,
    Sort,
    TableScan,
    UnionAll,
)
from .metrics import ExecutionMetrics
from .wire import column_nbytes, columns_of

Row = tuple
Result = tuple[list[str], list[Row]]  # (column names, rows) — unpacked shape


def actual_bytes(rows: Sequence[Row]) -> int:
    """Measured wire size of a row batch (what a SHIP actually transfers):
    the rows transposed once and each column sized by
    :func:`repro.execution.wire.column_nbytes`, the one size model."""
    return sum(map(column_nbytes, zip(*rows)))


class RowBatch:
    """Materialized operator output: column names plus row tuples.

    Unpacks like the ``(columns, rows)`` tuple it replaced, and caches
    the measured wire size (:attr:`nbytes`) so repeated SHIP attempts —
    the fault scheduler's retry and failover re-delivery paths — never
    re-measure an O(rows) byte count for the same batch.
    """

    __slots__ = ("columns", "rows", "_nbytes")

    def __init__(
        self, columns: list[str], rows: list[Row], nbytes: int | None = None
    ) -> None:
        self.columns = columns
        self.rows = rows
        self._nbytes = nbytes

    def __iter__(self):
        yield self.columns
        yield self.rows

    def to_row_batch(self) -> "RowBatch":
        """Already rows (``ColumnBatch.to_row_batch`` is the transpose)."""
        return self

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def data(self) -> list[tuple]:
        """The batch as columns — what the SHIP codec reads.  One
        transpose per access, deliberately not cached: a shipped batch
        is encoded once."""
        return columns_of(self.rows, len(self.columns))

    @property
    def nbytes(self) -> int:
        """Measured wire size of the batch, computed once."""
        if self._nbytes is None:
            self._nbytes = actual_bytes(self.rows)
        return self._nbytes


def shipped_input(ship_results: dict[int, Any], node: Ship) -> Any:
    """The delivered output of the producer behind cut SHIP leaf
    ``node``."""
    try:
        return ship_results[id(node)]
    except KeyError:
        raise ExecutionError(
            f"SHIP edge {node.describe()} was not delivered by the fragment "
            f"scheduler"
        ) from None


class OperatorExecutor:
    """Recursive evaluator for one located fragment body.

    Every evaluated operator leaves an :class:`OperatorRecord` in the
    metrics (rows out plus *self* wall-clock time, children excluded) so
    fragment- and plan-level compute can be attributed precisely.
    ``ship_results`` maps each cut SHIP leaf (by ``id``) to its
    producer's delivered output, in either backend's layout.
    """

    def __init__(
        self,
        database: GeoDatabase,
        metrics: ExecutionMetrics,
        ship_results: dict[int, Any] | None = None,
    ) -> None:
        self.database = database
        self.metrics = metrics
        self.ship_results = ship_results or {}
        self._child_seconds: list[float] = []

    def run(self, node: PhysicalPlan) -> RowBatch:
        self.metrics.operators_executed += 1
        start = time.perf_counter()
        self._child_seconds.append(0.0)
        result = self._dispatch(node)
        if not isinstance(result, RowBatch):
            result = RowBatch(*result)
        elapsed = time.perf_counter() - start
        child_seconds = self._child_seconds.pop()
        if self._child_seconds:
            self._child_seconds[-1] += elapsed
        self.metrics.record_operator(
            node.describe(), node.location, len(result.rows), elapsed - child_seconds
        )
        return result

    #: A fragment body's output in this backend's own layout.
    run_fragment = run

    def _dispatch(self, node: PhysicalPlan) -> Result:
        if isinstance(node, TableScan):
            return self._scan(node)
        if isinstance(node, Filter):
            return self._filter(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, HashJoin):
            return self._hash_join(node)
        if isinstance(node, NestedLoopJoin):
            return self._nested_loop_join(node)
        if isinstance(node, HashAggregate):
            return self._aggregate(node)
        if isinstance(node, UnionAll):
            return self._union(node)
        if isinstance(node, Sort):
            return self._sort(node)
        if isinstance(node, Ship):
            return self._ship(node)
        raise ExecutionError(f"unknown physical operator {type(node).__name__}")

    # -- leaf ------------------------------------------------------------------

    def _scan(self, node: TableScan) -> Result:
        rows = self.database.rows(node.database, node.table)
        self.metrics.rows_scanned += len(rows)
        return list(node.field_names), list(rows)

    # -- unary -----------------------------------------------------------------

    def _filter(self, node: Filter) -> Result:
        assert node.child is not None and node.predicate is not None
        columns, rows = self.run(node.child)
        return columns, compile_filter(node.predicate, columns)(rows)

    def _project(self, node: Project) -> Result:
        assert node.child is not None
        columns, rows = self.run(node.child)
        return list(node.names), compile_projection(node.exprs, columns)(rows)

    def _sort(self, node: Sort) -> Result:
        assert node.child is not None
        columns, rows = self.run(node.child)
        index = {name: i for i, name in enumerate(columns)}

        # Sort by keys in reverse significance order (stable sort).
        for name, descending in reversed(node.sort_keys):
            pos = index[name]
            # None sorts first ascending / last descending.
            rows.sort(
                key=lambda r: (r[pos] is not None, r[pos])
                if r[pos] is not None
                else (False, 0),
                reverse=descending,
            )
        if node.limit is not None:
            rows = rows[: node.limit]
        return columns, rows

    def _ship(self, node: Ship) -> RowBatch:
        # A wire-decoded producer output arrives as columns (the codec's
        # native form); this row consumer transposes it when it reads it.
        return shipped_input(self.ship_results, node).to_row_batch()

    # -- joins -----------------------------------------------------------------

    def _hash_join(self, node: HashJoin) -> Result:
        assert node.left is not None and node.right is not None
        left_columns, left_rows = self.run(node.left)
        right_columns, right_rows = self.run(node.right)
        left_key = itemgetter(*column_positions(node.left_keys, left_columns))
        right_key = itemgetter(*column_positions(node.right_keys, right_columns))
        composite = len(node.left_keys) > 1
        table: dict[Any, list[Row]] = {}
        for row in left_rows:
            key = left_key(row)
            if key is None or composite and None in key:
                continue  # NULL never matches in an equi-join
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
        # A probe key holding a NULL finds no bucket: none was built.
        get = table.get
        out_columns = left_columns + right_columns
        if node.residual is None:
            out = [
                match + row for row in right_rows for match in get(right_key(row), ())
            ]
        else:
            out = compile_filter(node.residual, out_columns)(
                match + row for row in right_rows for match in get(right_key(row), ())
            )
        # The node's declared field order may differ from the natural
        # left+right concatenation after join commutation; remap.
        return self._remap(out_columns, out, node)

    def _nested_loop_join(self, node: NestedLoopJoin) -> Result:
        assert node.left is not None and node.right is not None
        left_columns, left_rows = self.run(node.left)
        right_columns, right_rows = self.run(node.right)
        out_columns = left_columns + right_columns
        joined = starmap(concat, product(left_rows, right_rows))
        if node.condition is None:
            out = list(joined)
        else:
            out = compile_filter(node.condition, out_columns)(joined)
        return self._remap(out_columns, out, node)

    def _remap(self, columns: list[str], rows: list[Row], node: PhysicalPlan) -> Result:
        wanted = list(node.field_names)
        if wanted == columns:
            return columns, rows
        return wanted, list(map(_fields(columns, wanted), rows))

    # -- set and aggregate -------------------------------------------------------

    def _union(self, node: UnionAll) -> Result:
        columns = list(node.field_names)
        out: list[Row] = []
        for child in node.inputs:
            child_columns, child_rows = self.run(child)
            if child_columns == columns:
                out.extend(child_rows)
            else:
                out.extend(map(_fields(child_columns, columns), child_rows))
        return columns, out

    def _aggregate(self, node: HashAggregate) -> Result:
        assert node.child is not None
        columns, rows = self.run(node.child)
        aggregate = compile_aggregation(node.group_keys, node.aggregates, columns)
        return list(node.field_names), aggregate(rows)


def _fields(columns: list[str], wanted: list[str]) -> Callable[[Row], Row]:
    """``row -> tuple of its fields named by wanted``, in C
    (:func:`operator.itemgetter`) for two or more fields."""
    index = {name: i for i, name in enumerate(columns)}
    positions = [index[name] for name in wanted]
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda row: tuple(row[p] for p in positions)
