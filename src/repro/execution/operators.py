"""Physical operator implementations (tuple-at-a-time over lists).

Each operator consumes fully-materialized child results; geo-distributed
queries in this reproduction are small enough that pipelining would only
add complexity.  An executor evaluates one fragment body: its SHIP
leaves are the cut edges the fragment scheduler has already delivered
(and priced), handed over in ``ship_results``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from ..errors import ExecutionError
from ..expr import AggregateFunction, compile_expression, compile_predicate
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
        predicate = compile_predicate(node.predicate, columns)
        return columns, [r for r in rows if predicate(r)]

    def _project(self, node: Project) -> Result:
        assert node.child is not None
        columns, rows = self.run(node.child)
        funcs = [compile_expression(e, columns) for e in node.exprs]
        out = [tuple(f(row) for f in funcs) for row in rows]
        return list(node.names), out

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
        left_key_funcs = [compile_expression(k, left_columns) for k in node.left_keys]
        right_key_funcs = [
            compile_expression(k, right_columns) for k in node.right_keys
        ]
        table: dict[tuple, list[Row]] = {}
        for row in left_rows:
            key = tuple(f(row) for f in left_key_funcs)
            if any(v is None for v in key):
                continue  # NULL never matches in an equi-join
            table.setdefault(key, []).append(row)
        out_columns = left_columns + right_columns
        residual: Callable[[Sequence[Any]], bool] | None = None
        if node.residual is not None:
            residual = compile_predicate(node.residual, out_columns)
        out: list[Row] = []
        for row in right_rows:
            key = tuple(f(row) for f in right_key_funcs)
            if any(v is None for v in key):
                continue
            for match in table.get(key, ()):
                joined = match + row
                if residual is None or residual(joined):
                    out.append(joined)
        # The node's declared field order may differ from the natural
        # left+right concatenation after join commutation; remap.
        return self._remap(out_columns, out, node)

    def _nested_loop_join(self, node: NestedLoopJoin) -> Result:
        assert node.left is not None and node.right is not None
        left_columns, left_rows = self.run(node.left)
        right_columns, right_rows = self.run(node.right)
        out_columns = left_columns + right_columns
        out: list[Row] = []
        if node.condition is None:
            for lrow in left_rows:
                for rrow in right_rows:
                    out.append(lrow + rrow)
        else:
            predicate = compile_predicate(node.condition, out_columns)
            for lrow in left_rows:
                for rrow in right_rows:
                    joined = lrow + rrow
                    if predicate(joined):
                        out.append(joined)
        return self._remap(out_columns, out, node)

    def _remap(self, columns: list[str], rows: list[Row], node: PhysicalPlan) -> Result:
        wanted = list(node.field_names)
        if wanted == columns:
            return columns, rows
        index = {name: i for i, name in enumerate(columns)}
        positions = [index[name] for name in wanted]
        return wanted, [tuple(row[p] for p in positions) for row in rows]

    # -- set and aggregate -------------------------------------------------------

    def _union(self, node: UnionAll) -> Result:
        columns = list(node.field_names)
        out: list[Row] = []
        for child in node.inputs:
            child_columns, child_rows = self.run(child)
            if child_columns == columns:
                out.extend(child_rows)
            else:
                index = {name: i for i, name in enumerate(child_columns)}
                positions = [index[name] for name in columns]
                out.extend(tuple(r[p] for p in positions) for r in child_rows)
        return columns, out

    def _aggregate(self, node: HashAggregate) -> Result:
        assert node.child is not None
        columns, rows = self.run(node.child)
        key_funcs = [compile_expression(k, columns) for k in node.group_keys]
        arg_funcs: list[Callable[[Sequence[Any]], Any] | None] = []
        for agg in node.aggregates:
            if agg.argument is None:
                arg_funcs.append(None)
            else:
                arg_funcs.append(compile_expression(agg.argument, columns))

        groups: dict[tuple, list[_Accumulator]] = {}
        for row in rows:
            key = tuple(f(row) for f in key_funcs)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [_Accumulator(a.func) for a in node.aggregates]
                groups[key] = accumulators
            for accumulator, arg_func in zip(accumulators, arg_funcs):
                accumulator.update(arg_func(row) if arg_func is not None else 1)

        # A global aggregate over an empty input still yields one row.
        if not groups and not node.group_keys:
            groups[()] = [_Accumulator(a.func) for a in node.aggregates]

        out = [
            key + tuple(acc.result() for acc in accumulators)
            for key, accumulators in groups.items()
        ]
        return list(node.field_names), out


class _Accumulator:
    """Accumulator for one aggregate function (NULLs skipped, SQL-style)."""

    __slots__ = ("func", "total", "count", "extreme")

    def __init__(self, func: AggregateFunction) -> None:
        self.func = func
        self.total: Any = 0
        self.count = 0
        self.extreme: Any = None

    def update(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        if self.func in (AggregateFunction.SUM, AggregateFunction.AVG):
            self.total += value
        elif self.func == AggregateFunction.MIN:
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif self.func == AggregateFunction.MAX:
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def result(self) -> Any:
        if self.func == AggregateFunction.COUNT:
            return self.count
        if self.func == AggregateFunction.SUM:
            return self.total if self.count else None
        if self.func == AggregateFunction.AVG:
            return self.total / self.count if self.count else None
        return self.extreme
