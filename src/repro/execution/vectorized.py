"""Columnar (batch) physical operator implementations.

The row backend (:mod:`repro.execution.operators`) evaluates one Python
tuple at a time through per-row closures — a chain of Python calls per
row per expression node, which dominates local compute once benchmarks
push hundreds of thousands of TPC-H rows through scans, joins and
aggregates.  This module is the second execution backend: operators pass
:class:`ColumnBatch` objects (parallel columns instead of row tuples)
and expressions run as compiled batch kernels
(:mod:`repro.expr.kernels`), so the per-row work collapses into list
comprehensions and per-column tight loops.

Semantics are identical to the row backend by construction *and* by
test: same NULL three-valued logic, same operator output order (filters
preserve order, hash joins probe in the same sequence, aggregate groups
appear in first-seen order, sorts use the same stable key), so the two
backends produce row-identical results — locked down by the executor
equivalence suite and the kernel property tests.

Layout and conversion rules
---------------------------

* A :class:`ColumnBatch` carries ``columns`` (field names), ``data``
  (one read-only sequence per field, all of length ``nrows``) and
  ``nrows``.  Operators never mutate a column in place; derived batches
  share unchanged columns by reference (projection and column remapping
  are O(#columns), not O(rows)).
* Filters compile to selection kernels: a *selection vector* of passing
  row indices is refined conjunct by conjunct and applied once per
  column (:func:`repro.expr.kernels.compile_predicate_kernel`).
* SHIP-boundary conversion rule — columns cross a SHIP as columns:
  the wire codec (:mod:`repro.execution.wire`) encodes and decodes
  column data, so a batch-backend SHIP edge goes columns → encode →
  decode → columns.  Rows materialize **only where a row consumer
  asks**: the scheduler transposes the root fragment's output once for
  the final result, and the row backend transposes a decoded batch it
  reads.
  SHIP byte accounting uses :func:`column_bytes` (or, when the codec
  runs, the encoder's own sizing pass) — never a tuple.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from ..errors import ExecutionError
from ..expr import AggregateFunction, compile_kernel, compile_predicate_kernel
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
from .operators import RowBatch, shipped_input
from .wire import column_nbytes, columns_of, rows_of

#: One column of values; scans yield tuples, computed columns are lists.
Column = Sequence[Any]


def column_bytes(data: Sequence[Column]) -> int:
    """Measured wire size of a column batch — each column sized by
    :func:`repro.execution.wire.column_nbytes`, the one size model, so a
    SHIP can be billed without materializing row tuples."""
    return sum(map(column_nbytes, data))


class ColumnBatch:
    """One operator's output in columnar form (see module docstring).

    Exposes the same ``columns`` / ``nrows`` / ``nbytes`` / ``data``
    surface as :class:`~repro.execution.operators.RowBatch`, so a SHIP
    handles either layout; the measured wire size is cached for the
    scheduler's retry and re-delivery paths."""

    __slots__ = ("columns", "data", "nrows", "_nbytes")

    def __init__(self, columns: list[str], data: list[Column], nrows: int) -> None:
        self.columns = columns
        self.data = data
        self.nrows = nrows
        self._nbytes: int | None = None

    @classmethod
    def from_rows(cls, columns: list[str], rows: Sequence[tuple]) -> "ColumnBatch":
        return cls(list(columns), columns_of(rows, len(columns)), len(rows))

    def to_rows(self) -> list[tuple]:
        """Transpose to row tuples (row consumers only: the final
        result, or the row backend reading a decoded SHIP)."""
        return rows_of(self.data, self.nrows)

    def to_row_batch(self) -> RowBatch:
        """The batch for a row consumer: one transpose, size carried over."""
        return RowBatch(self.columns, self.to_rows(), nbytes=self._nbytes)

    @property
    def nbytes(self) -> int:
        """Measured wire size of the batch, computed once."""
        if self._nbytes is None:
            self._nbytes = column_bytes(self.data)
        return self._nbytes

    def gather(self, sel: Sequence[int]) -> "ColumnBatch":
        """Apply a selection vector, producing a dense batch."""
        return ColumnBatch(
            self.columns, [[c[i] for i in sel] for c in self.data], len(sel)
        )


class BatchOperatorExecutor:
    """Columnar evaluator for one located fragment body.

    Drop-in replacement for :class:`~repro.execution.operators
    .OperatorExecutor`: same constructor, same metrics bookkeeping (one
    :class:`OperatorRecord` per operator with self wall-clock time),
    :meth:`run` returns the same :class:`RowBatch` shape, and
    :meth:`run_fragment` the backend's own layout — so the fragment
    scheduler drives either backend unchanged.  Its output stays a
    :class:`ColumnBatch` and its cut SHIP leaves read the producers'
    (decoded) columns as they are.
    """

    def __init__(
        self,
        database: GeoDatabase,
        metrics: ExecutionMetrics,
        ship_results: dict[int, ColumnBatch] | None = None,
    ) -> None:
        self.database = database
        self.metrics = metrics
        self.ship_results = ship_results or {}
        self._child_seconds: list[float] = []

    # -- public API (row boundary) ---------------------------------------------

    def run(self, node: PhysicalPlan) -> RowBatch:
        """Evaluate ``node`` and materialize the result as rows (the
        final-result conversion boundary)."""
        return self.run_batch(node).to_row_batch()

    # -- columnar recursion ----------------------------------------------------

    def run_batch(self, node: PhysicalPlan) -> ColumnBatch:
        self.metrics.operators_executed += 1
        start = time.perf_counter()
        self._child_seconds.append(0.0)
        batch = self._dispatch(node)
        elapsed = time.perf_counter() - start
        child_seconds = self._child_seconds.pop()
        if self._child_seconds:
            self._child_seconds[-1] += elapsed
        self.metrics.record_operator(
            node.describe(), node.location, batch.nrows, elapsed - child_seconds
        )
        return batch

    #: A fragment body's output in this backend's own layout.
    run_fragment = run_batch

    def _dispatch(self, node: PhysicalPlan) -> ColumnBatch:
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

    def _scan(self, node: TableScan) -> ColumnBatch:
        # Columnar storage access: the database transposes each fragment
        # once and caches it, so a scan is O(#columns) reference sharing.
        data = self.database.columns(node.database, node.table)
        nrows = len(data[0]) if data else 0
        self.metrics.rows_scanned += nrows
        return ColumnBatch(list(node.field_names), list(data), nrows)

    # -- unary -----------------------------------------------------------------

    def _filter(self, node: Filter) -> ColumnBatch:
        assert node.child is not None and node.predicate is not None
        child = self.run_batch(node.child)
        refine = compile_predicate_kernel(node.predicate, child.columns)
        sel = refine(child.data, None, child.nrows)
        if len(sel) == child.nrows:
            return child  # nothing dropped; keep the columns shared
        return child.gather(sel)

    def _project(self, node: Project) -> ColumnBatch:
        assert node.child is not None
        child = self.run_batch(node.child)
        kernels = [compile_kernel(e, child.columns) for e in node.exprs]
        data = [k(child.data, None, child.nrows) for k in kernels]
        return ColumnBatch(list(node.names), data, child.nrows)

    def _sort(self, node: Sort) -> ColumnBatch:
        assert node.child is not None
        child = self.run_batch(node.child)
        index = {name: i for i, name in enumerate(child.columns)}
        order = list(range(child.nrows))

        # Sort by keys in reverse significance order (stable sort), with
        # the row backend's exact NULL placement.
        for name, descending in reversed(node.sort_keys):
            col = child.data[index[name]]
            order.sort(
                key=lambda i: (True, col[i]) if col[i] is not None else (False, 0),
                reverse=descending,
            )
        if node.limit is not None:
            order = order[: node.limit]
        return child.gather(order)

    def _ship(self, node: Ship) -> ColumnBatch:
        # The producer's (decoded) columns, read as they are.
        return shipped_input(self.ship_results, node)

    # -- joins -----------------------------------------------------------------

    def _hash_join(self, node: HashJoin) -> ColumnBatch:
        assert node.left is not None and node.right is not None
        left = self.run_batch(node.left)
        right = self.run_batch(node.right)
        left_keys = [
            compile_kernel(k, left.columns)(left.data, None, left.nrows)
            for k in node.left_keys
        ]
        right_keys = [
            compile_kernel(k, right.columns)(right.data, None, right.nrows)
            for k in node.right_keys
        ]
        table: dict[Any, list[int]] = {}
        if len(left_keys) == 1:
            for i, v in enumerate(left_keys[0]):
                if v is None:
                    continue  # NULL never matches in an equi-join
                table.setdefault(v, []).append(i)
        else:
            for i, key in enumerate(zip(*left_keys)):
                if any(v is None for v in key):
                    continue
                table.setdefault(key, []).append(i)
        lidx: list[int] = []
        ridx: list[int] = []
        get = table.get
        if len(right_keys) == 1:
            for j, v in enumerate(right_keys[0]):
                if v is None:
                    continue
                matches = get(v)
                if matches is not None:
                    for i in matches:
                        lidx.append(i)
                        ridx.append(j)
        else:
            for j, key in enumerate(zip(*right_keys)):
                if any(v is None for v in key):
                    continue
                matches = get(key)
                if matches is not None:
                    for i in matches:
                        lidx.append(i)
                        ridx.append(j)
        columns = left.columns + right.columns
        data = [[c[i] for i in lidx] for c in left.data] + [
            [c[j] for j in ridx] for c in right.data
        ]
        batch = ColumnBatch(columns, data, len(lidx))
        if node.residual is not None:
            refine = compile_predicate_kernel(node.residual, columns)
            sel = refine(batch.data, None, batch.nrows)
            if len(sel) != batch.nrows:
                batch = batch.gather(sel)
        return self._remap(batch, node)

    def _nested_loop_join(self, node: NestedLoopJoin) -> ColumnBatch:
        assert node.left is not None and node.right is not None
        left = self.run_batch(node.left)
        right = self.run_batch(node.right)
        nl, nr = left.nrows, right.nrows
        lidx = [i for i in range(nl) for _ in range(nr)]
        ridx = list(range(nr)) * nl
        columns = left.columns + right.columns
        data = [[c[i] for i in lidx] for c in left.data] + [
            [c[j] for j in ridx] for c in right.data
        ]
        batch = ColumnBatch(columns, data, len(lidx))
        if node.condition is not None:
            refine = compile_predicate_kernel(node.condition, columns)
            sel = refine(batch.data, None, batch.nrows)
            if len(sel) != batch.nrows:
                batch = batch.gather(sel)
        return self._remap(batch, node)

    def _remap(self, batch: ColumnBatch, node: PhysicalPlan) -> ColumnBatch:
        """Reorder columns to the node's declared field order — O(#cols)
        reference shuffling, no row materialization."""
        wanted = list(node.field_names)
        if wanted == batch.columns:
            return batch
        index = {name: i for i, name in enumerate(batch.columns)}
        data = [batch.data[index[name]] for name in wanted]
        return ColumnBatch(wanted, data, batch.nrows)

    # -- set and aggregate -------------------------------------------------------

    def _union(self, node: UnionAll) -> ColumnBatch:
        columns = list(node.field_names)
        data: list[list] = [[] for _ in columns]
        nrows = 0
        for child_node in node.inputs:
            child = self.run_batch(child_node)
            if child.columns == columns:
                ordered = child.data
            else:
                index = {name: i for i, name in enumerate(child.columns)}
                ordered = [child.data[index[name]] for name in columns]
            for out, col in zip(data, ordered):
                out.extend(col)
            nrows += child.nrows
        return ColumnBatch(columns, data, nrows)

    def _aggregate(self, node: HashAggregate) -> ColumnBatch:
        assert node.child is not None
        child = self.run_batch(node.child)
        cols, n = child.data, child.nrows
        key_cols = [
            compile_kernel(k, child.columns)(cols, None, n) for k in node.group_keys
        ]
        arg_cols: list[Column | None] = [
            None
            if agg.argument is None
            else compile_kernel(agg.argument, child.columns)(cols, None, n)
            for agg in node.aggregates
        ]

        # Pass 1: assign each row a dense group index (first-seen order,
        # matching the row backend's dict insertion order).
        keys: list[tuple] = []
        gidx: list[int] = []
        if not key_cols:
            keys = [()]  # a global aggregate always yields one row
            gidx = [0] * n
        elif len(key_cols) == 1:
            group_of: dict[Any, int] = {}
            for v in key_cols[0]:
                g = group_of.get(v)
                if g is None:
                    g = len(keys)
                    group_of[v] = g
                    keys.append((v,))
                gidx.append(g)
        else:
            group_of = {}
            for key in zip(*key_cols):
                g = group_of.get(key)
                if g is None:
                    g = len(keys)
                    group_of[key] = g
                    keys.append(key)
                gidx.append(g)
        ngroups = len(keys)

        # Pass 2: one tight accumulation loop per aggregate (NULLs
        # skipped, SQL-style — identical to the row accumulators).
        agg_data: list[list] = []
        for agg, argcol in zip(node.aggregates, arg_cols):
            func = agg.func
            if func == AggregateFunction.COUNT:
                counts = [0] * ngroups
                if argcol is None:
                    for g in gidx:
                        counts[g] += 1
                else:
                    for g, v in zip(gidx, argcol):
                        if v is not None:
                            counts[g] += 1
                agg_data.append(counts)
            elif func in (AggregateFunction.SUM, AggregateFunction.AVG):
                totals: list[Any] = [0] * ngroups
                counts = [0] * ngroups
                assert argcol is not None
                for g, v in zip(gidx, argcol):
                    if v is not None:
                        totals[g] += v
                        counts[g] += 1
                if func == AggregateFunction.SUM:
                    agg_data.append(
                        [t if c else None for t, c in zip(totals, counts)]
                    )
                else:
                    agg_data.append(
                        [t / c if c else None for t, c in zip(totals, counts)]
                    )
            else:  # MIN / MAX
                extremes: list[Any] = [None] * ngroups
                assert argcol is not None
                if func == AggregateFunction.MIN:
                    for g, v in zip(gidx, argcol):
                        if v is not None:
                            e = extremes[g]
                            if e is None or v < e:
                                extremes[g] = v
                else:
                    for g, v in zip(gidx, argcol):
                        if v is not None:
                            e = extremes[g]
                            if e is None or v > e:
                                extremes[g] = v
                agg_data.append(extremes)

        nkeys = len(node.group_keys)
        key_data: list[list] = [[k[j] for k in keys] for j in range(nkeys)]
        return ColumnBatch(
            list(node.field_names), key_data + agg_data, ngroups
        )
