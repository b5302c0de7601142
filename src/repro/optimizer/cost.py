"""Cardinality estimation and operator cost functions.

Phase 1 of the two-phase optimizer uses a *traditional* cost model that
assumes all tables are stored locally (paper §6): cost functions depend on
input cardinalities only.  Estimation is classic System-R style —
equality selectivity ``1/ndv``, range selectivity ``1/3``, join
selectivity ``1/max(ndv_l, ndv_r)`` per equi-conjunct.

Cardinalities are estimated on *logical* plans and memoized, so every
alternative in a memo group sees consistent estimates.

The compliance adaptation of the paper — an operator whose execution
trait is empty has infinite cost — lives in the extraction logic
(:mod:`repro.optimizer.annotator`), which simply discards such
alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import Catalog, ColumnStats
from ..errors import CatalogError
from ..expr import (
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    split_conjuncts,
)
from ..plan import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)

#: Default selectivities for predicates we cannot estimate from stats.
RANGE_SELECTIVITY = 1 / 3
LIKE_SELECTIVITY = 1 / 4
DEFAULT_SELECTIVITY = 1 / 3
EQUALITY_FALLBACK = 1 / 10


@dataclass(frozen=True)
class CostWeights:
    """Per-tuple cost constants of the local execution model."""

    scan: float = 1.0
    filter: float = 0.5
    project: float = 0.3
    hash_build: float = 1.5
    hash_probe: float = 1.0
    join_output: float = 0.5
    nested_loop: float = 0.8
    aggregate_input: float = 1.2
    aggregate_output: float = 0.5
    union: float = 0.2
    sort: float = 2.0


class CostModel:
    """Cardinality and cost estimation over a catalog."""

    def __init__(self, catalog: Catalog, weights: CostWeights | None = None) -> None:
        self.catalog = catalog
        self.weights = weights or CostWeights()
        # Keyed by object identity: representatives are shared across memo
        # groups, and hashing deep plan trees repeatedly is the single
        # hottest operation otherwise.  Storing the plan itself keeps the
        # object alive, so ids cannot be recycled while cached — and so
        # the cache must be dropped (:meth:`forget_estimates`) once the
        # plans it was filled for are done with, or it pins them all.
        self._row_cache: dict[int, tuple[LogicalPlan, float]] = {}

    def forget_estimates(self) -> None:
        """Drop the memoized cardinalities (and the plans they pin)."""
        self._row_cache.clear()

    # -- statistics lookups --------------------------------------------------

    def _column_stats(self, plan: LogicalPlan, ref: ColumnRef) -> ColumnStats | None:
        base = ref.base
        if base is None:
            return None
        try:
            stored = self.catalog.stored_table(base.database, base.table)
        except CatalogError:
            return None
        return stored.stats.column(base.column)

    def distinct_count(self, plan: LogicalPlan, ref: ColumnRef) -> float:
        """Distinct values of ``ref`` in ``plan``'s output (capped by the
        plan's cardinality)."""
        rows = self.estimate_rows(plan)
        stats = self._column_stats(plan, ref)
        if stats is None:
            return max(1.0, rows / 10)
        return max(1.0, min(stats.distinct_count, rows))

    # -- selectivity ---------------------------------------------------------

    def selectivity(self, plan: LogicalPlan, predicate: Expression | None) -> float:
        if predicate is None:
            return 1.0
        if isinstance(predicate, And):
            sel = 1.0
            for op in predicate.operands:
                sel *= self.selectivity(plan, op)
            return sel
        if isinstance(predicate, Or):
            sel = 0.0
            for op in predicate.operands:
                sel += self.selectivity(plan, op)
            return min(1.0, sel)
        if isinstance(predicate, Not):
            return max(0.0, 1.0 - self.selectivity(plan, predicate.operand))
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(plan, predicate)
        if isinstance(predicate, Like):
            sel = LIKE_SELECTIVITY
            return 1.0 - sel if predicate.negated else sel
        if isinstance(predicate, InList):
            if isinstance(predicate.operand, ColumnRef):
                ndv = self._ndv_or_none(plan, predicate.operand)
                if ndv:
                    sel = min(1.0, len(predicate.values) / ndv)
                else:
                    sel = min(1.0, len(predicate.values) * EQUALITY_FALLBACK)
                return 1.0 - sel if predicate.negated else sel
            return DEFAULT_SELECTIVITY
        if isinstance(predicate, IsNull):
            return 0.05 if not predicate.negated else 0.95
        if isinstance(predicate, Literal):
            return 1.0 if predicate.value else 0.0
        return DEFAULT_SELECTIVITY

    def _ndv_or_none(self, plan: LogicalPlan, ref: ColumnRef) -> float | None:
        stats = self._column_stats(plan, ref)
        if stats is None:
            return None
        return float(max(1, stats.distinct_count))

    def _comparison_selectivity(self, plan: LogicalPlan, cmp: Comparison) -> float:
        left, right = cmp.left, cmp.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            if cmp.op == ComparisonOp.EQ:
                ndv = self._ndv_or_none(plan, left)
                return 1.0 / ndv if ndv else EQUALITY_FALLBACK
            if cmp.op == ComparisonOp.NE:
                ndv = self._ndv_or_none(plan, left)
                return 1.0 - (1.0 / ndv if ndv else EQUALITY_FALLBACK)
            return RANGE_SELECTIVITY
        if (
            isinstance(left, ColumnRef)
            and isinstance(right, ColumnRef)
            and cmp.op == ComparisonOp.EQ
        ):
            ndv_l = self._ndv_or_none(plan, left) or EQUALITY_FALLBACK ** -1
            ndv_r = self._ndv_or_none(plan, right) or EQUALITY_FALLBACK ** -1
            return 1.0 / max(ndv_l, ndv_r)
        return DEFAULT_SELECTIVITY

    # -- cardinality ---------------------------------------------------------

    def estimate_rows(self, plan: LogicalPlan) -> float:
        cached = self._row_cache.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        rows = max(1.0, self._estimate(plan))
        self._row_cache[id(plan)] = (plan, rows)
        return rows

    def _estimate(self, plan: LogicalPlan) -> float:
        if isinstance(plan, LogicalScan):
            stored = self.catalog.stored_table(plan.database, plan.table)
            return float(stored.stats.row_count)
        if isinstance(plan, LogicalFilter):
            child_rows = self.estimate_rows(plan.child)
            return child_rows * self.selectivity(plan.child, plan.predicate)
        if isinstance(plan, LogicalProject):
            return self.estimate_rows(plan.child)
        if isinstance(plan, LogicalJoin):
            left_rows = self.estimate_rows(plan.left)
            right_rows = self.estimate_rows(plan.right)
            rows = left_rows * right_rows
            conjuncts = split_conjuncts(plan.condition)
            consumed = self._foreign_key_groups(conjuncts)
            for fk_selectivity in consumed.values():
                rows *= fk_selectivity
            consumed_ids = set()
            for group in consumed:
                consumed_ids.update(group)
            for i, conjunct in enumerate(conjuncts):
                if i in consumed_ids:
                    continue
                rows *= self._join_conjunct_selectivity(plan, conjunct)
            return rows
        if isinstance(plan, LogicalAggregate):
            child_rows = self.estimate_rows(plan.child)
            if not plan.group_keys:
                return 1.0
            groups = 1.0
            for key in plan.group_keys:
                groups *= self.distinct_count(plan.child, key)
            return min(child_rows, groups)
        if isinstance(plan, LogicalUnion):
            return sum(self.estimate_rows(c) for c in plan.inputs)
        if isinstance(plan, LogicalSort):
            rows = self.estimate_rows(plan.child)
            if plan.limit is not None:
                rows = min(rows, float(plan.limit))
            return rows
        raise TypeError(f"unknown logical operator {type(plan).__name__}")

    def _foreign_key_groups(
        self, conjuncts: list[Expression]
    ) -> dict[tuple[int, ...], float]:
        """Detect conjunct groups that together form a foreign-key join.

        Treating composite-key equi-conjuncts as independent predicates
        underestimates join outputs by orders of magnitude (the classic
        correlated-columns trap) — e.g. ``lineitem ⋈ partsupp`` on
        ``(partkey, suppkey)``.  When the equi pairs cover a declared FK of
        one side referencing another table, the whole group's selectivity
        is ``1 / |referenced table|`` so the output is roughly the FK
        side's cardinality.
        """
        pairs: dict[tuple[str, str, str, str], int] = {}
        tables: set[tuple[str, str]] = set()
        for i, conjunct in enumerate(conjuncts):
            if not (
                isinstance(conjunct, Comparison)
                and conjunct.op == ComparisonOp.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                continue
            lb, rb = conjunct.left.base, conjunct.right.base
            if lb is None or rb is None:
                continue
            pairs[(lb.table, lb.column, rb.table, rb.column)] = i
            pairs[(rb.table, rb.column, lb.table, lb.column)] = i
            tables.add((lb.database, lb.table))
            tables.add((rb.database, rb.table))
        if not pairs:
            return {}
        groups: dict[tuple[int, ...], float] = {}
        for database, table in tables:
            try:
                stored = self.catalog.stored_table(database, table)
            except CatalogError:
                continue
            for fk in stored.schema.foreign_keys:
                indices = []
                for col, ref_col in zip(fk.columns, fk.ref_columns):
                    index = pairs.get((table, col, fk.ref_table, ref_col))
                    if index is None:
                        break
                    indices.append(index)
                else:
                    try:
                        ref = self.catalog.table(fk.ref_table)
                    except CatalogError:
                        continue
                    ref_rows = max(1, ref.total_rows)
                    groups[tuple(sorted(indices))] = 1.0 / ref_rows
        # Drop overlapping groups (keep the first), so no conjunct's
        # selectivity is applied twice.
        accepted: dict[tuple[int, ...], float] = {}
        used: set[int] = set()
        for indices, selectivity in sorted(groups.items()):
            if used & set(indices):
                continue
            used.update(indices)
            accepted[indices] = selectivity
        return accepted

    def _join_conjunct_selectivity(
        self, join: LogicalJoin, conjunct: Expression
    ) -> float:
        if isinstance(conjunct, Comparison) and conjunct.op == ComparisonOp.EQ:
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                ndv_l = self._ndv_or_none(join.left, left) or self._ndv_or_none(
                    join.right, left
                )
                ndv_r = self._ndv_or_none(join.left, right) or self._ndv_or_none(
                    join.right, right
                )
                candidates = [n for n in (ndv_l, ndv_r) if n]
                if candidates:
                    return 1.0 / max(candidates)
                return EQUALITY_FALLBACK
        return self.selectivity(join, conjunct)

    # -- operator cost (local execution, phase 1) ----------------------------

    def operator_cost(
        self, plan: LogicalPlan, child_rows: tuple[float, ...], output_rows: float
    ) -> float:
        """Local execution cost of the root operator of ``plan`` given its
        children's cardinalities (children's own costs excluded)."""
        w = self.weights
        if isinstance(plan, LogicalScan):
            return w.scan * output_rows
        if isinstance(plan, LogicalFilter):
            return w.filter * child_rows[0]
        if isinstance(plan, LogicalProject):
            return w.project * child_rows[0]
        if isinstance(plan, LogicalJoin):
            has_equi = any(
                isinstance(c, Comparison)
                and c.op == ComparisonOp.EQ
                and isinstance(c.left, ColumnRef)
                and isinstance(c.right, ColumnRef)
                for c in split_conjuncts(plan.condition)
            )
            left_rows, right_rows = child_rows
            if has_equi:
                return (
                    w.hash_build * left_rows
                    + w.hash_probe * right_rows
                    + w.join_output * output_rows
                )
            return w.nested_loop * left_rows * right_rows + w.join_output * output_rows
        if isinstance(plan, LogicalAggregate):
            return w.aggregate_input * child_rows[0] + w.aggregate_output * output_rows
        if isinstance(plan, LogicalUnion):
            return w.union * sum(child_rows)
        if isinstance(plan, LogicalSort):
            rows = child_rows[0]
            return w.sort * rows
        raise TypeError(f"unknown logical operator {type(plan).__name__}")
