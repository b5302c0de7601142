"""Semantic analysis: AST → bound logical plan.

The binder resolves table and column names against the geo-distributed
catalog, expands GAV-fragmented tables into UNION ALL of fragment scans
(§7.5), types every expression, attaches base-column provenance, and
shapes SELECT blocks into the logical algebra:

.. code-block:: text

    Sort? ( Project ( Filter?(HAVING) ( Aggregate? ( Filter?(WHERE) (
        Join( ... FROM items ... ) )))))

Output field names are the user-visible names (alias or derived) and are
unique; intermediate names are qualified ``alias.column``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from ..catalog import Catalog, GlobalTable
from ..datatypes import DataType, is_comparable
from ..errors import BindingError
from ..expr import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
    BaseColumn,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    expression_dtype,
    rewrite,
)
from ..plan import (
    Field,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)
from .ast import (
    AstAggregate,
    AstBetween,
    AstBinary,
    AstColumn,
    AstExpr,
    AstFunction,
    AstIn,
    AstIsNull,
    AstLike,
    AstLiteral,
    AstUnary,
    DerivedTableRef,
    SelectQuery,
    TableRef,
)
from .parser import parse_query

_COMPARISONS = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}
_ARITHMETIC = {
    "+": ArithmeticOp.ADD,
    "-": ArithmeticOp.SUB,
    "*": ArithmeticOp.MUL,
    "/": ArithmeticOp.DIV,
}


@dataclass
class Scope:
    """Column-name resolution scope over a plan's output fields."""

    fields: tuple[Field, ...]

    def resolve(self, qualifier: str | None, name: str) -> Field:
        name_lower = name.lower()
        if qualifier is not None:
            wanted = f"{qualifier.lower()}.{name_lower}"
            for field in self.fields:
                if field.name.lower() == wanted:
                    return field
            raise BindingError(f"unknown column {qualifier}.{name}")
        matches = [
            field
            for field in self.fields
            if field.name.lower() == name_lower
            or field.name.lower().endswith("." + name_lower)
        ]
        if not matches:
            raise BindingError(f"unknown column {name}")
        if len(matches) > 1:
            raise BindingError(
                f"ambiguous column {name}: matches "
                + ", ".join(f.name for f in matches)
            )
        return matches[0]


class Binder:
    """Binds parsed queries against a :class:`~repro.catalog.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- public API ----------------------------------------------------------

    def bind(self, query: SelectQuery) -> LogicalPlan:
        return self._bind_select(query)

    def bind_sql(self, sql: str) -> LogicalPlan:
        return self.bind(parse_query(sql))

    # -- FROM clause ---------------------------------------------------------

    def _scan_global_table(self, table: GlobalTable, alias: str) -> LogicalPlan:
        scans: list[LogicalPlan] = []
        for fragment in table.fragments:
            fields = tuple(
                Field(
                    name=f"{alias.lower()}.{col.name.lower()}",
                    dtype=col.dtype,
                    base=BaseColumn(fragment.database, table.name.lower(), col.name.lower()),
                    width=col.width,
                )
                for col in table.schema.columns
            )
            scans.append(
                LogicalScan(
                    table=table.name.lower(),
                    database=fragment.database,
                    location=fragment.location,
                    alias=alias.lower(),
                    scan_fields=fields,
                )
            )
        if len(scans) == 1:
            return scans[0]
        return LogicalUnion(tuple(scans))

    def _bind_from(self, query: SelectQuery) -> LogicalPlan:
        if not query.from_items:
            raise BindingError("FROM clause is required")
        plans: list[LogicalPlan] = []
        aliases: set[str] = set()
        for item in query.from_items:
            if isinstance(item, TableRef):
                alias = item.effective_alias.lower()
                table = self.catalog.table(item.name)
                plan: LogicalPlan = self._scan_global_table(table, alias)
            elif isinstance(item, DerivedTableRef):
                alias = item.alias.lower()
                inner = self._bind_select(item.query)
                # Re-qualify the subquery's output names under the alias.
                exprs = tuple(f.to_ref() for f in inner.fields)
                names = tuple(f"{alias}.{f.name}" for f in inner.fields)
                plan = LogicalProject(inner, exprs, names)
            else:  # pragma: no cover - parser produces only the two kinds
                raise BindingError(f"unsupported FROM item {item!r}")
            if alias in aliases:
                raise BindingError(f"duplicate table alias {alias!r}")
            aliases.add(alias)
            plans.append(plan)
        joined = plans[0]
        for plan in plans[1:]:
            joined = LogicalJoin(joined, plan, None)
        return joined

    # -- expressions ---------------------------------------------------------

    def _bind_expr(self, expr: AstExpr, scope: Scope, allow_aggregates: bool) -> Expression:
        if isinstance(expr, AstLiteral):
            return _bind_literal(expr.value)
        if isinstance(expr, AstColumn):
            return scope.resolve(expr.qualifier, expr.name).to_ref()
        if isinstance(expr, AstBinary):
            left = self._bind_expr(expr.left, scope, allow_aggregates)
            right = self._bind_expr(expr.right, scope, allow_aggregates)
            if expr.op in ("AND", "OR"):
                ctor = And if expr.op == "AND" else Or
                return ctor((left, right))
            if expr.op in _COMPARISONS:
                _check_comparable(left, right)
                return Comparison(_COMPARISONS[expr.op], left, right)
            if expr.op in _ARITHMETIC:
                return Arithmetic(_ARITHMETIC[expr.op], left, right)
            raise BindingError(f"unsupported operator {expr.op!r}")
        if isinstance(expr, AstUnary):
            operand = self._bind_expr(expr.operand, scope, allow_aggregates)
            if expr.op == "NOT":
                return Not(operand)
            return Negate(operand)
        if isinstance(expr, AstLike):
            operand = self._bind_expr(expr.operand, scope, allow_aggregates)
            return Like(operand, expr.pattern, expr.negated)
        if isinstance(expr, AstIn):
            operand = self._bind_expr(expr.operand, scope, allow_aggregates)
            values = tuple(_bind_literal(v.value) for v in expr.values)
            for value in values:
                _check_comparable(operand, value)
            return InList(operand, values, expr.negated)
        if isinstance(expr, AstBetween):
            operand = self._bind_expr(expr.operand, scope, allow_aggregates)
            low = self._bind_expr(expr.low, scope, allow_aggregates)
            high = self._bind_expr(expr.high, scope, allow_aggregates)
            _check_comparable(operand, low)
            _check_comparable(operand, high)
            between: Expression = And(
                (
                    Comparison(ComparisonOp.GE, operand, low),
                    Comparison(ComparisonOp.LE, operand, high),
                )
            )
            return Not(between) if expr.negated else between
        if isinstance(expr, AstIsNull):
            operand = self._bind_expr(expr.operand, scope, allow_aggregates)
            return IsNull(operand, expr.negated)
        if isinstance(expr, AstFunction):
            args = tuple(self._bind_expr(a, scope, allow_aggregates) for a in expr.args)
            return FunctionCall(expr.name, args)
        if isinstance(expr, AstAggregate):
            if not allow_aggregates:
                raise BindingError("aggregate not allowed in this clause")
            if expr.distinct:
                raise BindingError("DISTINCT aggregates are not supported")
            func = AggregateFunction[expr.func]
            argument = (
                None
                if expr.argument is None
                else self._bind_expr(expr.argument, scope, False)
            )
            if func != AggregateFunction.COUNT and argument is None:
                raise BindingError(f"{expr.func}(*) is only valid for COUNT")
            return AggregateCall(func, argument)
        raise BindingError(f"unsupported expression {expr!r}")

    # -- SELECT blocks -------------------------------------------------------

    def _bind_select(self, query: SelectQuery) -> LogicalPlan:
        plan = self._bind_from(query)
        scope = Scope(plan.fields)

        if query.where is not None:
            predicate = self._bind_expr(query.where, scope, allow_aggregates=False)
            if expression_dtype(predicate) != DataType.BOOLEAN:
                raise BindingError("WHERE predicate must be boolean")
            plan = LogicalFilter(plan, predicate)

        if query.star:
            if query.group_by or query.having:
                raise BindingError("SELECT * cannot be combined with GROUP BY")
            output_exprs: list[Expression] = [f.to_ref() for f in plan.fields]
            output_names = _output_names_for_star(plan.fields)
            plan = LogicalProject(plan, tuple(output_exprs), tuple(output_names))
            return self._apply_order_limit(plan, query, Scope(plan.fields))

        bound_items = [
            self._bind_expr(item.expr, scope, allow_aggregates=True)
            for item in query.items
        ]
        has_aggregates = (
            any(e.contains_aggregate() for e in bound_items)
            or bool(query.group_by)
            or query.having is not None
        )

        if not has_aggregates:
            names = _output_names(query, bound_items)
            plan = LogicalProject(plan, tuple(bound_items), tuple(names))
            return self._apply_order_limit(plan, query, Scope(plan.fields))

        # Aggregation query: bind group keys, collect aggregate calls.
        group_exprs = [
            self._bind_expr(g, scope, allow_aggregates=False) for g in query.group_by
        ]
        plan, group_refs = self._materialize_group_keys(plan, group_exprs)

        agg_calls: list[AggregateCall] = []

        def register(call: AggregateCall) -> ColumnRef:
            if call not in agg_calls:
                agg_calls.append(call)
            name = f"$agg{agg_calls.index(call)}"
            return ColumnRef(name, expression_dtype(call), None)

        having_expr: Expression | None = None
        if query.having is not None:
            having_expr = self._bind_expr(query.having, scope, allow_aggregates=True)

        # Output (and HAVING) expressions may repeat a computed GROUP BY
        # expression verbatim (e.g. SELECT YEAR(o_orderdate) ... GROUP BY
        # YEAR(o_orderdate)); rewrite such occurrences to the group key,
        # and every aggregate call to a reference to its output.
        group_key_map = list(zip(group_exprs, group_refs))

        def to_grouped(node: Expression) -> Expression | None:
            if isinstance(node, AggregateCall):
                return register(node)  # arguments see pre-grouping values
            if isinstance(node, Literal):
                return node  # a constant needs no group key
            for group_expr, ref in group_key_map:
                if node == group_expr:
                    return ref
            return None

        rewritten_items = [rewrite(e, to_grouped) for e in bound_items]
        rewritten_having = (
            rewrite(having_expr, to_grouped) if having_expr is not None else None
        )

        agg_names = tuple(f"$agg{i}" for i in range(len(agg_calls)))
        aggregate = LogicalAggregate(plan, tuple(group_refs), tuple(agg_calls), agg_names)

        # Validate: non-aggregate references must be group keys.
        group_names = {ref.name for ref in group_refs}
        allowed = group_names | set(agg_names)
        for item, original in zip(rewritten_items, query.items):
            bad = [r for r in item.references() if r not in allowed]
            if bad:
                raise BindingError(
                    f"output expression {original.expr} references non-grouped "
                    f"column(s) {bad}"
                )

        plan = aggregate
        if rewritten_having is not None:
            bad = [r for r in rewritten_having.references() if r not in allowed]
            if bad:
                raise BindingError(f"HAVING references non-grouped column(s) {bad}")
            plan = LogicalFilter(plan, rewritten_having)

        names = _output_names(query, bound_items)
        plan = LogicalProject(plan, tuple(rewritten_items), tuple(names))
        return self._apply_order_limit(plan, query, Scope(plan.fields))

    def _materialize_group_keys(
        self, plan: LogicalPlan, group_exprs: list[Expression]
    ) -> tuple[LogicalPlan, list[ColumnRef]]:
        """Ensure every group key is a plain column of ``plan``; computed
        keys (e.g. ``YEAR(o_orderdate)``) get a pre-projection."""
        computed = [
            (i, e) for i, e in enumerate(group_exprs) if not isinstance(e, ColumnRef)
        ]
        if not computed:
            return plan, [e for e in group_exprs if isinstance(e, ColumnRef)]
        exprs: list[Expression] = [f.to_ref() for f in plan.fields]
        names: list[str] = list(plan.field_names)
        refs: list[ColumnRef] = []
        for i, expr in enumerate(group_exprs):
            if isinstance(expr, ColumnRef):
                refs.append(expr)
            else:
                name = f"$gk{i}"
                exprs.append(expr)
                names.append(name)
                refs.append(ColumnRef(name, expression_dtype(expr), None))
        return LogicalProject(plan, tuple(exprs), tuple(names)), refs

    def _apply_order_limit(
        self, plan: LogicalPlan, query: SelectQuery, scope: Scope
    ) -> LogicalPlan:
        if not query.order_by and query.limit is None:
            return plan
        sort_keys: list[tuple[str, bool]] = []
        for item in query.order_by:
            if not isinstance(item.expr, AstColumn):
                raise BindingError(
                    "ORDER BY supports only output column names"
                )
            field = scope.resolve(item.expr.qualifier, item.expr.name)
            sort_keys.append((field.name, item.descending))
        return LogicalSort(plan, tuple(sort_keys), query.limit)


# -- helpers -----------------------------------------------------------------


def _bind_literal(value: object) -> Literal:
    if value is None:
        return Literal(None, DataType.VARCHAR)
    if isinstance(value, bool):
        return Literal(value, DataType.BOOLEAN)
    if isinstance(value, int):
        return Literal(value, DataType.INTEGER)
    if isinstance(value, float):
        return Literal(value, DataType.DECIMAL)
    if isinstance(value, str):
        return Literal(value, DataType.VARCHAR)
    if isinstance(value, datetime.date):
        return Literal(value, DataType.DATE)
    raise BindingError(f"unsupported literal {value!r}")


def _check_comparable(left: Expression, right: Expression) -> None:
    """Reject comparing values of incomparable types (a NULL literal
    compares with anything)."""
    left_type, right_type = expression_dtype(left), expression_dtype(right)
    if is_comparable(left_type, right_type) or any(
        isinstance(e, Literal) and e.value is None for e in (left, right)
    ):
        return
    raise BindingError(
        f"cannot compare {left} ({left_type.value}) with {right} ({right_type.value})"
    )


def _unique_names(raw: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out: list[str] = []
    for name in raw:
        if name not in seen:
            seen[name] = 0
            out.append(name)
        else:
            seen[name] += 1
            out.append(f"{name}_{seen[name]}")
    return out


def _output_names(query: SelectQuery, bound_items: list[Expression]) -> list[str]:
    raw: list[str] = []
    for item, bound in zip(query.items, bound_items):
        if item.alias is not None:
            raw.append(item.alias.lower())
        elif isinstance(item.expr, AstColumn):
            raw.append(item.expr.name.lower())
        elif isinstance(item.expr, AstAggregate):
            arg = item.expr.argument
            if isinstance(arg, AstColumn):
                raw.append(f"{item.expr.func.lower()}_{arg.name.lower()}")
            else:
                raw.append(item.expr.func.lower())
        else:
            raw.append(f"col{len(raw)}")
    return _unique_names(raw)


def _output_names_for_star(fields: tuple[Field, ...]) -> list[str]:
    raw = [f.name.split(".")[-1] for f in fields]
    return _unique_names(raw)
