"""Logical query plan operators.

Nodes are immutable and compared structurally, which lets the optimizer
memo deduplicate equivalent subplans.  Every node derives an ordered tuple
of output :class:`Field`\\ s; field names are unique within a plan (the
binder qualifies them as ``alias.column``), and fields that pass a stored
attribute through unchanged carry its :class:`~repro.expr.BaseColumn`
provenance for the policy evaluator.

The logical algebra is the one the paper optimizes over: scan, filter
(selection σ), project (Π), inner join (⋈), grouping/aggregation (Γ), and
union (for GAV-fragmented tables, §7.5).  SHIP is *not* a logical
operator — it is introduced by the site selector in phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Hashable, Iterator

from ..datatypes import DataType
from ..errors import OptimizerError
from ..expr import (
    AggregateCall,
    BaseColumn,
    ColumnRef,
    Expression,
    expression_dtype,
)


@dataclass(frozen=True)
class Field:
    """One column of an operator's output."""

    name: str
    dtype: DataType
    base: BaseColumn | None = None
    #: Estimated value width in bytes (for ship-cost estimation).
    width: int = 8

    def to_ref(self) -> ColumnRef:
        return ColumnRef(self.name, self.dtype, self.base)


class LogicalPlan:
    """Base class of all logical operators."""

    #: Names of the fields holding expressions: a single-valued one holds
    #: a predicate (or ``None``), a tuple-valued one output expressions.
    expr_fields: ClassVar[tuple[str, ...]] = ()

    def children(self) -> tuple["LogicalPlan", ...]:
        raise NotImplementedError

    def with_children(self, children: tuple["LogicalPlan", ...]) -> "LogicalPlan":
        raise NotImplementedError

    def op_key(self) -> Hashable:
        """Hashable identity of this operator *excluding* children, used by
        the memo to deduplicate expressions over child groups."""
        raise NotImplementedError

    @property
    def fields(self) -> tuple[Field, ...]:
        raise NotImplementedError

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise OptimizerError(f"no field {name!r} in {type(self).__name__}")

    @property
    def row_width(self) -> int:
        return sum(f.width for f in self.fields)

    def walk(self) -> Iterator["LogicalPlan"]:
        yield self
        for child in self.children():
            yield from child.walk()

    @property
    def source_databases(self) -> frozenset[str]:
        """Databases whose stored tables feed this subplan."""
        out: set[str] = set()
        for node in self.walk():
            if isinstance(node, LogicalScan):
                out.add(node.database)
        return frozenset(out)


@dataclass(frozen=True)
class LogicalScan(LogicalPlan):
    """Scan of one stored table fragment.

    ``alias`` is the query-level correlation name; output field names are
    ``alias.column``.  ``database``/``location`` identify the fragment.
    """

    table: str
    database: str
    location: str
    alias: str
    scan_fields: tuple[Field, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return ()

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return self

    def op_key(self) -> Hashable:
        return ("scan", self.table, self.database, self.alias)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self.scan_fields

    def __str__(self) -> str:
        return f"Scan({self.database}.{self.table} AS {self.alias} @ {self.location})"


@dataclass(frozen=True)
class LogicalFilter(LogicalPlan):
    """Selection σ_predicate."""

    expr_fields = ("predicate",)

    child: LogicalPlan
    predicate: Expression

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return LogicalFilter(children[0], self.predicate)

    def op_key(self) -> Hashable:
        return ("filter", self.predicate)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self.child.fields

    def __str__(self) -> str:
        return f"Filter[{self.predicate}]"


def _field_width(dtype: DataType) -> int:
    from ..datatypes import default_width

    return default_width(dtype)


def project_output_fields(
    child: LogicalPlan,
    exprs: tuple[Expression, ...],
    names: tuple[str, ...],
) -> tuple[Field, ...]:
    """Derive the output fields of a projection."""
    child_fields = {f.name: f for f in child.fields}
    out: list[Field] = []
    for expr, name in zip(exprs, names):
        if isinstance(expr, ColumnRef):
            source = child_fields.get(expr.name)
            if source is None:
                raise OptimizerError(
                    f"projection references unknown field {expr.name!r}"
                )
            out.append(Field(name, source.dtype, source.base, source.width))
        else:
            dtype = expression_dtype(expr)
            out.append(Field(name, dtype, None, _field_width(dtype)))
    return tuple(out)


@dataclass(frozen=True)
class LogicalProject(LogicalPlan):
    """Projection Π: computes ``exprs`` and names them ``names``.

    Pure column-pruning projections (every expr a ColumnRef kept under its
    own name) are how the optimizer "masks" restricted attributes before a
    SHIP (paper Fig. 1(b), operator Π_{c,n}).
    """

    expr_fields = ("exprs",)

    child: LogicalPlan
    exprs: tuple[Expression, ...]
    names: tuple[str, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return LogicalProject(children[0], self.exprs, self.names)

    def op_key(self) -> Hashable:
        return ("project", self.exprs, self.names)

    @cached_property
    def _fields(self) -> tuple[Field, ...]:
        return project_output_fields(self.child, self.exprs, self.names)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def is_pruning_only(self) -> bool:
        """True when this projection only selects/renames child columns."""
        return all(isinstance(e, ColumnRef) for e in self.exprs)

    def __str__(self) -> str:
        cols = ", ".join(
            name if isinstance(e, ColumnRef) and e.name == name else f"{e} AS {name}"
            for e, name in zip(self.exprs, self.names)
        )
        return f"Project[{cols}]"


@dataclass(frozen=True)
class LogicalJoin(LogicalPlan):
    """Inner join with an optional condition (None = cross product)."""

    expr_fields = ("condition",)

    left: LogicalPlan
    right: LogicalPlan
    condition: Expression | None

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return LogicalJoin(children[0], children[1], self.condition)

    def op_key(self) -> Hashable:
        return ("join", self.condition)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self.left.fields + self.right.fields

    def __str__(self) -> str:
        return f"Join[{self.condition}]"


@dataclass(frozen=True)
class LogicalAggregate(LogicalPlan):
    """Grouping/aggregation Γ.

    ``group_keys`` are references to child fields; ``aggregates`` are
    :class:`AggregateCall`\\ s over child fields; output fields are the
    group keys (keeping name and provenance) followed by the aggregate
    results named ``agg_names``.
    """

    expr_fields = ("group_keys", "aggregates")

    child: LogicalPlan
    group_keys: tuple[ColumnRef, ...]
    aggregates: tuple[AggregateCall, ...]
    agg_names: tuple[str, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return LogicalAggregate(
            children[0], self.group_keys, self.aggregates, self.agg_names
        )

    def op_key(self) -> Hashable:
        return ("aggregate", self.group_keys, self.aggregates, self.agg_names)

    @cached_property
    def _fields(self) -> tuple[Field, ...]:
        out: list[Field] = []
        for key in self.group_keys:
            out.append(self.child.field(key.name))
        for agg, name in zip(self.aggregates, self.agg_names):
            dtype = expression_dtype(agg)
            out.append(Field(name, dtype, None, _field_width(dtype)))
        return tuple(out)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    def __str__(self) -> str:
        keys = ", ".join(k.name for k in self.group_keys)
        aggs = ", ".join(f"{a} AS {n}" for a, n in zip(self.aggregates, self.agg_names))
        return f"Aggregate[by: {keys}][{aggs}]"


@dataclass(frozen=True)
class LogicalUnion(LogicalPlan):
    """UNION ALL of fragments of one GAV-mapped global table (§7.5)."""

    inputs: tuple[LogicalPlan, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return self.inputs

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return LogicalUnion(children)

    def op_key(self) -> Hashable:
        return ("union", len(self.inputs))

    @property
    def fields(self) -> tuple[Field, ...]:
        # Fragments share names and types; provenance differs per fragment,
        # so the union's fields drop provenance (a value may come from any
        # fragment — the policy evaluator must consider them all).
        first = self.inputs[0].fields
        return tuple(Field(f.name, f.dtype, None, f.width) for f in first)

    def __str__(self) -> str:
        return f"UnionAll[{len(self.inputs)} inputs]"


@dataclass(frozen=True)
class LogicalSort(LogicalPlan):
    """ORDER BY ... LIMIT at the root of a plan.

    Sort keys are (field name, descending) pairs.  Sort/limit stay outside
    the memo: the optimizer strips them, optimizes the core, and re-applies
    them at the result site.
    """

    child: LogicalPlan
    sort_keys: tuple[tuple[str, bool], ...]
    limit: int | None = None

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return LogicalSort(children[0], self.sort_keys, self.limit)

    def op_key(self) -> Hashable:
        return ("sort", self.sort_keys, self.limit)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self.child.fields

    def __str__(self) -> str:
        keys = ", ".join(f"{n} DESC" if d else n for n, d in self.sort_keys)
        suffix = f" LIMIT {self.limit}" if self.limit is not None else ""
        return f"Sort[{keys}]{suffix}"
