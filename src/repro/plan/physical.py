"""Physical (executable, located) query plan operators.

Phase 2 of the optimizer (the site selector) turns an annotated logical
plan into a tree of these nodes: every operator carries the location it
executes at, and :class:`Ship` operators are materialized on edges whose
endpoints live at different locations — exactly the plans of Figure 1 in
the paper.

Physical nodes are plain mutable dataclasses (they never enter the memo);
each caches its output fields and the optimizer's cardinality estimate so
the executor and the cost reports need no re-derivation.  Each class
declares which of its fields hold child operators and which hold
expressions; :func:`copy_plan`, the one deep copy, reads only those
declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

from ..expr import AggregateCall, ColumnRef, Expression
from .logical import Field


@dataclass
class PhysicalPlan:
    """Base class of physical operators."""

    fields: tuple[Field, ...]
    location: str
    estimated_rows: float = 0.0
    #: The annotated execution trait ℰ of the operator — every location
    #: it may legally run at (paper §6.2).  Attached by the site
    #: selector during materialization; ``None`` on hand-built plans and
    #: on Ship operators (a transfer has no execution site of its own).
    #: The recovery layer restricts failover placements to ⋂ℰ of a
    #: fragment's operators so re-placed plans stay compliant.
    execution_trait: frozenset[str] | None = None

    #: Names of the fields holding child operators, in ``children()``
    #: order; a tuple-valued field holds several.
    child_fields: ClassVar[tuple[str, ...]] = ()
    #: Names of the fields holding expressions (one, ``None``, or a tuple).
    expr_fields: ClassVar[tuple[str, ...]] = ()

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @property
    def row_width(self) -> int:
        return sum(f.width for f in self.fields)

    @property
    def estimated_bytes(self) -> float:
        return self.estimated_rows * self.row_width

    def walk(self) -> Iterator["PhysicalPlan"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def describe(self) -> str:
        """One-line operator description for plan printing."""
        return type(self).__name__


@dataclass
class TableScan(PhysicalPlan):
    """Scan of one stored fragment at its home location."""

    table: str = ""
    database: str = ""
    alias: str = ""

    def describe(self) -> str:
        return f"TableScan {self.database}.{self.table} AS {self.alias}"


@dataclass
class Filter(PhysicalPlan):
    child_fields = ("child",)
    expr_fields = ("predicate",)

    child: PhysicalPlan | None = None
    predicate: Expression | None = None

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"Filter {self.predicate}"


@dataclass
class Project(PhysicalPlan):
    child_fields = ("child",)
    expr_fields = ("exprs",)

    child: PhysicalPlan | None = None
    exprs: tuple[Expression, ...] = ()
    names: tuple[str, ...] = ()

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        cols = ", ".join(
            name if isinstance(e, ColumnRef) and e.name == name else f"{e} AS {name}"
            for e, name in zip(self.exprs, self.names)
        )
        return f"Project {cols}"


@dataclass
class HashJoin(PhysicalPlan):
    """Equi-join: build a hash table on the left keys, probe with right."""

    child_fields = ("left", "right")
    expr_fields = ("left_keys", "right_keys", "residual")

    left: PhysicalPlan | None = None
    right: PhysicalPlan | None = None
    left_keys: tuple[ColumnRef, ...] = ()
    right_keys: tuple[ColumnRef, ...] = ()
    #: Residual non-equi conjuncts evaluated on joined rows.
    residual: Expression | None = None

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)  # type: ignore[return-value]

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.name}={r.name}" for l, r in zip(self.left_keys, self.right_keys)
        )
        residual = f" residual: {self.residual}" if self.residual is not None else ""
        return f"HashJoin [{keys}]{residual}"


@dataclass
class NestedLoopJoin(PhysicalPlan):
    """Fallback join for non-equi (or missing) conditions."""

    child_fields = ("left", "right")
    expr_fields = ("condition",)

    left: PhysicalPlan | None = None
    right: PhysicalPlan | None = None
    condition: Expression | None = None

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)  # type: ignore[return-value]

    def describe(self) -> str:
        return f"NestedLoopJoin [{self.condition}]"


@dataclass
class HashAggregate(PhysicalPlan):
    child_fields = ("child",)
    expr_fields = ("group_keys", "aggregates")

    child: PhysicalPlan | None = None
    group_keys: tuple[ColumnRef, ...] = ()
    aggregates: tuple[AggregateCall, ...] = ()
    agg_names: tuple[str, ...] = ()

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        keys = ", ".join(k.name for k in self.group_keys)
        aggs = ", ".join(
            f"{a} AS {n}" for a, n in zip(self.aggregates, self.agg_names)
        )
        return f"HashAggregate by [{keys}] compute [{aggs}]"


@dataclass
class UnionAll(PhysicalPlan):
    child_fields = ("inputs",)

    inputs: tuple[PhysicalPlan, ...] = ()

    def children(self) -> tuple[PhysicalPlan, ...]:
        return self.inputs

    def describe(self) -> str:
        return f"UnionAll ({len(self.inputs)} inputs)"


@dataclass
class Sort(PhysicalPlan):
    child_fields = ("child",)

    child: PhysicalPlan | None = None
    sort_keys: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        keys = ", ".join(f"{n} DESC" if d else f"{n}" for n, d in self.sort_keys)
        suffix = f" LIMIT {self.limit}" if self.limit is not None else ""
        return f"Sort [{keys}]{suffix}"


@dataclass
class Ship(PhysicalPlan):
    """Transfer the child's output from ``source`` to ``target`` location.

    This is the operator dataflow policies constrain: every Ship crossing a
    border must be legal for the data it carries (Definition 1, c2).
    """

    child_fields = ("child",)

    child: PhysicalPlan | None = None
    source: str = ""
    target: str = ""

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"Ship {self.source} -> {self.target}"


def ship_operators(plan: PhysicalPlan) -> list[Ship]:
    """All Ship operators in ``plan``, in pre-order."""
    return [node for node in plan.walk() if isinstance(node, Ship)]


def map_field(value, f):
    """Apply ``f`` to a declared field's contents: to each item of a tuple
    field, to a single value, or to nothing when the value is ``None``."""
    if isinstance(value, tuple):
        return tuple(f(v) for v in value)
    return None if value is None else f(value)


def copy_plan(
    plan: PhysicalPlan,
    expr: Callable[[Expression], Expression] | None = None,
    edit: Callable[[PhysicalPlan, PhysicalPlan], None] | None = None,
) -> PhysicalPlan:
    """A deep copy of ``plan``: no node of the result is a node of ``plan``.

    Post-order: each node is copied after its children, its expression
    fields mapped through ``expr`` (shared when ``expr`` is ``None`` —
    expressions are immutable), then ``edit(original, copy)`` may change
    the fresh copy in place.  Only the declared :attr:`~PhysicalPlan.
    child_fields` and :attr:`~PhysicalPlan.expr_fields` are visited."""

    def copy(node: PhysicalPlan) -> PhysicalPlan:
        new = object.__new__(type(node))
        state = new.__dict__
        state.update(node.__dict__)
        for name in node.child_fields:
            state[name] = map_field(state[name], copy)
        if expr is not None:
            for name in node.expr_fields:
                state[name] = map_field(state[name], expr)
        if edit is not None:
            edit(node, new)
        return new

    return copy(plan)
