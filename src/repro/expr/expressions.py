"""Scalar and aggregate expression trees.

Expressions are immutable (frozen dataclasses) so they can be shared across
plan alternatives in the optimizer memo and compared structurally.  A
:class:`ColumnRef` names a field of its input row by the field's unique
name; the binder assigns unique, qualified names (``c.custkey``) when it
translates SQL.

Provenance
----------
Dataflow policies restrict *base-table attributes*, so every column
reference may carry a :class:`BaseColumn` telling which attribute of which
stored table the value ultimately comes from.  Computed outputs (``SUM(x)``,
``a*b``) have no single provenance; the policy evaluator instead collects
the provenance of every base attribute mentioned inside the expression
(this matches the paper's ``A_q`` = attributes appearing in the output
expressions of a query).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..datatypes import DataType, arithmetic_result_type


@dataclass(frozen=True)
class BaseColumn:
    """Provenance of a value: attribute ``column`` of stored ``table`` in
    database ``database``."""

    database: str
    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.database}.{self.table}.{self.column}"


class Expression:
    """Base class for all scalar/aggregate expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        raise NotImplementedError

    def with_children(self, children: tuple["Expression", ...]) -> "Expression":
        """Rebuild this node with new children (same arity)."""
        raise NotImplementedError

    def references(self) -> frozenset[str]:
        """Names of all columns referenced anywhere in this tree."""
        out: set[str] = set()
        for node in walk(self):
            if isinstance(node, ColumnRef):
                out.add(node.name)
        return frozenset(out)

    def base_columns(self) -> frozenset[BaseColumn]:
        """Provenance of every base attribute mentioned in this tree."""
        out: set[BaseColumn] = set()
        for node in walk(self):
            if isinstance(node, ColumnRef) and node.base is not None:
                out.add(node.base)
        return frozenset(out)

    def contains_aggregate(self) -> bool:
        return any(isinstance(node, AggregateCall) for node in walk(self))


def walk(expr: Expression) -> Iterator[Expression]:
    """Yield ``expr`` and all of its descendants, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value with its SQL type."""

    value: Any
    dtype: DataType

    def children(self) -> tuple[Expression, ...]:
        return ()

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return self

    def __str__(self) -> str:
        if self.dtype == DataType.VARCHAR:
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a named field of the input row.

    ``base`` is the provenance of the field when it maps 1:1 to a stored
    attribute; ``None`` for computed fields.  ``dtype`` is resolved by the
    binder.
    """

    name: str
    dtype: DataType = DataType.VARCHAR
    base: BaseColumn | None = None

    def children(self) -> tuple[Expression, ...]:
        return ()

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return self

    def __str__(self) -> str:
        return self.name


class ComparisonOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "ComparisonOp":
        """Operator with operand sides swapped (a < b  ==  b > a)."""
        return {
            ComparisonOp.EQ: ComparisonOp.EQ,
            ComparisonOp.NE: ComparisonOp.NE,
            ComparisonOp.LT: ComparisonOp.GT,
            ComparisonOp.LE: ComparisonOp.GE,
            ComparisonOp.GT: ComparisonOp.LT,
            ComparisonOp.GE: ComparisonOp.LE,
        }[self]

    def negate(self) -> "ComparisonOp":
        return {
            ComparisonOp.EQ: ComparisonOp.NE,
            ComparisonOp.NE: ComparisonOp.EQ,
            ComparisonOp.LT: ComparisonOp.GE,
            ComparisonOp.LE: ComparisonOp.GT,
            ComparisonOp.GT: ComparisonOp.LE,
            ComparisonOp.GE: ComparisonOp.LT,
        }[self]


@dataclass(frozen=True)
class Comparison(Expression):
    op: ComparisonOp
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        left, right = children
        return Comparison(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class And(Expression):
    """N-ary conjunction.  Always holds at least two operands."""

    operands: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return And(children)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """N-ary disjunction.  Always holds at least two operands."""

    operands: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return Or(children)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return Not(children[0])

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


class ArithmeticOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True)
class Arithmetic(Expression):
    op: ArithmeticOp
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        left, right = children
        return Arithmetic(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class Negate(Expression):
    """Unary minus."""

    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return Negate(children[0])

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Like(Expression):
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards against a constant
    pattern."""

    operand: Expression
    pattern: str
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return Like(children[0], self.pattern, self.negated)

    def __str__(self) -> str:
        kw = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand} {kw} '{self.pattern}')"


@dataclass(frozen=True)
class InList(Expression):
    """SQL ``IN (v1, v2, ...)`` against constant values.  The values are
    children after the operand, so rewrites and walks reach them."""

    operand: Expression
    values: tuple[Literal, ...]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.values)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return InList(children[0], children[1:], self.negated)  # type: ignore[arg-type]

    def __str__(self) -> str:
        kw = "NOT IN" if self.negated else "IN"
        vals = ", ".join(str(v) for v in self.values)
        return f"({self.operand} {kw} ({vals}))"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return IsNull(children[0], self.negated)

    def __str__(self) -> str:
        kw = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {kw})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Scalar function call.  The evaluator has a registry of supported
    functions (currently YEAR, SUBSTRING, LOWER, UPPER, ABS)."""

    name: str
    args: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        return FunctionCall(self.name, children)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


class AggregateFunction(enum.Enum):
    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AggregateCall(Expression):
    """An aggregate function over an argument expression.

    ``argument`` is ``None`` only for ``COUNT(*)``.
    """

    func: AggregateFunction
    argument: Expression | None

    def children(self) -> tuple[Expression, ...]:
        return () if self.argument is None else (self.argument,)

    def with_children(self, children: tuple[Expression, ...]) -> Expression:
        if self.argument is None:
            return self
        return AggregateCall(self.func, children[0])

    def __str__(self) -> str:
        arg = "*" if self.argument is None else str(self.argument)
        return f"{self.func.value.upper()}({arg})"


# ---------------------------------------------------------------------------
# Construction and rewriting helpers
# ---------------------------------------------------------------------------

TRUE = Literal(True, DataType.BOOLEAN)
FALSE = Literal(False, DataType.BOOLEAN)


def conjunction(operands: Iterable[Expression]) -> Expression:
    """Build the conjunction of ``operands``, flattening nested ANDs and
    dropping TRUE literals.  Returns ``TRUE`` for an empty input."""
    flat: list[Expression] = []
    for op in operands:
        if isinstance(op, And):
            flat.extend(op.operands)
        elif op == TRUE:
            continue
        else:
            flat.append(op)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(operands: Iterable[Expression]) -> Expression:
    """Build the disjunction of ``operands``, flattening nested ORs."""
    flat: list[Expression] = []
    for op in operands:
        if isinstance(op, Or):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def split_conjuncts(expr: Expression | None) -> list[Expression]:
    """Split a predicate into top-level conjuncts (TRUE/None -> [])."""
    if expr is None or expr == TRUE:
        return []
    if isinstance(expr, And):
        out: list[Expression] = []
        for op in expr.operands:
            out.extend(split_conjuncts(op))
        return out
    return [expr]


def rewrite(
    expr: Expression, f: Callable[[Expression], Expression | None]
) -> Expression:
    """Rewrite ``expr`` top-down: where ``f(node)`` returns an expression
    it replaces the whole subtree; where it returns ``None`` the walk
    descends into the children.  Unchanged subtrees (and ``expr`` itself,
    when nothing changed) are returned as the same objects."""
    replacement = f(expr)
    if replacement is not None:
        return replacement
    kids = expr.children()
    if not kids:
        return expr
    new_kids = tuple(rewrite(k, f) for k in kids)
    if new_kids == kids:
        return expr
    return expr.with_children(new_kids)


def substitute(expr: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace every :class:`ColumnRef` whose name is in ``mapping`` with
    the mapped expression (used when pushing predicates through
    projections)."""
    return rewrite(
        expr,
        lambda n: mapping.get(n.name, n) if isinstance(n, ColumnRef) else None,
    )


def rename_columns(expr: Expression, renames: Mapping[str, str]) -> Expression:
    """Rename column references according to ``renames``."""

    def rename(node: Expression) -> Expression | None:
        if not isinstance(node, ColumnRef) or node.name not in renames:
            return None
        return ColumnRef(renames[node.name], node.dtype, node.base)

    return rewrite(expr, rename)


def expression_dtype(expr: Expression) -> DataType:
    """Derive the result type of a bound expression tree."""
    if isinstance(expr, Literal):
        return expr.dtype
    if isinstance(expr, ColumnRef):
        return expr.dtype
    if isinstance(expr, (Comparison, And, Or, Not, Like, InList, IsNull)):
        return DataType.BOOLEAN
    if isinstance(expr, Arithmetic):
        return arithmetic_result_type(
            expression_dtype(expr.left), expression_dtype(expr.right)
        )
    if isinstance(expr, Negate):
        return expression_dtype(expr.operand)
    if isinstance(expr, FunctionCall):
        name = expr.name.upper()
        if name == "YEAR":
            return DataType.INTEGER
        if name in ("SUBSTRING", "LOWER", "UPPER"):
            return DataType.VARCHAR
        if name == "ABS":
            return expression_dtype(expr.args[0])
        return DataType.VARCHAR
    if isinstance(expr, AggregateCall):
        if expr.func == AggregateFunction.COUNT:
            return DataType.INTEGER
        if expr.func == AggregateFunction.AVG:
            return DataType.DECIMAL
        assert expr.argument is not None
        arg_t = expression_dtype(expr.argument)
        if expr.func == AggregateFunction.SUM and arg_t == DataType.INTEGER:
            return DataType.INTEGER
        if expr.func in (AggregateFunction.MIN, AggregateFunction.MAX):
            return arg_t
        return DataType.DECIMAL
    raise TypeError(f"unknown expression node: {type(expr).__name__}")
