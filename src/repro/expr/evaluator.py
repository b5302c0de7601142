"""Expression evaluation against rows: a per-operator code generator.

Rows are plain Python tuples; a *row schema* is an ordered list of field
names mapping positions to :class:`~repro.expr.expressions.ColumnRef`
names.  Each entry point here emits Python source for one operator's
per-row work, compiles it once and returns the resulting function, so a
row pays inlined bytecode instead of one Python call per expression
node:

* :func:`compile_filter` — ``rows -> [r for r in rows if <predicate>]``;
* :func:`compile_projection` — ``rows -> [(<expr>, <expr>, ...) for r in rows]``;
* :func:`compile_aggregation` — one loop that groups rows (first-seen
  order) and updates each aggregate's state in place, then finalizes;
* :func:`compile_expression` / :func:`compile_predicate` — ``row ->
  value`` / ``row -> bool`` for a single expression.

The generated source never contains plan text.  A column reference
becomes an integer position (``r[3]``); literals, LIKE matchers, IN
sets and scalar functions become names bound in the namespace the code
is evaluated in (whose ``__builtins__`` is empty, so a stray name fails
loudly); operators come from the fixed tables below.  Sources are
compiled through a cache, so two operators that differ only in their
literal values share one code object.

NULL semantics follow SQL three-valued logic to the extent the engine
needs: any comparison/arithmetic involving NULL yields NULL, predicates
treat NULL as not satisfied, and aggregates skip NULLs (except
COUNT(*)).  Evaluation order is part of the contract, because the one
data-dependent error — division by zero, an :class:`ExecutionError` —
must be raised on the same row whatever shape the code takes:

* a comparison or arithmetic node evaluates both operands, left first,
  before its NULL test;
* ``AND`` stops at its first FALSE operand and ``OR`` at its first TRUE
  one, evaluating operands left to right (a NULL operand does not stop
  either).

Inside a predicate the generated code may skip an operand that could
only have yielded a value, never raised: it skips a division-free
operand after a NULL (``x is not None and x < y`` instead of evaluating
``y`` anyway).  Over well-typed rows — the binder type-checks every
comparison — a division-free expression cannot raise.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from types import CodeType
from typing import Any, Callable, Sequence

from ..errors import ExecutionError
from .expressions import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
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
    walk,
)

RowFunc = Callable[[Sequence[Any]], Any]
#: ``rows -> rows``: a compiled operator body over a sequence of tuples.
RowsFunc = Callable[[Sequence[tuple]], list]


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern to an anchored compiled regex."""
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _scalar_function(name: str) -> Callable[..., Any]:
    upper = name.upper()
    if upper == "YEAR":
        return lambda d: None if d is None else d.year
    if upper == "LOWER":
        return lambda s: None if s is None else s.lower()
    if upper == "UPPER":
        return lambda s: None if s is None else s.upper()
    if upper == "ABS":
        return lambda x: None if x is None else abs(x)
    if upper == "SUBSTRING":
        def substring(s: str | None, start: int, length: int | None = None) -> str | None:
            if s is None:
                return None
            begin = start - 1  # SQL SUBSTRING is 1-based
            if length is None:
                return s[begin:]
            return s[begin:begin + length]

        return substring
    raise ExecutionError(f"unsupported scalar function: {name}")


def _division_by_zero() -> None:
    raise ExecutionError("division by zero")


_COMPARISON_SOURCE = {
    ComparisonOp.EQ: "==",
    ComparisonOp.NE: "!=",
    ComparisonOp.LT: "<",
    ComparisonOp.LE: "<=",
    ComparisonOp.GT: ">",
    ComparisonOp.GE: ">=",
}

_ARITHMETIC_SOURCE = {
    ArithmeticOp.ADD: "+",
    ArithmeticOp.SUB: "-",
    ArithmeticOp.MUL: "*",
}

#: Per aggregate function: state slots, the update statements run when
#: the argument value ``v`` is not NULL, and the result expression.
#: ``{i}`` is the function's first slot in the group's state list ``s``.
_AGGREGATE_SOURCE: dict[
    AggregateFunction, tuple[tuple[str, ...], tuple[str, ...], str]
] = {
    AggregateFunction.COUNT: (("0",), ("s[{i}] += 1",), "s[{i}]"),
    AggregateFunction.SUM: (
        ("0", "0"), ("s[{i}] += v", "s[{i1}] += 1"), "(s[{i}] if s[{i1}] else None)"
    ),
    AggregateFunction.AVG: (
        ("0", "0"),
        ("s[{i}] += v", "s[{i1}] += 1"),
        "(s[{i}] / s[{i1}] if s[{i1}] else None)",
    ),
    AggregateFunction.MIN: (
        ("None",), ("if s[{i}] is None or v < s[{i}]:", "    s[{i}] = v"), "s[{i}]"
    ),
    AggregateFunction.MAX: (
        ("None",), ("if s[{i}] is None or v > s[{i}]:", "    s[{i}] = v"), "s[{i}]"
    ),
}


@lru_cache(maxsize=1024)
def _compile(source: str, mode: str) -> CodeType:
    return compile(source, "<row-compiler>", mode)


def _may_raise(node: Expression) -> bool:
    """Whether evaluating ``node`` over a well-typed row can raise: only
    a division can (by zero)."""
    return any(
        isinstance(n, Arithmetic) and n.op == ArithmeticOp.DIV for n in walk(node)
    )


#: Deepest expression nesting emitted inline: a deeper subtree becomes
#: a function of its own, called from the enclosing code (CPython's
#: parser refuses more than 200 nested parentheses, and each level here
#: opens two or three).
_MAX_INLINE_DEPTH = 24


class _Emitter:
    """Python source for expressions over the row variable ``r``.

    :meth:`value` yields an expression evaluating to the SQL value;
    :meth:`test` yields one whose truthiness is "the predicate is
    satisfied" (NULL counts as not), with the same evaluation effects.
    Anything that is not a position or an operator is bound in
    :attr:`namespace` under a generated name.  Emitting recurses two
    Python frames per tree level (``value`` -> ``_value``), so trees as
    deep as the SQL front end produces fit the interpreter's stack.
    """

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = schema
        self.index = {name: i for i, name in enumerate(schema)}
        self.namespace: dict[str, Any] = {
            "__builtins__": {},
            "_division_by_zero": _division_by_zero,
        }
        self._names = 0
        self._depth = 0

    def _fresh(self, prefix: str = "_t") -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def bind(self, obj: Any) -> str:
        name = self._fresh("_c")
        self.namespace[name] = obj
        return name

    def position(self, node: ColumnRef) -> int:
        if node.name not in self.index:
            raise ExecutionError(
                f"column {node.name!r} not in schema {list(self.schema)!r}"
            )
        return self.index[node.name]

    def build(self, source: str, mode: str = "eval") -> Any:
        """Compile ``source`` and evaluate it in this emitter's namespace
        (``exec`` mode returns the namespace's ``_operator``)."""
        code = _compile(source, mode)
        if mode == "eval":
            return eval(code, self.namespace)
        exec(code, self.namespace)
        return self.namespace.pop("_operator")

    def _hoisted(self, node: Expression, emit: Callable[[Expression], str]) -> str:
        """``node`` compiled as a function of the row, called inline."""
        depth, self._depth = self._depth, 0
        body = emit(node)
        self._depth = depth
        return f"{self.bind(self.build(f'lambda r: {body}'))}(r)"

    # -- operands (no recursion: the operand sources are already emitted) ------

    def _operand(self, node: Expression, src: str) -> tuple[str, str, bool]:
        """``(first, later, nullable)`` for one operand emitted as ``src``:
        ``first`` evaluates it (binding a temporary unless it is a bare
        column or literal), ``later`` re-reads the value, and
        ``nullable`` is false only for a non-NULL literal."""
        if isinstance(node, Literal):
            return src, src, node.value is None
        if isinstance(node, ColumnRef):
            return src, src, True
        temp = self._fresh()
        return f"({temp} := {src})", temp, True

    def _null_checks(
        self, node: Comparison | Arithmetic, left: str, right: str, check: str
    ) -> tuple[str, str, str | None]:
        """``(a, b, checks)`` for a binary node whose operands were
        emitted as ``left`` and ``right``: ``checks`` evaluates both
        operands, left first, and is true when every nullable operand
        passes ``check`` (``"is None"`` joins with OR, ``"is not None"``
        with AND); ``None`` when neither operand is nullable."""
        a_first, a, a_nullable = self._operand(node.left, left)
        b_first, b, b_nullable = self._operand(node.right, right)
        checks = [
            f"{first} {check}"
            for first, nullable in ((a_first, a_nullable), (b_first, b_nullable))
            if nullable
        ]
        if not checks:
            return a, b, None
        if len(checks) == 2 and _may_raise(node.right):
            # Evaluate the right operand even when the left one is NULL.
            joiner = " | " if check == "is None" else " & "
            return a, b, joiner.join(f"({c})" for c in checks)
        joiner = " or " if check == "is None" else " and "
        return a, b, joiner.join(checks)

    # -- value mode ------------------------------------------------------------

    def value(self, node: Expression) -> str:
        if isinstance(node, Literal):
            return self.bind(node.value)
        if isinstance(node, ColumnRef):
            return f"r[{self.position(node):d}]"
        if self._depth >= _MAX_INLINE_DEPTH:
            return self._hoisted(node, self.value)
        self._depth += 1
        src = self._value(node)
        self._depth -= 1
        return src

    def _value(self, node: Expression) -> str:
        if isinstance(node, (Comparison, Arithmetic)):
            a, b, nulls = self._null_checks(
                node, self.value(node.left), self.value(node.right), "is None"
            )
            if isinstance(node, Comparison):
                combined = f"{a} {_COMPARISON_SOURCE[node.op]} {b}"
            elif node.op == ArithmeticOp.DIV:
                combined = f"(_division_by_zero() if {b} == 0 else {a} / {b})"
            else:
                combined = f"{a} {_ARITHMETIC_SOURCE[node.op]} {b}"
            return _unless_null(nulls, combined)
        if isinstance(node, (Negate, Like, InList)):
            first, later, nullable = self._operand(
                node.operand, self.value(node.operand)
            )
            if isinstance(node, Negate):
                result = f"-{later}"
            elif isinstance(node, Like):
                match = self.bind(like_to_regex(node.pattern).match)
                check = "is None" if node.negated else "is not None"
                result = f"{match}({later}) {check}"
            else:
                values = self.bind(frozenset(lit.value for lit in node.values))
                result = f"{later} {'not in' if node.negated else 'in'} {values}"
            return _unless_null(f"{first} is None" if nullable else None, result)
        if isinstance(node, (And, Or)):
            conjunction = isinstance(node, And)
            stops: list[str] = []
            nulls: list[str] = []
            for op in node.operands:
                temp = self._fresh()
                src = self.value(op)
                # AND stops at a FALSE operand, OR at a TRUE one.
                if conjunction:
                    stops.append(f"(({temp} := {src}) is not None and not {temp})")
                else:
                    stops.append(f"({temp} := {src})")
                nulls.append(f"{temp} is None")
            stop, rest = ("False", "True") if conjunction else ("True", "False")
            return (
                f"({stop} if {' or '.join(stops)} "
                f"else (None if {' or '.join(nulls)} else {rest}))"
            )
        if isinstance(node, Not):
            temp = self._fresh()
            src = self.value(node.operand)
            return f"(None if ({temp} := {src}) is None else not {temp})"
        if isinstance(node, IsNull):
            check = "is not None" if node.negated else "is None"
            return f"({self.value(node.operand)} {check})"
        if isinstance(node, FunctionCall):
            fn = self.bind(_scalar_function(node.name))
            args: list[str] = []
            for arg in node.args:
                args.append(self.value(arg))
            return f"{fn}({', '.join(args)})"
        if isinstance(node, AggregateCall):
            raise ExecutionError(
                "aggregate call evaluated outside an Aggregate operator"
            )
        raise ExecutionError(f"unknown expression node: {type(node).__name__}")

    # -- predicate mode --------------------------------------------------------

    def test(self, node: Expression) -> str:
        if not isinstance(node, (Comparison, And, Or, Not)):
            return self.value(node)
        if self._depth >= _MAX_INLINE_DEPTH:
            return self._hoisted(node, self.test)
        self._depth += 1
        src = self._test(node)
        self._depth -= 1
        return src

    def _test(self, node: Comparison | And | Or | Not) -> str:
        if isinstance(node, Comparison):
            a, b, present = self._null_checks(
                node, self.value(node.left), self.value(node.right), "is not None"
            )
            compared = f"{a} {_COMPARISON_SOURCE[node.op]} {b}"
            return f"({compared})" if present is None else f"({present} and {compared})"
        if isinstance(node, Not):
            temp = self._fresh()
            src = self.value(node.operand)
            return f"(({temp} := {src}) is not None and not {temp})"
        parts: list[str] = []
        if isinstance(node, Or) or not any(map(_may_raise, node.operands[1:])):
            for op in node.operands:
                parts.append(self.test(op))
            return "(" + (" or " if isinstance(node, Or) else " and ").join(parts) + ")"
        # An AND whose later operand may raise: scan past NULLs, stop at
        # the first FALSE, then require that no operand was NULL.
        present: list[str] = []
        for op in node.operands:
            temp = self._fresh()
            parts.append(f"(({temp} := {self.value(op)}) is None or {temp})")
            present.append(f"{temp} is not None")
        return f"({' and '.join(parts)} and {' and '.join(present)})"


def _unless_null(nulls: str | None, result: str) -> str:
    """``result``, or NULL when the ``nulls`` test (if any) holds."""
    return f"({result})" if nulls is None else f"(None if {nulls} else {result})"


def compile_expression(expr: Expression, schema: Sequence[str]) -> RowFunc:
    """Compile ``expr`` into a function evaluating it against rows whose
    field order is given by ``schema``.

    Raises :class:`ExecutionError` for column references not present in the
    schema or for :class:`AggregateCall` nodes (aggregates are evaluated by
    the Aggregate operator, never row-at-a-time).
    """
    emitter = _Emitter(schema)
    return emitter.build(f"lambda r: {emitter.value(expr)}")


def compile_predicate(expr: Expression, schema: Sequence[str]) -> Callable[[Sequence[Any]], bool]:
    """Compile a boolean expression; NULL results count as not satisfied."""
    emitter = _Emitter(schema)
    return emitter.build(f"lambda r: True if {emitter.test(expr)} else False")


def compile_filter(expr: Expression, schema: Sequence[str]) -> RowsFunc:
    """``rows -> [r for r in rows if expr]`` (NULL is not satisfied),
    input order kept.  ``rows`` may be any iterable of tuples."""
    emitter = _Emitter(schema)
    return emitter.build(f"lambda rows: [r for r in rows if {emitter.test(expr)}]")


def compile_projection(exprs: Sequence[Expression], schema: Sequence[str]) -> RowsFunc:
    """``rows -> [(expr, expr, ...) for r in rows]``."""
    emitter = _Emitter(schema)
    fields = "".join(f"{emitter.value(e)}, " for e in exprs)
    return emitter.build(f"lambda rows: [({fields}) for r in rows]")


def column_positions(keys: Sequence[ColumnRef], schema: Sequence[str]) -> list[int]:
    """Positions of bare column references in ``schema``."""
    emitter = _Emitter(schema)
    return [emitter.position(key) for key in keys]


def compile_aggregation(
    group_keys: Sequence[ColumnRef],
    aggregates: Sequence[AggregateCall],
    schema: Sequence[str],
) -> RowsFunc:
    """``rows -> [group key + aggregate results, ...]``, one row per group
    in first-seen order (one row for a global aggregate, even over no
    input).

    One generated loop evaluates each row's group key, then each
    aggregate's argument left to right, and updates the group's state
    list in place.  SUM and AVG add with ``+=`` from an integer 0 in row
    order, never through :func:`sum` (compensated on Python 3.12), so a
    float total is the same bits on every Python version.
    """
    emitter = _Emitter(schema)
    emitter.namespace["KeyError"] = KeyError
    positions = [emitter.position(key) for key in group_keys]
    init: list[str] = []
    updates: list[str] = []
    results: list[str] = []
    for agg in aggregates:
        slots, update, result = _AGGREGATE_SOURCE[agg.func]
        i = len(init)
        init.extend(slots)
        arg = "1" if agg.argument is None else emitter.value(agg.argument)
        updates.append(f"        v = {arg}")
        updates.append("        if v is not None:")
        updates.extend(f"            {line.format(i=i, i1=i + 1)}" for line in update)
        results.append(result.format(i=i, i1=i + 1))
    state = f"[{', '.join(init)}]"
    values = "".join(f"{r}, " for r in results)
    lines = ["def _operator(rows):"]
    if not positions:
        lines += [
            f"    s = {state}",
            "    for r in rows:",
            *(updates or ["        pass"]),
            f"    return [({values})]",
        ]
    else:
        if len(positions) == 1:
            key, row = f"r[{positions[0]:d}]", f"(k, {values})"
        else:
            key, row = f"{emitter.bind(itemgetter(*positions))}(r)", f"k + ({values})"
        lines += [
            "    groups = {}",
            "    for r in rows:",
            f"        k = {key}",
            "        try:",
            "            s = groups[k]",
            "        except KeyError:",
            f"            s = groups[k] = {state}",
            *updates,
            f"    return [{row} for k in groups for s in [groups[k]]]",
        ]
    return emitter.build("\n".join(lines) + "\n", "exec")
