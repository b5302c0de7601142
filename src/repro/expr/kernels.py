"""Batch (columnar) expression kernels.

:mod:`repro.expr.evaluator` compiles each row-backend operator into
one generated Python function, so a row costs inlined bytecode rather
than a Python call per expression node, but the row backend still
builds and walks one tuple per row and per operator.  This module
compiles the same bound expression trees into **kernels** that evaluate
a whole column per call:

``kernel(columns, selection, nrows) -> column``

* ``columns`` — the operator input as parallel sequences, one per field
  (position ``j`` of ``columns[i]`` belongs to row ``j``).  Kernels must
  treat columns as read-only; a :class:`~repro.expr.expressions.ColumnRef`
  kernel may return an input column by reference.
* ``selection`` — an optional *selection vector*: sorted row indices into
  the dense columns.  With a selection the result column is aligned with
  it (``len(result) == len(selection)``); with ``None`` the result is
  dense (``len(result) == nrows``).
* NULL semantics are exactly the row evaluator's SQL three-valued logic:
  NULL operands yield NULL, predicates treat NULL as not satisfied, and
  ``AND``/``OR`` short-circuit over the column with False/True dominance.

:func:`compile_predicate_kernel` compiles a boolean expression into a
**selection kernel** ``(columns, selection, nrows) -> selection`` that
returns the (refined) indices of rows satisfying the predicate.  Top
level conjunctions become successive selection-vector refinement, and
the common atomic shapes — column-vs-literal comparisons, column-vs-
column comparisons, ``LIKE``, ``IN``, ``IS NULL`` on a bare column —
compile to single list comprehensions with the operator inlined in
bytecode (no per-row Python call at all).  Everything else falls back to
the value kernel plus a truthiness scan, which is still one call per
expression node per *column* rather than per row.

Agreement with the row evaluator (including NULLs and LIKE) is locked
down by the hypothesis property suite in ``tests/expr/test_kernels.py``.
One deliberate divergence, standard for vectorized engines: kernels
evaluate every operand over the whole column, so a data-dependent error
(division by zero) inside an ``AND``/``OR`` may raise where the row
evaluator's per-row short-circuit would have skipped it — and the
selection chain's empty-vector early exit may skip a conjunct the row
evaluator would have raised in.  *Values* never diverge, only the error
effect of queries that are already erroneous, and plans produced by the
binder never divide inside a disjunction guard.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..errors import ExecutionError
from .evaluator import _scalar_function, like_to_regex
from .expressions import (
    AggregateCall,
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
)

#: One column of values (a scan column may be a tuple, computed ones are
#: lists); kernels never mutate them.
Column = Sequence[Any]
#: ``(columns, selection, nrows) -> column`` — see module docstring.
Kernel = Callable[[Sequence[Column], Sequence[int] | None, int], list]
#: ``(columns, selection, nrows) -> selection`` (indices of passing rows).
SelectionKernel = Callable[[Sequence[Column], Sequence[int] | None, int], list[int]]


def _index(schema: Sequence[str]) -> dict[str, int]:
    return {name: i for i, name in enumerate(schema)}


def _column_pos(node: ColumnRef, index: dict[str, int], schema: Sequence[str]) -> int:
    if node.name not in index:
        raise ExecutionError(f"column {node.name!r} not in schema {list(schema)!r}")
    return index[node.name]


def _div(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _comparison_kernel(left: Kernel, right: Kernel, op: ComparisonOp) -> Kernel:
    """Elementwise comparison with the operator inlined per branch (one
    list comprehension, no per-row dispatch)."""
    if op == ComparisonOp.EQ:
        return lambda cols, sel, n: [
            None if a is None or b is None else a == b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    if op == ComparisonOp.NE:
        return lambda cols, sel, n: [
            None if a is None or b is None else a != b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    if op == ComparisonOp.LT:
        return lambda cols, sel, n: [
            None if a is None or b is None else a < b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    if op == ComparisonOp.LE:
        return lambda cols, sel, n: [
            None if a is None or b is None else a <= b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    if op == ComparisonOp.GT:
        return lambda cols, sel, n: [
            None if a is None or b is None else a > b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    return lambda cols, sel, n: [
        None if a is None or b is None else a >= b
        for a, b in zip(left(cols, sel, n), right(cols, sel, n))
    ]


def _arithmetic_kernel(left: Kernel, right: Kernel, op: ArithmeticOp) -> Kernel:
    if op == ArithmeticOp.ADD:
        return lambda cols, sel, n: [
            None if a is None or b is None else a + b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    if op == ArithmeticOp.SUB:
        return lambda cols, sel, n: [
            None if a is None or b is None else a - b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    if op == ArithmeticOp.MUL:
        return lambda cols, sel, n: [
            None if a is None or b is None else a * b
            for a, b in zip(left(cols, sel, n), right(cols, sel, n))
        ]
    return lambda cols, sel, n: [
        _div(a, b) for a, b in zip(left(cols, sel, n), right(cols, sel, n))
    ]


def compile_kernel(expr: Expression, schema: Sequence[str]) -> Kernel:
    """Compile ``expr`` into a batch kernel over columns in ``schema``
    order.  Raises :class:`ExecutionError` for unknown columns and for
    :class:`AggregateCall` nodes (aggregates are evaluated by the
    Aggregate operator, never as scalar kernels)."""
    index = _index(schema)

    def build(node: Expression) -> Kernel:
        if isinstance(node, Literal):
            value = node.value
            return lambda cols, sel, n: [value] * (n if sel is None else len(sel))
        if isinstance(node, ColumnRef):
            pos = _column_pos(node, index, schema)

            def column(cols, sel, n, pos=pos):
                col = cols[pos]
                if sel is None:
                    return col
                return [col[i] for i in sel]

            return column
        if isinstance(node, Comparison):
            return _comparison_kernel(build(node.left), build(node.right), node.op)
        if isinstance(node, And):
            parts = [build(op) for op in node.operands]

            def conj(cols, sel, n):
                # 3VL fold: False dominates, then NULL, then True.
                out = [
                    True if v else (None if v is None else False)
                    for v in parts[0](cols, sel, n)
                ]
                for part in parts[1:]:
                    for i, v in enumerate(part(cols, sel, n)):
                        cur = out[i]
                        if cur is False:
                            continue
                        if v is None:
                            out[i] = None
                        elif not v:
                            out[i] = False
                return out

            return conj
        if isinstance(node, Or):
            parts = [build(op) for op in node.operands]

            def disj(cols, sel, n):
                # 3VL fold: True dominates, then NULL, then False.
                out = [
                    True if v else (None if v is None else False)
                    for v in parts[0](cols, sel, n)
                ]
                for part in parts[1:]:
                    for i, v in enumerate(part(cols, sel, n)):
                        cur = out[i]
                        if cur is True:
                            continue
                        if v is None:
                            out[i] = None
                        elif v:
                            out[i] = True
                return out

            return disj
        if isinstance(node, Not):
            inner = build(node.operand)
            return lambda cols, sel, n: [
                None if v is None else not v for v in inner(cols, sel, n)
            ]
        if isinstance(node, Arithmetic):
            return _arithmetic_kernel(build(node.left), build(node.right), node.op)
        if isinstance(node, Negate):
            inner = build(node.operand)
            return lambda cols, sel, n: [
                None if v is None else -v for v in inner(cols, sel, n)
            ]
        if isinstance(node, Like):
            inner = build(node.operand)
            match = like_to_regex(node.pattern).match
            if node.negated:
                return lambda cols, sel, n: [
                    None if v is None else match(v) is None
                    for v in inner(cols, sel, n)
                ]
            return lambda cols, sel, n: [
                None if v is None else match(v) is not None
                for v in inner(cols, sel, n)
            ]
        if isinstance(node, InList):
            inner = build(node.operand)
            values = frozenset(lit.value for lit in node.values)
            if node.negated:
                return lambda cols, sel, n: [
                    None if v is None else v not in values
                    for v in inner(cols, sel, n)
                ]
            return lambda cols, sel, n: [
                None if v is None else v in values for v in inner(cols, sel, n)
            ]
        if isinstance(node, IsNull):
            inner = build(node.operand)
            if node.negated:
                return lambda cols, sel, n: [
                    v is not None for v in inner(cols, sel, n)
                ]
            return lambda cols, sel, n: [v is None for v in inner(cols, sel, n)]
        if isinstance(node, FunctionCall):
            fn = _scalar_function(node.name)
            arg_kernels = [build(a) for a in node.args]
            if len(arg_kernels) == 1:
                arg = arg_kernels[0]
                return lambda cols, sel, n: [fn(v) for v in arg(cols, sel, n)]
            return lambda cols, sel, n: [
                fn(*vals) for vals in zip(*(k(cols, sel, n) for k in arg_kernels))
            ]
        if isinstance(node, AggregateCall):
            raise ExecutionError(
                "aggregate call evaluated outside an Aggregate operator"
            )
        raise ExecutionError(f"unknown expression node: {type(node).__name__}")

    return build(expr)


# ---------------------------------------------------------------------------
# Selection kernels (predicates -> selection-vector refinement)
# ---------------------------------------------------------------------------


def _comparison_refiner(pos: int, value: Any, op: ComparisonOp) -> SelectionKernel:
    """column <op> literal, operator inlined in bytecode per branch.

    The dense (``sel is None``) case enumerates the column directly —
    no indexing at all — because it is the inner loop of every leaf
    filter in the batch executor.
    """
    if op == ComparisonOp.EQ:
        def refine(cols, sel, n):
            col = cols[pos]
            if sel is None:
                return [i for i, x in enumerate(col) if x is not None and x == value]
            return [i for i in sel if (x := col[i]) is not None and x == value]
    elif op == ComparisonOp.NE:
        def refine(cols, sel, n):
            col = cols[pos]
            if sel is None:
                return [i for i, x in enumerate(col) if x is not None and x != value]
            return [i for i in sel if (x := col[i]) is not None and x != value]
    elif op == ComparisonOp.LT:
        def refine(cols, sel, n):
            col = cols[pos]
            if sel is None:
                return [i for i, x in enumerate(col) if x is not None and x < value]
            return [i for i in sel if (x := col[i]) is not None and x < value]
    elif op == ComparisonOp.LE:
        def refine(cols, sel, n):
            col = cols[pos]
            if sel is None:
                return [i for i, x in enumerate(col) if x is not None and x <= value]
            return [i for i in sel if (x := col[i]) is not None and x <= value]
    elif op == ComparisonOp.GT:
        def refine(cols, sel, n):
            col = cols[pos]
            if sel is None:
                return [i for i, x in enumerate(col) if x is not None and x > value]
            return [i for i in sel if (x := col[i]) is not None and x > value]
    else:
        def refine(cols, sel, n):
            col = cols[pos]
            if sel is None:
                return [i for i, x in enumerate(col) if x is not None and x >= value]
            return [i for i in sel if (x := col[i]) is not None and x >= value]
    return refine


def _column_comparison_refiner(lpos: int, rpos: int, op: ComparisonOp) -> SelectionKernel:
    """column <op> column, operator inlined in bytecode per branch."""
    if op == ComparisonOp.EQ:
        def refine(cols, sel, n):
            lc, rc = cols[lpos], cols[rpos]
            if sel is None:
                sel = range(n)
            return [
                i for i in sel
                if (a := lc[i]) is not None and (b := rc[i]) is not None and a == b
            ]
    elif op == ComparisonOp.NE:
        def refine(cols, sel, n):
            lc, rc = cols[lpos], cols[rpos]
            if sel is None:
                sel = range(n)
            return [
                i for i in sel
                if (a := lc[i]) is not None and (b := rc[i]) is not None and a != b
            ]
    elif op == ComparisonOp.LT:
        def refine(cols, sel, n):
            lc, rc = cols[lpos], cols[rpos]
            if sel is None:
                sel = range(n)
            return [
                i for i in sel
                if (a := lc[i]) is not None and (b := rc[i]) is not None and a < b
            ]
    elif op == ComparisonOp.LE:
        def refine(cols, sel, n):
            lc, rc = cols[lpos], cols[rpos]
            if sel is None:
                sel = range(n)
            return [
                i for i in sel
                if (a := lc[i]) is not None and (b := rc[i]) is not None and a <= b
            ]
    elif op == ComparisonOp.GT:
        def refine(cols, sel, n):
            lc, rc = cols[lpos], cols[rpos]
            if sel is None:
                sel = range(n)
            return [
                i for i in sel
                if (a := lc[i]) is not None and (b := rc[i]) is not None and a > b
            ]
    else:
        def refine(cols, sel, n):
            lc, rc = cols[lpos], cols[rpos]
            if sel is None:
                sel = range(n)
            return [
                i for i in sel
                if (a := lc[i]) is not None and (b := rc[i]) is not None and a >= b
            ]
    return refine


def compile_predicate_kernel(
    expr: Expression, schema: Sequence[str]
) -> SelectionKernel:
    """Compile a boolean expression into a selection kernel (NULL counts
    as not satisfied, exactly like :func:`repro.expr.compile_predicate`).

    The returned kernel refines an incoming selection vector: it only
    inspects rows in ``selection`` (all rows when ``None``) and returns
    the indices that satisfy the predicate, preserving order.
    """
    index = _index(schema)

    def atomic(node: Expression) -> SelectionKernel:
        if isinstance(node, And):
            refiners = [atomic(op) for op in node.operands]

            def chain(cols, sel, n):
                for refine in refiners:
                    sel = refine(cols, sel, n)
                    if not sel:
                        return []
                return sel

            return chain
        if isinstance(node, Comparison):
            left, right, op = node.left, node.right, node.op
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                if right.value is None:
                    return lambda cols, sel, n: []
                return _comparison_refiner(
                    _column_pos(left, index, schema), right.value, op
                )
            if isinstance(left, Literal) and isinstance(right, ColumnRef):
                if left.value is None:
                    return lambda cols, sel, n: []
                return _comparison_refiner(
                    _column_pos(right, index, schema), left.value, op.flip()
                )
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                return _column_comparison_refiner(
                    _column_pos(left, index, schema),
                    _column_pos(right, index, schema),
                    op,
                )
        if isinstance(node, InList) and isinstance(node.operand, ColumnRef):
            pos = _column_pos(node.operand, index, schema)
            values = frozenset(lit.value for lit in node.values)
            negated = node.negated

            def in_list(cols, sel, n):
                col = cols[pos]
                if sel is None:
                    sel = range(n)
                if negated:
                    return [
                        i for i in sel
                        if (x := col[i]) is not None and x not in values
                    ]
                return [i for i in sel if (x := col[i]) is not None and x in values]

            return in_list
        if isinstance(node, Like) and isinstance(node.operand, ColumnRef):
            pos = _column_pos(node.operand, index, schema)
            match = like_to_regex(node.pattern).match
            negated = node.negated

            def like(cols, sel, n):
                col = cols[pos]
                if sel is None:
                    sel = range(n)
                if negated:
                    return [
                        i for i in sel
                        if (x := col[i]) is not None and match(x) is None
                    ]
                return [
                    i for i in sel
                    if (x := col[i]) is not None and match(x) is not None
                ]

            return like
        if isinstance(node, IsNull) and isinstance(node.operand, ColumnRef):
            pos = _column_pos(node.operand, index, schema)
            negated = node.negated

            def is_null(cols, sel, n):
                col = cols[pos]
                if sel is None:
                    sel = range(n)
                if negated:
                    return [i for i in sel if col[i] is not None]
                return [i for i in sel if col[i] is None]

            return is_null
        # Generic fallback: evaluate the value kernel over the current
        # selection and keep truthy rows (NULL and False both drop out).
        kernel = compile_kernel(node, schema)

        def fallback(cols, sel, n):
            vals = kernel(cols, sel, n)
            base = range(n) if sel is None else sel
            return [i for i, v in zip(base, vals) if v]

        return fallback

    return atomic(expr)
