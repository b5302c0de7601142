"""Property-based agreement between batch kernels and the row evaluator.

The batch executor is only correct if :func:`repro.expr.compile_kernel`
and :func:`repro.expr.compile_predicate_kernel` agree with the row
evaluator's :func:`repro.expr.compile_expression` /
:func:`repro.expr.compile_predicate` on *every* expression shape —
including NULL three-valued logic, LIKE wildcards, division by zero, and
selection-vector alignment.  Hypothesis generates random expression trees
over random columns (with NULLs everywhere) and this suite asserts the
two compilers produce identical values, identical selections, and — for
expression shapes without logical short-circuiting — identical errors.
(Division by zero under AND/OR is the one documented divergence: the
row evaluator may short-circuit past it while whole-column kernels
evaluate it eagerly, so predicate strategies here are division-free and
error agreement is asserted on pure arithmetic trees instead; see the
module docstring of ``repro.expr.kernels``.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.expr import (
    And,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    compile_expression,
    compile_kernel,
    compile_predicate,
    compile_predicate_kernel,
)

# Fixed schema: three numeric columns, two string columns.  Expressions
# are typed (numeric vs string subtrees) so random trees exercise the
# kernels instead of dying on int-vs-str TypeErrors.
SCHEMA = ["n0", "n1", "n2", "s0", "s1"]
NUMERIC_NAMES = ["n0", "n1", "n2"]
STRING_NAMES = ["s0", "s1"]

_numeric_value = st.one_of(
    st.none(), st.integers(-20, 20), st.floats(-20, 20, allow_nan=False, width=32)
)
_string_value = st.one_of(st.none(), st.text(alphabet="ab%_c", max_size=4))

_rows = st.lists(
    st.tuples(
        _numeric_value, _numeric_value, _numeric_value, _string_value, _string_value
    ),
    max_size=30,
)

_numeric_column = st.sampled_from(
    [ColumnRef(name, DataType.INTEGER) for name in NUMERIC_NAMES]
)
_string_column = st.sampled_from(
    [ColumnRef(name, DataType.VARCHAR) for name in STRING_NAMES]
)
_numeric_literal = st.one_of(
    st.integers(-10, 10), st.just(None), st.floats(-10, 10, allow_nan=False, width=32)
).map(lambda v: Literal(v, DataType.INTEGER))
_like_pattern = st.text(alphabet="ab%_c", max_size=4)


def _binary_arith(children, ops):
    return st.builds(Arithmetic, st.sampled_from(ops), children, children)


#: Full numeric family, division included — used standalone, where both
#: backends evaluate every operand and error effects agree.
_numeric_expr = st.recursive(
    st.one_of(_numeric_column, _numeric_literal),
    lambda children: st.one_of(
        _binary_arith(children, list(ArithmeticOp)),
        st.builds(Negate, children),
        st.builds(FunctionCall, st.just("ABS"), st.tuples(children)),
    ),
    max_leaves=6,
)

#: Division-free numeric family for predicate subtrees, where row-side
#: short-circuiting makes division-by-zero effects backend-dependent.
_safe_numeric_expr = st.recursive(
    st.one_of(_numeric_column, _numeric_literal),
    lambda children: st.one_of(
        _binary_arith(
            children, [ArithmeticOp.ADD, ArithmeticOp.SUB, ArithmeticOp.MUL]
        ),
        st.builds(Negate, children),
        st.builds(FunctionCall, st.just("ABS"), st.tuples(children)),
    ),
    max_leaves=6,
)

_string_expr = st.one_of(
    _string_column,
    st.builds(
        FunctionCall, st.sampled_from(["LOWER", "UPPER"]), st.tuples(_string_column)
    ),
)

_comparison = st.one_of(
    st.builds(
        Comparison,
        st.sampled_from(list(ComparisonOp)),
        _safe_numeric_expr,
        _safe_numeric_expr,
    ),
    st.builds(
        Comparison,
        st.sampled_from(list(ComparisonOp)),
        _string_expr,
        _string_value.map(lambda v: Literal(v, DataType.VARCHAR)),
    ),
)

_atomic_predicate = st.one_of(
    _comparison,
    st.builds(Like, _string_expr, _like_pattern, st.booleans()),
    st.builds(
        InList,
        _safe_numeric_expr,
        st.lists(_numeric_literal, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.builds(IsNull, st.one_of(_safe_numeric_expr, _string_expr), st.booleans()),
)

_predicate = st.recursive(
    _atomic_predicate,
    lambda children: st.one_of(
        st.builds(lambda a, b: And((a, b)), children, children),
        st.builds(lambda a, b: Or((a, b)), children, children),
        st.builds(Not, children),
    ),
    max_leaves=5,
)


def _columns(rows):
    if rows:
        return [list(c) for c in zip(*rows)]
    return [[] for _ in SCHEMA]


def _row_values(expr, rows):
    """Evaluate ``expr`` per row with the row closure; returns the value
    column or the raised :class:`ExecutionError`."""
    fn = compile_expression(expr, SCHEMA)
    try:
        return [fn(row) for row in rows]
    except ExecutionError as error:
        return error


def _kernel_values(expr, cols, sel, n):
    try:
        return compile_kernel(expr, SCHEMA)(cols, sel, n)
    except ExecutionError as error:
        return error


@settings(max_examples=300, deadline=None)
@given(rows=_rows, expr=st.one_of(_numeric_expr, _string_expr, _predicate))
def test_kernel_matches_row_closure_dense(rows, expr):
    expected = _row_values(expr, rows)
    got = _kernel_values(expr, _columns(rows), None, len(rows))
    if isinstance(expected, ExecutionError):
        # Division by zero (the only data-dependent error) must raise in
        # both backends.
        assert isinstance(got, ExecutionError)
    else:
        assert not isinstance(got, ExecutionError)
        assert list(got) == expected


@settings(max_examples=200, deadline=None)
@given(rows=_rows, expr=st.one_of(_numeric_expr, _string_expr, _predicate), data=st.data())
def test_kernel_matches_row_closure_with_selection(rows, expr, data):
    sel = data.draw(
        st.lists(
            st.integers(0, max(0, len(rows) - 1)), max_size=len(rows), unique=True
        ).map(sorted)
        if rows
        else st.just([])
    )
    expected = _row_values(expr, [rows[i] for i in sel])
    got = _kernel_values(expr, _columns(rows), sel, len(rows))
    if isinstance(expected, ExecutionError):
        assert isinstance(got, ExecutionError)
    else:
        assert not isinstance(got, ExecutionError)
        assert len(got) == len(sel)  # aligned with the selection vector
        assert list(got) == expected


@settings(max_examples=300, deadline=None)
@given(rows=_rows, expr=_predicate)
def test_selection_kernel_matches_row_predicate(rows, expr):
    row_pred = compile_predicate(expr, SCHEMA)
    try:
        expected = [i for i, row in enumerate(rows) if row_pred(row)]
    except ExecutionError:
        expected = None
    try:
        got = compile_predicate_kernel(expr, SCHEMA)(_columns(rows), None, len(rows))
    except ExecutionError:
        got = None
    if expected is None:
        assert got is None
    else:
        assert got == expected


@settings(max_examples=200, deadline=None)
@given(rows=_rows, expr=_predicate, data=st.data())
def test_selection_kernel_refines_incoming_selection(rows, expr, data):
    sel = data.draw(
        st.lists(
            st.integers(0, max(0, len(rows) - 1)), max_size=len(rows), unique=True
        ).map(sorted)
        if rows
        else st.just([])
    )
    row_pred = compile_predicate(expr, SCHEMA)
    try:
        expected = [i for i in sel if row_pred(rows[i])]
    except ExecutionError:
        expected = None
    try:
        got = compile_predicate_kernel(expr, SCHEMA)(_columns(rows), sel, len(rows))
    except ExecutionError:
        got = None
    if expected is None:
        assert got is None
    else:
        assert got == expected


# -- directed edge cases (shapes hypothesis might shrink away) ----------------


def test_null_three_valued_and_or():
    cols = [[None, True, False], [False, None, True], [0, 0, 0], [""], [""]]
    a, b = ColumnRef("n0", DataType.BOOLEAN), ColumnRef("n1", DataType.BOOLEAN)
    assert compile_kernel(And((a, b)), SCHEMA)(cols, None, 3) == [False, None, False]
    assert compile_kernel(Or((a, b)), SCHEMA)(cols, None, 3) == [None, True, True]
    # NULL is "not satisfied" for selections.
    assert compile_predicate_kernel(Or((a, b)), SCHEMA)(cols, None, 3) == [1, 2]


def test_comparison_with_null_literal_selects_nothing():
    expr = Comparison(ComparisonOp.EQ, ColumnRef("n0"), Literal(None, DataType.INTEGER))
    assert compile_predicate_kernel(expr, SCHEMA)([[1, 2], [], [], [], []], None, 2) == []


def test_like_dense_and_selected():
    col = ["alpha", None, "beta", "ALpha"]
    cols = [[0] * 4, [0] * 4, [0] * 4, col, [None] * 4]
    expr = Like(ColumnRef("s0"), "a%a")
    assert compile_predicate_kernel(expr, SCHEMA)(cols, None, 4) == [0]
    negated = Like(ColumnRef("s0"), "a%a", negated=True)
    assert compile_predicate_kernel(negated, SCHEMA)(cols, [0, 1, 2], 4) == [2]


def test_division_by_zero_raises_in_both():
    expr = Arithmetic(ArithmeticOp.DIV, ColumnRef("n0"), ColumnRef("n1"))
    cols = [[1, 2], [1, 0], [0, 0], [None, None], [None, None]]
    with pytest.raises(ExecutionError):
        compile_kernel(expr, SCHEMA)(cols, None, 2)
    with pytest.raises(ExecutionError):
        compile_expression(expr, SCHEMA)((2, 0, 0, None, None))


def test_unknown_column_raises():
    with pytest.raises(ExecutionError):
        compile_kernel(ColumnRef("nope"), SCHEMA)
    with pytest.raises(ExecutionError):
        compile_predicate_kernel(Comparison(
            ComparisonOp.EQ, ColumnRef("nope"), Literal(1, DataType.INTEGER)
        ), SCHEMA)


def test_aggregate_call_rejected():
    from repro.expr import AggregateCall, AggregateFunction

    agg = AggregateCall(AggregateFunction.SUM, ColumnRef("n0"))
    with pytest.raises(ExecutionError):
        compile_kernel(agg, SCHEMA)
