"""The row-expression compiler against a frozen copy of the closure builder.

:mod:`repro.expr.evaluator` emits Python source per operator and
compiles it once.  The reference below is a test-local copy of the
earlier closure builder — one ``row -> value`` closure per expression
node — and of the earlier per-row ``_Accumulator`` aggregation, kept
verbatim (renamed ``frozen_*``) as the oracle.  On every generated
expression and row set the compiled code must produce the same values
(same types, floats bit-equal), the same predicate verdicts and the same
``ExecutionError`` on exactly the same rows, with the same message.

The strategies extend those of ``test_kernels.py``: division anywhere
(including under ``AND``/``OR`` guards, where short-circuit order
decides which row raises), ``AND``/``OR``/``NOT`` in value position,
``IS NULL`` over any subtree, ``IN`` lists holding NULL, dates and
``YEAR``.  Expressions are well typed, as the binder guarantees.

A second group of tests pins that the generated code reads no plan
text: names, literals and patterns full of quotes, newlines and Python
syntax evaluate as data, and every global name a compiled code object
reads is bound in the namespace the compiler built for it.
"""

from __future__ import annotations

import datetime
import re
from types import CodeType
from typing import Any, Callable, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.expr import (
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
    compile_aggregation,
    compile_expression,
    compile_filter,
    compile_predicate,
    compile_projection,
)

from ..conftest import fuzz_examples
from .test_kernels import _like_pattern, _string_value

# == the earlier closure builder, frozen ========================================


def frozen_like_to_regex(pattern: str) -> "re.Pattern[str]":
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_FROZEN_COMPARATORS: dict[ComparisonOp, Callable[[Any, Any], bool]] = {
    ComparisonOp.EQ: lambda a, b: a == b,
    ComparisonOp.NE: lambda a, b: a != b,
    ComparisonOp.LT: lambda a, b: a < b,
    ComparisonOp.LE: lambda a, b: a <= b,
    ComparisonOp.GT: lambda a, b: a > b,
    ComparisonOp.GE: lambda a, b: a >= b,
}


def frozen_scalar_function(name: str) -> Callable[..., Any]:
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
        def substring(s, start, length=None):
            if s is None:
                return None
            begin = start - 1  # SQL SUBSTRING is 1-based
            if length is None:
                return s[begin:]
            return s[begin:begin + length]

        return substring
    raise ExecutionError(f"unsupported scalar function: {name}")


def frozen_compile_expression(expr: Expression, schema: Sequence[str]):
    index = {name: i for i, name in enumerate(schema)}

    def build(node: Expression):
        if isinstance(node, Literal):
            value = node.value
            return lambda row: value
        if isinstance(node, ColumnRef):
            if node.name not in index:
                raise ExecutionError(
                    f"column {node.name!r} not in schema {list(schema)!r}"
                )
            pos = index[node.name]
            return lambda row: row[pos]
        if isinstance(node, Comparison):
            left = build(node.left)
            right = build(node.right)
            cmp = _FROZEN_COMPARATORS[node.op]

            def compare(row):
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                return cmp(a, b)

            return compare
        if isinstance(node, And):
            parts = [build(op) for op in node.operands]

            def conj(row):
                saw_null = False
                for part in parts:
                    v = part(row)
                    if v is None:
                        saw_null = True
                    elif not v:
                        return False
                return None if saw_null else True

            return conj
        if isinstance(node, Or):
            parts = [build(op) for op in node.operands]

            def disj(row):
                saw_null = False
                for part in parts:
                    v = part(row)
                    if v is None:
                        saw_null = True
                    elif v:
                        return True
                return None if saw_null else False

            return disj
        if isinstance(node, Not):
            inner = build(node.operand)

            def negation(row):
                v = inner(row)
                if v is None:
                    return None
                return not v

            return negation
        if isinstance(node, Arithmetic):
            left = build(node.left)
            right = build(node.right)
            op = node.op

            def arith(row):
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                if op == ArithmeticOp.ADD:
                    return a + b
                if op == ArithmeticOp.SUB:
                    return a - b
                if op == ArithmeticOp.MUL:
                    return a * b
                if b == 0:
                    raise ExecutionError("division by zero")
                result = a / b
                return result

            return arith
        if isinstance(node, Negate):
            inner = build(node.operand)
            return lambda row: None if inner(row) is None else -inner(row)
        if isinstance(node, Like):
            inner = build(node.operand)
            regex = frozen_like_to_regex(node.pattern)
            negated = node.negated

            def like(row):
                v = inner(row)
                if v is None:
                    return None
                matched = regex.match(v) is not None
                return (not matched) if negated else matched

            return like
        if isinstance(node, InList):
            inner = build(node.operand)
            values = {lit.value for lit in node.values}
            negated = node.negated

            def in_list(row):
                v = inner(row)
                if v is None:
                    return None
                member = v in values
                return (not member) if negated else member

            return in_list
        if isinstance(node, IsNull):
            inner = build(node.operand)
            negated = node.negated

            def is_null(row):
                v = inner(row)
                return (v is not None) if negated else (v is None)

            return is_null
        if isinstance(node, FunctionCall):
            fn = frozen_scalar_function(node.name)
            arg_funcs = [build(a) for a in node.args]
            return lambda row: fn(*(f(row) for f in arg_funcs))
        if isinstance(node, AggregateCall):
            raise ExecutionError(
                "aggregate call evaluated outside an Aggregate operator"
            )
        raise ExecutionError(f"unknown expression node: {type(node).__name__}")

    return build(expr)


def frozen_compile_predicate(expr: Expression, schema: Sequence[str]):
    fn = frozen_compile_expression(expr, schema)

    def predicate(row):
        v = fn(row)
        return bool(v) if v is not None else False

    return predicate


class _FrozenAccumulator:
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


def frozen_aggregate(group_keys, aggregates, columns, rows):
    """The earlier ``OperatorExecutor._aggregate`` loop."""
    key_funcs = [frozen_compile_expression(k, columns) for k in group_keys]
    arg_funcs = [
        None
        if agg.argument is None
        else frozen_compile_expression(agg.argument, columns)
        for agg in aggregates
    ]
    groups: dict[tuple, list[_FrozenAccumulator]] = {}
    for row in rows:
        key = tuple(f(row) for f in key_funcs)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [_FrozenAccumulator(a.func) for a in aggregates]
            groups[key] = accumulators
        for accumulator, arg_func in zip(accumulators, arg_funcs):
            accumulator.update(arg_func(row) if arg_func is not None else 1)
    if not groups and not group_keys:
        groups[()] = [_FrozenAccumulator(a.func) for a in aggregates]
    return [
        key + tuple(acc.result() for acc in accumulators)
        for key, accumulators in groups.items()
    ]


# == strategies ================================================================

SCHEMA = ["n0", "n1", "n2", "s0", "s1", "d0", "b0"]
NUMERIC = [ColumnRef(name, DataType.INTEGER) for name in ("n0", "n1", "n2")]
STRING = [ColumnRef(name, DataType.VARCHAR) for name in ("s0", "s1")]
DATE = ColumnRef("d0", DataType.DATE)
BOOLEAN = ColumnRef("b0", DataType.BOOLEAN)

# Small integers make division by zero frequent; integral floats and -0.0
# tell MIN/MAX ties and result types apart.
_numeric_value = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-20, 20, allow_nan=False, width=32),
)
_date_value = st.one_of(
    st.none(), st.dates(datetime.date(1994, 1, 1), datetime.date(1996, 12, 31))
)
_boolean_value = st.one_of(st.none(), st.booleans())

ROWS = st.lists(
    st.tuples(
        _numeric_value,
        _numeric_value,
        _numeric_value,
        _string_value,
        _string_value,
        _date_value,
        _boolean_value,
    ),
    max_size=25,
)

_numeric_literal = _numeric_value.map(lambda v: Literal(v, DataType.INTEGER))
_string_literal = _string_value.map(lambda v: Literal(v, DataType.VARCHAR))
_date_literal = _date_value.map(lambda v: Literal(v, DataType.DATE))

_numeric = st.recursive(
    st.one_of(st.sampled_from(NUMERIC), _numeric_literal),
    lambda children: st.one_of(
        st.builds(Arithmetic, st.sampled_from(list(ArithmeticOp)), children, children),
        st.builds(Negate, children),
        st.builds(FunctionCall, st.just("ABS"), st.tuples(children)),
        st.builds(
            FunctionCall,
            st.just("YEAR"),
            st.tuples(st.one_of(st.just(DATE), _date_literal)),
        ),
    ),
    max_leaves=6,
)

_string = st.one_of(
    st.sampled_from(STRING),
    _string_literal,
    st.builds(
        FunctionCall,
        st.sampled_from(["LOWER", "UPPER"]),
        st.tuples(st.sampled_from(STRING)),
    ),
    st.builds(
        FunctionCall,
        st.just("SUBSTRING"),
        st.tuples(
            st.sampled_from(STRING),
            st.integers(1, 3).map(lambda v: Literal(v, DataType.INTEGER)),
            st.integers(0, 2).map(lambda v: Literal(v, DataType.INTEGER)),
        ),
    ),
)

_date = st.one_of(st.just(DATE), _date_literal)

_ops = st.sampled_from(list(ComparisonOp))

_atomic_boolean = st.one_of(
    st.builds(Comparison, _ops, _numeric, _numeric),
    st.builds(Comparison, _ops, _string, _string),
    st.builds(Comparison, _ops, _date, _date),
    st.builds(Like, _string, _like_pattern, st.booleans()),
    st.builds(
        InList,
        _numeric,
        st.lists(_numeric_literal, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.builds(
        InList,
        _string,
        st.lists(_string_literal, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.builds(IsNull, st.one_of(_numeric, _string, _date), st.booleans()),
    st.just(BOOLEAN),
    _boolean_value.map(lambda v: Literal(v, DataType.BOOLEAN)),
)


def _boolean_children(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ops: And(tuple(ops))),
        st.lists(children, min_size=2, max_size=3).map(lambda ops: Or(tuple(ops))),
        st.builds(Not, children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(
            Comparison, st.sampled_from([ComparisonOp.EQ, ComparisonOp.NE]),
            children, children,
        ),
    )


BOOLEANS = st.recursive(_atomic_boolean, _boolean_children, max_leaves=6)
EXPRESSIONS = st.one_of(_numeric, _string, _date, BOOLEANS)

_aggregate = st.one_of(
    st.just(AggregateCall(AggregateFunction.COUNT, None)),
    st.builds(AggregateCall, st.sampled_from(list(AggregateFunction)), _numeric),
    st.builds(
        AggregateCall,
        st.sampled_from(
            [AggregateFunction.COUNT, AggregateFunction.MIN, AggregateFunction.MAX]
        ),
        st.one_of(_string, _date),
    ),
)

_GROUPABLE = [*NUMERIC, *STRING, DATE, BOOLEAN]


# == helpers ===================================================================


def _canonical(value: Any) -> Any:
    """Type-exact, float-bit-exact comparison key."""
    if isinstance(value, float):
        return (float, value.hex())
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    return (type(value), value)


def _outcomes(fn, rows):
    """Per row: the canonical result, or the ExecutionError message."""
    out = []
    for row in rows:
        try:
            out.append(_canonical(fn(row)))
        except ExecutionError as error:
            out.append(("raised", str(error)))
    return out


def _whole(fn, *args):
    try:
        return [_canonical(v) for v in fn(*args)]
    except ExecutionError as error:
        return ("raised", str(error))


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _global_names(fn) -> set[str]:
    """Every global (or attribute) name ``fn``'s code reads, nested code
    objects included."""
    return {name for code in _code_objects(fn.__code__) for name in code.co_names}


def _assert_reads_only_its_namespace(fn) -> None:
    namespace = fn.__globals__
    assert namespace["__builtins__"] == {}
    missing = _global_names(fn) - namespace.keys()
    assert not missing, f"compiled code reads unbound names {sorted(missing)}"


# == differential ==============================================================


@settings(max_examples=fuzz_examples(), deadline=None)
@given(ROWS, EXPRESSIONS)
def test_value_mode_matches_frozen_closures(rows, expr):
    compiled = compile_expression(expr, SCHEMA)
    assert _outcomes(compiled, rows) == _outcomes(
        frozen_compile_expression(expr, SCHEMA), rows
    )
    _assert_reads_only_its_namespace(compiled)


@settings(max_examples=fuzz_examples(), deadline=None)
@given(ROWS, BOOLEANS)
def test_predicate_mode_matches_frozen_closures(rows, expr):
    frozen = frozen_compile_predicate(expr, SCHEMA)
    compiled = compile_predicate(expr, SCHEMA)
    assert _outcomes(compiled, rows) == _outcomes(frozen, rows)
    # The filter is the predicate inlined into one comprehension: same
    # rows in the same order, or the same error.
    compiled_filter = compile_filter(expr, SCHEMA)
    assert _whole(compiled_filter, rows) == _whole(
        lambda rs: [r for r in rs if frozen(r)], rows
    )
    _assert_reads_only_its_namespace(compiled)
    _assert_reads_only_its_namespace(compiled_filter)


@settings(max_examples=fuzz_examples(), deadline=None)
@given(ROWS, st.lists(EXPRESSIONS, max_size=4))
def test_projection_matches_frozen_closures(rows, exprs):
    frozen = [frozen_compile_expression(e, SCHEMA) for e in exprs]
    compiled = compile_projection(exprs, SCHEMA)
    assert _whole(compiled, rows) == _whole(
        lambda rs: [tuple(f(row) for f in frozen) for row in rs], rows
    )
    _assert_reads_only_its_namespace(compiled)


@settings(max_examples=fuzz_examples(), deadline=None)
@given(
    ROWS,
    st.lists(st.sampled_from(_GROUPABLE), max_size=3, unique=True),
    st.lists(_aggregate, max_size=4),
)
def test_aggregation_matches_frozen_accumulators(rows, keys, aggregates):
    compiled = compile_aggregation(keys, aggregates, SCHEMA)
    assert _whole(compiled, rows) == _whole(
        frozen_aggregate, keys, aggregates, SCHEMA, rows
    )
    _assert_reads_only_its_namespace(compiled)


# == directed cases ============================================================


_ROW = (None, 0, 1, "x", "y", None, None)


def test_null_left_operand_still_evaluates_a_raising_right_operand():
    # NULL < (1 / 0): both operands are evaluated before the NULL test.
    div = Arithmetic(ArithmeticOp.DIV, NUMERIC[2], NUMERIC[1])
    for expr in (Comparison(ComparisonOp.LT, NUMERIC[0], div),
                 Arithmetic(ArithmeticOp.ADD, NUMERIC[0], div)):
        with pytest.raises(ExecutionError, match="division by zero"):
            compile_expression(expr, SCHEMA)(_ROW)
        with pytest.raises(ExecutionError, match="division by zero"):
            guard = Comparison(ComparisonOp.EQ, expr, NUMERIC[2])
            compile_filter(guard, SCHEMA)([_ROW])


def test_and_scans_past_null_but_stops_at_false():
    div = Arithmetic(ArithmeticOp.DIV, NUMERIC[2], NUMERIC[1])  # 1 / 0 on _ROW
    raising = Comparison(ComparisonOp.EQ, div, NUMERIC[2])
    null = IsNull(NUMERIC[0], negated=True)  # FALSE on _ROW
    unknown = Comparison(ComparisonOp.EQ, NUMERIC[0], NUMERIC[2])  # NULL on _ROW
    assert compile_filter(And((null, raising)), SCHEMA)([_ROW]) == []
    with pytest.raises(ExecutionError, match="division by zero"):
        compile_filter(And((unknown, raising)), SCHEMA)([_ROW])
    # OR stops at TRUE only.
    assert compile_filter(Or((IsNull(NUMERIC[0]), raising)), SCHEMA)([_ROW]) == [_ROW]
    with pytest.raises(ExecutionError, match="division by zero"):
        compile_filter(Or((unknown, raising)), SCHEMA)([_ROW])


# == no plan text in the generated code ========================================

HOSTILE = [
    "') or True or ('",
    '" or True or "',
    "a\nb",
    "x]; import os; r[0",
    "__import__('os').system('true')",
    "{r}",
    "\\",
]


def test_hostile_names_and_literals_evaluate_as_data():
    schema = list(HOSTILE)
    rows = [tuple(HOSTILE), tuple(reversed(HOSTILE))]
    for i, text in enumerate(HOSTILE):
        column = ColumnRef(text, DataType.VARCHAR)
        literal = Literal(text, DataType.VARCHAR)
        equal = Comparison(ComparisonOp.EQ, column, literal)
        assert compile_filter(equal, schema)(rows) == [
            row for row in rows if row[i] == text
        ]
        assert compile_expression(literal, schema)(rows[0]) == text
        assert compile_projection([column, literal], schema)(rows) == [
            (row[i], text) for row in rows
        ]
        member = InList(column, (literal, Literal(None, DataType.VARCHAR)))
        assert compile_predicate(member, schema)(rows[0]) is (rows[0][i] == text)
        like = Like(column, text)  # %, _ and the rest as LIKE pattern text
        assert compile_expression(like, schema)(rows[0]) == (
            frozen_like_to_regex(text).match(rows[0][i]) is not None
        )
        aggregates = [AggregateCall(AggregateFunction.MAX, literal)]
        aggregate = compile_aggregation([column], aggregates, schema)
        assert aggregate(rows) == frozen_aggregate([column], aggregates, schema, rows)
        compiled = (
            compile_filter(equal, schema),
            compile_projection([column, literal], schema),
            aggregate,
        )
        for fn in compiled:
            _assert_reads_only_its_namespace(fn)
            for code in _code_objects(fn.__code__):
                for const in code.co_consts:
                    assert not (isinstance(const, str) and const in HOSTILE)
                for name in code.co_names + code.co_varnames:
                    assert name not in HOSTILE


def test_deep_trees_compile_and_match_frozen_closures():
    # CPython's parser refuses more than 200 nested parentheses: a deep
    # tree is emitted in bounded slices, each its own function.  (About
    # 300 levels is also as deep as the SQL front end goes.)
    chain = NUMERIC[1]
    for i in range(300):
        op = (ArithmeticOp.ADD, ArithmeticOp.SUB, ArithmeticOp.MUL)[i % 3]
        chain = Arithmetic(op, chain, Literal(i % 5 - 2, DataType.INTEGER))
    guard = Comparison(ComparisonOp.GT, Negate(NUMERIC[1]), NUMERIC[2])
    for _ in range(140):
        guard = Not(Or((guard, IsNull(NUMERIC[0]))))
    rows = [(None, 1, 2, "", "", None, None), (3, -2, 0.5, "", "", None, True)]
    assert _outcomes(compile_expression(chain, SCHEMA), rows) == _outcomes(
        frozen_compile_expression(chain, SCHEMA), rows
    )
    assert _outcomes(compile_predicate(guard, SCHEMA), rows) == _outcomes(
        frozen_compile_predicate(guard, SCHEMA), rows
    )
    frozen = frozen_compile_predicate(guard, SCHEMA)
    assert compile_filter(guard, SCHEMA)(rows) == [r for r in rows if frozen(r)]
