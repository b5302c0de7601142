"""Unit tests for the scalar expression trees."""

import pytest

from repro.datatypes import DataType
from repro.expr import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
    BaseColumn,
    ColumnRef,
    Comparison,
    ComparisonOp,
    FunctionCall,
    InList,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    TRUE,
    conjunction,
    disjunction,
    expression_dtype,
    rename_columns,
    rewrite,
    split_conjuncts,
    substitute,
    walk,
)

A = ColumnRef("t.a", DataType.INTEGER, BaseColumn("db", "t", "a"))
B = ColumnRef("t.b", DataType.INTEGER, BaseColumn("db", "t", "b"))
TEN = Literal(10, DataType.INTEGER)


def test_references_collects_all_column_names():
    expr = And((Comparison(ComparisonOp.GT, A, TEN), Comparison(ComparisonOp.LT, B, A)))
    assert expr.references() == {"t.a", "t.b"}


def test_base_columns_collects_provenance():
    expr = Arithmetic(ArithmeticOp.ADD, A, B)
    assert expr.base_columns() == {BaseColumn("db", "t", "a"), BaseColumn("db", "t", "b")}


def test_base_columns_skips_unprovenanced_refs():
    anon = ColumnRef("x", DataType.INTEGER, None)
    expr = Arithmetic(ArithmeticOp.ADD, A, anon)
    assert expr.base_columns() == {BaseColumn("db", "t", "a")}


def test_walk_yields_every_node():
    expr = Not(Comparison(ComparisonOp.EQ, A, TEN))
    kinds = {type(node).__name__ for node in walk(expr)}
    assert kinds == {"Not", "Comparison", "ColumnRef", "Literal"}
    # IN-list values are children after the operand: walk() reaches them,
    # and references() still names only the operand's columns.
    five = Literal(5, DataType.INTEGER)
    in_list = InList(A, (TEN, five))
    assert in_list.children() == (A, TEN, five)
    assert list(walk(in_list))[1:] == [five, TEN, A]
    assert in_list.references() == {"t.a"}


def test_rewrite_replaces_subtrees_top_down():
    expr = And((Comparison(ComparisonOp.GT, A, TEN), InList(B, (TEN,))))
    eleven = Literal(11, DataType.INTEGER)
    bumped = rewrite(expr, lambda n: eleven if n == TEN else None)
    assert bumped == And(
        (Comparison(ComparisonOp.GT, A, eleven), InList(B, (eleven,)))
    )
    # A replaced subtree is not descended into.
    seen = []
    rewrite(expr, lambda n: seen.append(n) or (n if isinstance(n, Comparison) else None))
    assert InList(B, (TEN,)) in seen and A not in seen
    # Nothing changed: the very same object comes back.
    assert rewrite(expr, lambda n: None) is expr


def test_structural_equality_and_hash():
    e1 = Comparison(ComparisonOp.EQ, A, TEN)
    e2 = Comparison(ComparisonOp.EQ, A, Literal(10, DataType.INTEGER))
    assert e1 == e2
    assert hash(e1) == hash(e2)
    assert e1 != Comparison(ComparisonOp.NE, A, TEN)


def test_substitute_replaces_named_refs():
    expr = Comparison(ComparisonOp.GT, A, TEN)
    replacement = Arithmetic(ArithmeticOp.MUL, B, Literal(2, DataType.INTEGER))
    result = substitute(expr, {"t.a": replacement})
    assert result == Comparison(ComparisonOp.GT, replacement, TEN)


def test_substitute_no_change_returns_same_object():
    expr = Comparison(ComparisonOp.GT, A, TEN)
    assert substitute(expr, {"other": B}) is expr


def test_rename_columns_preserves_provenance():
    renamed = rename_columns(A, {"t.a": "x.a"})
    assert isinstance(renamed, ColumnRef)
    assert renamed.name == "x.a"
    assert renamed.base == BaseColumn("db", "t", "a")


def test_conjunction_flattens_and_drops_true():
    c1 = Comparison(ComparisonOp.GT, A, TEN)
    c2 = Comparison(ComparisonOp.LT, B, TEN)
    nested = conjunction([And((c1, c2)), TRUE, c1])
    assert isinstance(nested, And)
    assert nested.operands == (c1, c2, c1)


def test_conjunction_of_single_is_identity():
    c1 = Comparison(ComparisonOp.GT, A, TEN)
    assert conjunction([c1]) is c1


def test_conjunction_empty_is_true():
    assert conjunction([]) == TRUE


def test_disjunction_flattens():
    c1 = Comparison(ComparisonOp.GT, A, TEN)
    c2 = Comparison(ComparisonOp.LT, B, TEN)
    flat = disjunction([Or((c1, c2)), c1])
    assert isinstance(flat, Or)
    assert len(flat.operands) == 3


def test_split_conjuncts_recurses():
    c1 = Comparison(ComparisonOp.GT, A, TEN)
    c2 = Comparison(ComparisonOp.LT, B, TEN)
    c3 = Like(A, "x%")
    expr = And((And((c1, c2)), c3))
    assert split_conjuncts(expr) == [c1, c2, c3]
    assert split_conjuncts(None) == []
    assert split_conjuncts(TRUE) == []


def test_comparison_op_flip_and_negate():
    assert ComparisonOp.LT.flip() == ComparisonOp.GT
    assert ComparisonOp.LE.negate() == ComparisonOp.GT
    assert ComparisonOp.EQ.flip() == ComparisonOp.EQ


@pytest.mark.parametrize(
    "expr,expected",
    [
        (Comparison(ComparisonOp.EQ, A, TEN), DataType.BOOLEAN),
        (Arithmetic(ArithmeticOp.ADD, A, B), DataType.INTEGER),
        (Arithmetic(ArithmeticOp.MUL, A, Literal(1.5, DataType.DECIMAL)), DataType.DECIMAL),
        (Negate(A), DataType.INTEGER),
        (FunctionCall("YEAR", (ColumnRef("d", DataType.DATE),)), DataType.INTEGER),
        (AggregateCall(AggregateFunction.COUNT, None), DataType.INTEGER),
        (AggregateCall(AggregateFunction.SUM, A), DataType.INTEGER),
        (AggregateCall(AggregateFunction.AVG, A), DataType.DECIMAL),
        (AggregateCall(AggregateFunction.MIN, ColumnRef("s", DataType.VARCHAR)), DataType.VARCHAR),
        (InList(A, (TEN,)), DataType.BOOLEAN),
    ],
)
def test_expression_dtype(expr, expected):
    assert expression_dtype(expr) == expected


def test_contains_aggregate():
    agg = AggregateCall(AggregateFunction.SUM, A)
    assert Arithmetic(ArithmeticOp.ADD, agg, TEN).contains_aggregate()
    assert not Arithmetic(ArithmeticOp.ADD, A, TEN).contains_aggregate()


def test_with_children_rebuilds_each_node_type():
    cases = [
        Comparison(ComparisonOp.EQ, A, TEN),
        And((Comparison(ComparisonOp.EQ, A, TEN), Comparison(ComparisonOp.EQ, B, TEN))),
        Or((Comparison(ComparisonOp.EQ, A, TEN), Comparison(ComparisonOp.EQ, B, TEN))),
        Not(Comparison(ComparisonOp.EQ, A, TEN)),
        Arithmetic(ArithmeticOp.SUB, A, B),
        Negate(A),
        Like(A, "%x%"),
        InList(A, (TEN,)),
        FunctionCall("ABS", (A,)),
        AggregateCall(AggregateFunction.SUM, A),
    ]
    for expr in cases:
        rebuilt = expr.with_children(expr.children())
        assert rebuilt == expr


def test_str_rendering_is_deterministic():
    expr = And((Comparison(ComparisonOp.GE, A, TEN), Like(B, "a_c%")))
    assert str(expr) == "((t.a >= 10) AND (t.b LIKE 'a_c%'))"
