"""The shared physical-plan copy.

Every physical operator declares the fields holding its children and its
expressions; :func:`repro.plan.copy_plan` — behind ``PlanCache.rebind``
and ``relocate_fragment`` — reads only those declarations.  These tests
pin the declarations to the operators' real fields and the copy to
``children()``, over the TPC-H plans, a GAV-fragmented world (UnionAll)
and a hand-built NestedLoopJoin.
"""

import dataclasses

import pytest

from repro.bench import fragmented_policies
from repro.datatypes import DataType
from repro.expr import BaseColumn, Comparison, ComparisonOp, Expression
from repro.optimizer import CompliantOptimizer
from repro.plan import (
    Field,
    NestedLoopJoin,
    PhysicalPlan,
    TableScan,
    copy_plan,
)
from repro.tpch import (
    EXTRA_QUERIES,
    QUERIES,
    build_catalog,
    curated_policies,
    default_network,
)

FRAGMENTED_QUERY = """
SELECT c.c_mktsegment, COUNT(*) AS n, SUM(o.o_totalprice) AS total
FROM customer c, orders o
WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000
GROUP BY c.c_mktsegment
"""


def _operator_classes(cls=PhysicalPlan):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _operator_classes(sub)
    return out


def _items(value) -> tuple:
    """A declared field's contents: a tuple field's items, else the value
    itself (``None`` included)."""
    return value if isinstance(value, tuple) else (value,)


def _nested_loop_join() -> NestedLoopJoin:
    def scan(table: str) -> TableScan:
        column = f"{table}.k"
        return TableScan(
            fields=(Field(column, DataType.INTEGER, BaseColumn("db", table, "k")),),
            location="L1",
            table=table,
            database="db",
            alias=table,
        )

    left, right = scan("a"), scan("b")
    return NestedLoopJoin(
        fields=left.fields + right.fields,
        location="L1",
        left=left,
        right=right,
        condition=Comparison(
            ComparisonOp.LT, left.fields[0].to_ref(), right.fields[0].to_ref()
        ),
    )


@pytest.fixture(scope="module")
def optimizer():
    catalog = build_catalog(scale=1.0)
    return CompliantOptimizer(
        catalog, curated_policies(catalog, "T"), default_network(), plan_cache=True
    )


@pytest.fixture(scope="module")
def plans(optimizer):
    catalog = build_catalog(
        scale=1.0, fragmented=("customer", "orders"), fragment_locations=3
    )
    fragmented = CompliantOptimizer(
        catalog, fragmented_policies(catalog), default_network()
    )
    out = [optimizer.optimize(sql).plan for sql in {**QUERIES, **EXTRA_QUERIES}.values()]
    out.append(fragmented.optimize(FRAGMENTED_QUERY).plan)
    out.append(_nested_loop_join())
    return out


def test_plans_cover_every_operator(plans):
    seen = {type(node) for plan in plans for node in plan.walk()}
    assert seen == _operator_classes()


def test_declarations_name_every_child_and_expression_field(plans):
    """A field holding operators must be declared a child field and one
    holding expressions an expression field — a new operator that
    forgets its declaration fails here, not silently in the copy."""
    for plan in plans:
        for node in plan.walk():
            for f in dataclasses.fields(node):
                items = _items(getattr(node, f.name))
                if any(isinstance(v, PhysicalPlan) for v in items):
                    assert f.name in node.child_fields, (type(node), f.name)
                if any(isinstance(v, Expression) for v in items):
                    assert f.name in node.expr_fields, (type(node), f.name)
            declared = tuple(
                kid
                for name in node.child_fields
                for kid in _items(getattr(node, name))
            )
            assert declared == node.children()


def test_copy_is_equal_unaliased_and_visits_exactly_children(plans):
    for plan in plans:
        copies: dict[int, PhysicalPlan] = {}
        visited: list[int] = []

        def edit(original, copy):
            # Post-order: every child is copied before its parent.
            for child in original.children():
                assert id(child) in copies
            visited.append(id(original))
            copies[id(original)] = copy

        copied = copy_plan(plan, edit=edit)
        originals = list(plan.walk())
        assert sorted(visited) == sorted(id(n) for n in originals)
        assert len(set(visited)) == len(visited)
        for node in originals:
            assert [id(c) for c in copies[id(node)].children()] == [
                id(copies[id(c)]) for c in node.children()
            ]
        assert copied == plan
        assert copied is copies[id(plan)]
        assert not {id(n) for n in copied.walk()} & {id(n) for n in originals}


def test_copy_maps_every_expression_once(plans):
    for plan in plans:
        mapped: list[Expression] = []

        def record(expr):
            mapped.append(expr)
            return expr

        assert copy_plan(plan, record) == plan
        expected = [
            expr
            for node in plan.walk()
            for name in node.expr_fields
            for expr in _items(getattr(node, name))
            if expr is not None
        ]
        assert sorted(map(str, mapped)) == sorted(map(str, expected))


def test_rebind_with_own_bindings_is_a_fresh_equal_tree(optimizer):
    cache = optimizer.plan_cache
    for sql in {**QUERIES, **EXTRA_QUERIES}.values():
        bound = optimizer.binder.bind_sql(sql)
        optimizer.optimize(bound)
        prepared = cache.prepare(bound)
        entry = cache.lookup(prepared, None, variant=optimizer.max_staleness)
        assert entry is not None
        rebound = cache.rebind(entry, prepared)
        assert rebound == entry.plan
        assert not {id(n) for n in rebound.walk()} & {
            id(n) for n in entry.plan.walk()
        }
