"""Volcano/Cascades-style memo: groups of equivalent expressions.

A *group* stores all logically-equivalent alternatives discovered for one
subquery.  A *memo expression* (mexpr) is an operator whose children are
:class:`GroupRef` placeholders pointing at child groups.  Transformation
rules add new mexprs to existing groups; the memo deduplicates by
``(operator key, child group ids)``.

Every group keeps a *representative* full logical plan (built from the
expression that created it) used for group-level semantic properties:
cardinality estimates and — central to this paper — the policy
evaluation 𝒜 of annotation rule AR4, which is identical for all members
of a group because they compute the same result.

Probe first
-----------
Most of what the rules derive is already known, so the memo looks a
candidate up *before* it builds anything for it: the key of an operator
over child groups needs the operator and the group ids only, and a hit
in the index ends the matter.  A shallow expression over refs, its
representative and the group's derived facts (fields, field names,
source databases — each derived from the child groups, never by walking
a representative) are built only for an expression that is new.  All of
it lives on :class:`Group` / :class:`MExpr` and dies with the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from ..expr import Expression, split_conjuncts
from ..plan import Field, LogicalJoin, LogicalPlan


@dataclass(frozen=True, eq=False)
class GroupRef(LogicalPlan):
    """Placeholder child inside a memo expression.

    Identity (equality/hash) is the group id alone — the fields and
    database set are derived attributes, and hashing them on every memo
    lookup dominates exploration time otherwise.
    """

    group_id: int
    ref_fields: tuple[Field, ...]
    databases: frozenset[str]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRef) and other.group_id == self.group_id

    def __hash__(self) -> int:
        return hash(("groupref", self.group_id))

    def children(self) -> tuple[LogicalPlan, ...]:
        return ()

    def with_children(self, children: tuple[LogicalPlan, ...]) -> LogicalPlan:
        return self

    def op_key(self) -> Hashable:
        return ("groupref", self.group_id)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self.ref_fields

    @property
    def source_databases(self) -> frozenset[str]:
        return self.databases

    def __str__(self) -> str:
        return f"Group#{self.group_id}"


#: One top-level conjunct of a join condition with what the join rules
#: ask of it again and again: its text (the canonical conjunct order)
#: and the field names it references.
Conjunct = tuple[str, Expression, frozenset[str]]


class MExpr:
    """One memo expression: a shallow operator over child groups."""

    __slots__ = ("plan", "group_id", "child_groups", "conjuncts")

    def __init__(
        self, plan: LogicalPlan, group_id: int, child_groups: tuple[int, ...]
    ) -> None:
        self.plan = plan  # children are GroupRefs
        self.group_id = group_id
        self.child_groups = child_groups
        #: Joins: the condition's conjuncts (see :meth:`Memo.conjuncts`).
        self.conjuncts: tuple[Conjunct, ...] | None = None

    def key(self) -> Hashable:
        return (self.plan.op_key(), self.child_groups)


class Group:
    """A set of equivalent memo expressions.

    A group is created from its first expression and every later member
    is added by a rule that keeps the root operator, so the operator
    type of ``exprs[0]`` is the operator type of all of them.
    """

    __slots__ = (
        "group_id",
        "exprs",
        "representative",
        "fields",
        "source_databases",
        "_field_names",
        "_ref",
    )

    def __init__(
        self,
        group_id: int,
        representative: LogicalPlan,
        fields: tuple[Field, ...],
        source_databases: frozenset[str],
    ) -> None:
        self.group_id = group_id
        self.exprs: list[MExpr] = []
        #: Representative full logical plan (for semantics-level properties).
        self.representative = representative
        self.fields = fields
        #: Databases whose stored tables feed this group.
        self.source_databases = source_databases
        self._field_names: frozenset[str] | None = None
        self._ref: GroupRef | None = None

    @property
    def field_names(self) -> frozenset[str]:
        if self._field_names is None:
            self._field_names = frozenset([f.name for f in self.fields])
        return self._field_names

    @property
    def root_type(self) -> type[LogicalPlan]:
        return type(self.exprs[0].plan)


class Memo:
    """The expression memo shared by exploration and extraction."""

    def __init__(self, max_expressions: int = 50_000) -> None:
        self.groups: list[Group] = []
        self._index: dict[Hashable, int] = {}  # mexpr key -> group id
        #: id(conjunct) -> its facts; the entry holds the conjunct, so
        #: the id stays taken for as long as the entry exists.
        self._conjuncts: dict[int, Conjunct] = {}
        self._reported: set[Hashable] = set()
        self.max_expressions = max_expressions
        self.expression_count = 0
        self.budget_exhausted = False

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    def __iter__(self) -> Iterator[Group]:
        return iter(self.groups)

    # -- registration --------------------------------------------------------

    def register_plan(self, plan: LogicalPlan) -> int:
        """Insert a logical plan (children: refs or plans, registered
        recursively), returning the root group id.  Shared/equal
        subplans map onto the same groups.

        Join groups are keyed in canonical orientation (smaller child
        group id on the left) so the same semantic subjoin reached along
        different derivation paths lands in one group; JoinCommute
        re-adds the other orientation *inside* that group so the cost
        model can still pick the build side.
        """
        if type(plan) is GroupRef:
            return plan.group_id
        children = plan.children()
        child_ids = self._child_ids(children)
        if isinstance(plan, LogicalJoin) and child_ids[0] > child_ids[1]:
            child_ids = (child_ids[1], child_ids[0])
        groups = self.groups
        group_id = len(groups)
        existing = self._index.setdefault((plan.op_key(), child_ids), group_id)
        if existing != group_id:
            return existing
        # A new group: only now build the shallow expression (the plan
        # itself when it already sits on the canonical refs), its
        # representative and the group's facts, all from the child groups.
        shallow = self._over_refs(plan, children, child_ids)
        if child_ids:
            child_groups = [groups[g] for g in child_ids]
            representative = shallow.with_children(
                tuple([g.representative for g in child_groups])
            )
            databases = child_groups[0].source_databases.union(
                *[g.source_databases for g in child_groups[1:]]
            )
        else:
            representative = shallow
            databases = shallow.source_databases
        group = Group(group_id, representative, shallow.fields, databases)
        group.exprs.append(MExpr(shallow, group_id, child_ids))
        groups.append(group)
        self._bump()
        return group_id

    def add_expression(self, group_id: int, shallow: LogicalPlan) -> MExpr | None:
        """Add a rule-produced shallow expression to ``group_id``.

        Children that are not yet GroupRefs are registered as new (or
        existing) groups.  Returns the new mexpr, or ``None`` when it
        already existed or the budget is exhausted.
        """
        if self.budget_exhausted:
            return None
        children = shallow.children()
        child_ids = self._child_ids(children)
        index = self._index
        known = len(index)
        index.setdefault((shallow.op_key(), child_ids), group_id)
        if len(index) == known:
            # Already known — either in this group (a re-derivation) or in
            # a twin group discovered along another path.  Full Cascades
            # implementations merge twin groups; we simply skip the
            # duplicate, which is sound (both groups keep exploring).
            return None
        mexpr = MExpr(self._over_refs(shallow, children, child_ids), group_id, child_ids)
        self.groups[group_id].exprs.append(mexpr)
        self._bump()
        return mexpr

    def _child_ids(self, children: tuple[LogicalPlan, ...]) -> tuple[int, ...]:
        return tuple(
            [
                c.group_id if type(c) is GroupRef else self.register_plan(c)  # type: ignore[attr-defined]
                for c in children
            ]
        )

    def _over_refs(
        self,
        plan: LogicalPlan,
        children: tuple[LogicalPlan, ...],
        child_ids: tuple[int, ...],
    ) -> LogicalPlan:
        """``plan`` over the refs of ``child_ids``, in that order; the
        plan itself when its children are those refs already."""
        refs = tuple([self.make_ref(g) for g in child_ids])
        for child, ref in zip(children, refs):
            if child is not ref:
                return plan.with_children(refs)
        return plan

    def _bump(self) -> None:
        self.expression_count += 1
        if self.expression_count >= self.max_expressions:
            self.budget_exhausted = True

    def make_ref(self, group_id: int) -> GroupRef:
        group = self.groups[group_id]
        if group._ref is None:
            group._ref = GroupRef(
                group_id=group_id,
                ref_fields=group.fields,
                databases=group.source_databases,
            )
        return group._ref

    # -- facts the rules share -------------------------------------------------

    def conjuncts(self, join: MExpr) -> tuple[Conjunct, ...]:
        """The conjuncts of a join expression's condition, split once per
        expression; text and references are computed once per conjunct
        *object*, which the join rules pass from condition to condition."""
        if join.conjuncts is None:
            known = self._conjuncts
            facts = []
            for conjunct in split_conjuncts(join.plan.condition):  # type: ignore[attr-defined]
                fact = known.get(id(conjunct))
                if fact is None:
                    fact = known[id(conjunct)] = (
                        str(conjunct),
                        conjunct,
                        conjunct.references(),
                    )
                facts.append(fact)
            join.conjuncts = tuple(facts)
        return join.conjuncts

    def first_time(self, key: Hashable) -> bool:
        """True the first time ``key`` is reported to this memo.  For
        rules that meet one derivation along several paths and want to
        work it out once; a key naming objects by ``id`` must name
        objects the memo keeps alive."""
        reported = self._reported
        known = len(reported)
        reported.add(key)
        return len(reported) != known

    # -- statistics ------------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self.groups)
