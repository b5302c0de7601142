"""Volcano/Cascades-style memo: groups of equivalent expressions.

A *group* stores all logically-equivalent alternatives discovered for one
subquery.  A *memo expression* (mexpr) is an operator whose children are
:class:`GroupRef` placeholders pointing at child groups.  Transformation
rules add new mexprs to existing groups; the memo deduplicates by
``(operator key, child group ids)``.

Every group keeps a *representative* full logical plan (built from the
expression that created it) used for group-level semantic properties:
cardinality estimates, source databases, and — central to this paper —
the policy evaluation 𝒜 of annotation rule AR4, which is identical for
all members of a group because they compute the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.plan import Field, LogicalPlan


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


@dataclass
class MExpr:
    """One memo expression: a shallow operator over child groups."""

    plan: LogicalPlan  # children are GroupRefs
    group_id: int
    _child_groups: tuple[int, ...] | None = None

    @property
    def child_groups(self) -> tuple[int, ...]:
        if self._child_groups is None:
            self._child_groups = tuple(
                c.group_id for c in self.plan.children() if isinstance(c, GroupRef)
            )
        return self._child_groups

    def key(self) -> Hashable:
        return (self.plan.op_key(), self.child_groups)


@dataclass
class Group:
    """A set of equivalent memo expressions."""

    group_id: int
    exprs: list[MExpr] = field(default_factory=list)
    #: Representative full logical plan (for semantics-level properties).
    representative: LogicalPlan | None = None
    #: Cached derived attributes (filled on first access).
    _fields: tuple[Field, ...] | None = None
    _databases: frozenset[str] | None = None
    _ref: "GroupRef | None" = None

    @property
    def fields(self) -> tuple[Field, ...]:
        if self._fields is None:
            assert self.representative is not None
            self._fields = self.representative.fields
        return self._fields

    @property
    def source_databases(self) -> frozenset[str]:
        if self._databases is None:
            assert self.representative is not None
            self._databases = self.representative.source_databases
        return self._databases


class Memo:
    """The expression memo shared by exploration and extraction."""

    def __init__(self, max_expressions: int = 50_000) -> None:
        self.groups: list[Group] = []
        self._index: dict[Hashable, int] = {}  # mexpr key -> group id
        self.max_expressions = max_expressions
        self.expression_count = 0
        self.budget_exhausted = False

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    def __iter__(self) -> Iterator[Group]:
        return iter(self.groups)

    # -- registration --------------------------------------------------------

    def register_plan(self, plan: LogicalPlan) -> int:
        """Recursively insert a full logical plan, returning the root group
        id.  Shared/equal subplans map onto the same groups.

        Newly created join groups are canonicalized (smaller child group id
        on the left) so the same semantic subjoin reached along different
        derivation paths lands in one group; JoinCommute re-adds the other
        orientation *inside* that group so the cost model can still pick
        the build side.
        """
        if isinstance(plan, GroupRef):
            return plan.group_id
        child_groups = tuple(self.register_plan(c) for c in plan.children())
        shallow = self._to_shallow(plan, child_groups)
        shallow = self._canonicalize(shallow)
        return self._insert(shallow, representative=self._expand_once(shallow))

    @staticmethod
    def _canonicalize(shallow: LogicalPlan) -> LogicalPlan:
        from repro.plan import LogicalJoin

        if isinstance(shallow, LogicalJoin):
            left, right = shallow.left, shallow.right
            if (
                isinstance(left, GroupRef)
                and isinstance(right, GroupRef)
                and left.group_id > right.group_id
            ):
                return LogicalJoin(right, left, shallow.condition)
        return shallow

    def add_expression(self, group_id: int, shallow: LogicalPlan) -> MExpr | None:
        """Add a rule-produced shallow expression to ``group_id``.

        Children that are not yet GroupRefs are registered recursively as
        new (or existing) groups.  Returns the new mexpr, or ``None`` when
        it already existed or the budget is exhausted.
        """
        if self.budget_exhausted:
            return None
        shallow = self._internalize(shallow)
        key = (shallow.op_key(), tuple(
            c.group_id for c in shallow.children() if isinstance(c, GroupRef)
        ))
        existing = self._index.get(key)
        if existing is not None:
            # Already known — either in this group (a re-derivation) or in
            # a twin group discovered along another path.  Full Cascades
            # implementations merge twin groups; we simply skip the
            # duplicate, which is sound (both groups keep exploring).
            return None
        mexpr = MExpr(shallow, group_id)
        self._index[key] = group_id
        self.group(group_id).exprs.append(mexpr)
        self._bump()
        return mexpr

    def _internalize(self, plan: LogicalPlan) -> LogicalPlan:
        """Replace non-GroupRef children with refs to (new) groups."""
        new_children = []
        changed = False
        for child in plan.children():
            if isinstance(child, GroupRef):
                new_children.append(child)
            else:
                gid = self.register_plan(child)
                new_children.append(self.make_ref(gid))
                changed = True
        if not changed:
            return plan
        return plan.with_children(tuple(new_children))

    def _insert(self, shallow: LogicalPlan, representative: LogicalPlan) -> int:
        key = (shallow.op_key(), tuple(
            c.group_id for c in shallow.children() if isinstance(c, GroupRef)
        ))
        existing = self._index.get(key)
        if existing is not None:
            return existing
        group = Group(group_id=len(self.groups), representative=representative)
        self.groups.append(group)
        mexpr = MExpr(shallow, group.group_id)
        group.exprs.append(mexpr)
        self._index[key] = group.group_id
        self._bump()
        return group.group_id

    def _bump(self) -> None:
        self.expression_count += 1
        if self.expression_count >= self.max_expressions:
            self.budget_exhausted = True

    # -- expansion helpers ----------------------------------------------------

    def make_ref(self, group_id: int) -> GroupRef:
        group = self.group(group_id)
        if group._ref is None:
            group._ref = GroupRef(
                group_id=group_id,
                ref_fields=group.fields,
                databases=group.source_databases,
            )
        return group._ref

    def _to_shallow(self, plan: LogicalPlan, child_groups: tuple[int, ...]) -> LogicalPlan:
        refs = tuple(self.make_ref(g) for g in child_groups)
        return plan.with_children(refs) if refs else plan

    def _expand_once(self, shallow: LogicalPlan) -> LogicalPlan:
        """Replace GroupRef children with their groups' representatives."""
        children = tuple(
            self.group(c.group_id).representative if isinstance(c, GroupRef) else c
            for c in shallow.children()
        )
        for child in children:
            assert child is not None
        return shallow.with_children(children) if children else shallow

    def expand(self, shallow: LogicalPlan) -> LogicalPlan:
        """Fully expand a shallow expression into a plan of representatives
        (recursively)."""
        return self._expand_once(shallow)

    # -- statistics ------------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self.groups)
