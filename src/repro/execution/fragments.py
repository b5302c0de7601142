"""Splitting located plans into per-site fragments at SHIP boundaries.

A located :class:`~repro.plan.PhysicalPlan` is a tree whose cross-site
edges are materialized as :class:`~repro.plan.Ship` operators.  Real
geo-distributed engines do not evaluate such a tree on one node: each
site runs the maximal subtree it owns (a *fragment*) and streams the
result over the WAN to the consuming site.  This module performs that
cut: every Ship operator becomes an edge of an explicit fragment DAG
(for plan trees the DAG is a tree of fragments, but consumers may have
any number of producers).

Fragment anatomy
----------------

* A fragment's ``root`` is either the plan root or the child of a cut
  Ship; its body is the subtree below the root, *stopping at* (and
  including, as leaves) any further Ship operators.
* Each Ship leaf inside a fragment is fed by exactly one producer
  fragment (the one rooted at ``ship.child``); the producer's ``output``
  is that same Ship node.  A fragment whose root is itself a Ship (a
  relayed transfer, e.g. result delivery of an already-shipped plan)
  simply has a single-leaf body.
* ``fragments`` is in topological order — every producer precedes its
  consumer, and the result-producing fragment is last.

The scheduler (:mod:`repro.execution.scheduler`) executes this DAG in
that order and advances a simulated clock along its edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..plan import PhysicalPlan, Ship, TableScan, explain_physical


@dataclass(frozen=True)
class FragmentInput:
    """One incoming WAN edge of a fragment."""

    producer: int  # index of the fragment computing the shipped rows
    ship: Ship  # the cut Ship operator (a leaf of the consuming fragment)


@dataclass
class Fragment:
    """A maximal single-site subtree of a located physical plan."""

    index: int
    root: PhysicalPlan
    location: str
    inputs: tuple[FragmentInput, ...] = ()
    #: The Ship operator this fragment's result feeds (None for the
    #: result-producing root fragment).
    output: Ship | None = None
    #: Index of the fragment containing ``output`` (None for the root).
    consumer: int | None = None

    def body(self) -> Iterator[PhysicalPlan]:
        """The fragment's body nodes: its root and everything below it,
        stopping at (and including) the cut Ship leaves, whose subtrees
        belong to the producers."""
        cut = {id(entry.ship) for entry in self.inputs}
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if id(node) not in cut:
                stack.extend(node.children())


@dataclass
class FragmentDAG:
    """All fragments of one plan, producers before consumers."""

    fragments: list[Fragment] = field(default_factory=list)

    @property
    def root_index(self) -> int:
        return len(self.fragments) - 1

    @property
    def root(self) -> Fragment:
        return self.fragments[self.root_index]

    def ancestors(self, index: int) -> set[int]:
        """Indices of the fragments downstream of ``index`` (consumers,
        transitively) — the fragments that cannot start before it."""
        out: set[int] = set()
        consumer = self.fragments[index].consumer
        while consumer is not None:
            out.add(consumer)
            consumer = self.fragments[consumer].consumer
        return out

    def independent_pairs(self) -> int:
        """Number of fragment pairs with no dependency either way — the
        plan's potential for concurrent cross-site execution."""
        n = len(self.fragments)
        dependent = 0
        for i in range(n):
            dependent += len(self.ancestors(i))  # counts each ordered pair once
        return n * (n - 1) // 2 - dependent


def scan_sites(fragment: Fragment) -> tuple[tuple[str, str, str], ...]:
    """``(database, table, site)`` of every base-table scan in the
    fragment's body — the replica identity of the fragment's reads.
    With replicated catalogs the site may differ from the fragment's
    table's primary location (it then names the replica being read);
    the trace payload codec and the auditor both consume this."""
    return tuple(
        sorted(
            (node.database, node.table, node.location)
            for node in fragment.body()
            if isinstance(node, TableScan)
        )
    )


def fragment_plan(plan: PhysicalPlan) -> FragmentDAG:
    """Cut ``plan`` at every Ship edge into a :class:`FragmentDAG`."""
    dag = FragmentDAG()

    def build(root: PhysicalPlan, output: Ship | None) -> int:
        cuts: list[Ship] = []

        def collect(node: PhysicalPlan) -> None:
            if isinstance(node, Ship):
                cuts.append(node)
                return  # the subtree below the cut belongs to the producer
            for child in node.children():
                collect(child)

        collect(root)
        inputs = []
        for ship in cuts:
            assert ship.child is not None
            producer = build(ship.child, ship)
            inputs.append(FragmentInput(producer=producer, ship=ship))
        index = len(dag.fragments)
        dag.fragments.append(
            Fragment(
                index=index,
                root=root,
                location=root.location,
                inputs=tuple(inputs),
                output=output,
            )
        )
        for entry in inputs:
            dag.fragments[entry.producer].consumer = index
        return index

    build(plan, None)
    return dag


def independent_pairs(plan: PhysicalPlan) -> int:
    """Convenience: :meth:`FragmentDAG.independent_pairs` of ``plan``."""
    return fragment_plan(plan).independent_pairs()


def explain_fragments(dag: FragmentDAG, show_rows: bool = False) -> str:
    """Render a fragment DAG, one indented operator tree per fragment.

    Cut Ship leaves are replaced by a reference to the producing
    fragment, so each fragment reads as the self-contained program its
    site would run.
    """
    by_ship = {id(entry.ship): entry.producer for f in dag.fragments for entry in f.inputs}
    lines: list[str] = []
    for fragment in dag.fragments:
        feeds = (
            f" feeds f{fragment.consumer} via "
            f"{fragment.output.source} -> {fragment.output.target}"
            if fragment.output is not None and fragment.consumer is not None
            else " produces the query result"
        )
        scans = scan_sites(fragment)
        reads = (
            " reading " + ", ".join(f"{db}.{table}@{site}" for db, table, site in scans)
            if scans
            else ""
        )
        lines.append(f"Fragment f{fragment.index} @ {fragment.location}{feeds}{reads}")

        def prune(node: PhysicalPlan) -> str | None:
            producer = by_ship.get(id(node))
            if producer is not None and isinstance(node, Ship):
                return f"[input from f{producer}: Ship {node.source} -> {node.target}]"
            return None

        body = explain_physical(fragment.root, show_rows=show_rows, prune=prune)
        lines.extend("  " + line for line in body.splitlines())
    return "\n".join(lines)
