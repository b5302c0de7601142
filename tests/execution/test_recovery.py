"""Recovery layer unit tests: pure-copy fragment relocation, the
ℰ-restricted failover candidate rules, and the failover planner's
validation of every re-placement."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.execution import (
    ExecutionEngine,
    FailoverPlanner,
    failover_candidates,
    fragment_plan,
    relocate_fragment,
)
from repro.geo import GeoDatabase, NetworkModel
from repro.plan import Project, Ship, TableScan

from ..conftest import rows_as_multiset

ALL = frozenset({"L1", "L2", "L3"})


@pytest.fixture(scope="module")
def world():
    c = Catalog()
    c.add_database("db1", "L1")
    c.add_table(
        "db1",
        TableSchema(
            "emp",
            (Column("id", DataType.INTEGER), Column("dept", DataType.VARCHAR)),
            primary_key=("id",),
        ),
    )
    db = GeoDatabase(c)
    db.load("db1", "emp", [(i, "eng" if i % 2 else "sales") for i in range(1, 11)])
    network = NetworkModel()
    for src in ("L1", "L2", "L3"):
        for dst in ("L1", "L2", "L3"):
            if src != dst:
                # L3 is "far": makes L2 the cheapest failover target.
                far = 0.3 if "L3" in (src, dst) else 0.1
                network.set_link(src, dst, alpha=far, beta=1e-6)
    return c, db, network


def chain_plan(trait=frozenset({"L2", "L3"})):
    """scan@L1 -> ship -> project@L2 (movable within ``trait``) -> ship
    -> project@L3 (the root, pinned to the result site L3)."""
    scan = TableScan(
        fields=(),
        location="L1",
        execution_trait=frozenset({"L1"}),
        table="emp",
        database="db1",
        alias="e",
    )
    from repro.plan import Field

    fields = (Field("id", DataType.INTEGER), Field("dept", DataType.VARCHAR))
    scan.fields = fields
    exprs = tuple(f.to_ref() for f in fields)
    names = tuple(f.name for f in fields)
    ship1 = Ship(fields=fields, location="L2", child=scan, source="L1", target="L2")
    mid = Project(
        fields=fields,
        location="L2",
        execution_trait=trait,
        child=ship1,
        exprs=exprs,
        names=names,
    )
    ship2 = Ship(fields=fields, location="L3", child=mid, source="L2", target="L3")
    root = Project(
        fields=fields,
        location="L3",
        execution_trait=frozenset({"L3"}),
        child=ship2,
        exprs=exprs,
        names=names,
    )
    return root


class TestRelocateFragment:
    def test_relocation_moves_body_and_rewires_ships(self):
        plan = chain_plan()
        dag = fragment_plan(plan)
        mid = dag.fragments[1]  # the movable L2 project
        assert mid.location == "L2"
        moved = relocate_fragment(plan, mid, "L3")
        new_dag = fragment_plan(moved)
        assert len(new_dag.fragments) == len(dag.fragments)
        assert new_dag.fragments[1].location == "L3"
        # The cut input ship now delivers to the new site...
        ship_in = new_dag.fragments[1].inputs[0].ship
        assert (ship_in.source, ship_in.target) == ("L1", "L3")
        # ...and the output ship originates from it.
        ship_out = new_dag.fragments[1].output
        assert (ship_out.source, ship_out.target) == ("L3", "L3")

    def test_relocation_is_a_pure_copy(self):
        plan = chain_plan()
        dag = fragment_plan(plan)
        before = [(n.location, type(n).__name__) for n in plan.walk()]
        moved = relocate_fragment(plan, dag.fragments[1], "L3")
        assert [(n.location, type(n).__name__) for n in plan.walk()] == before
        assert all(
            id(a) != id(b) for a, b in zip(plan.walk(), moved.walk())
        )

    def test_relocated_plan_produces_identical_rows(self, world):
        _catalog, db, network = world
        plan = chain_plan()
        dag = fragment_plan(plan)
        moved = relocate_fragment(plan, dag.fragments[1], "L3")
        engine = ExecutionEngine(db, network)
        assert rows_as_multiset(engine.execute(moved).rows) == rows_as_multiset(
            engine.execute(plan).rows
        )


class TestFailoverCandidates:
    def test_movable_fragment_intersects_traits(self):
        dag = fragment_plan(chain_plan())
        mid = dag.fragments[1]
        assert failover_candidates(mid, frozenset(), ALL) == ("L3",)

    def test_unavailable_sites_are_excluded(self):
        dag = fragment_plan(chain_plan(trait=ALL))
        mid = dag.fragments[1]
        assert failover_candidates(mid, frozenset(), ALL) == ("L1", "L3")
        assert failover_candidates(mid, frozenset({"L3"}), ALL) == ("L1",)
        assert failover_candidates(mid, frozenset({"L1", "L3"}), ALL) == ()

    def test_scan_fragments_are_pinned(self):
        dag = fragment_plan(chain_plan())
        scan_fragment = dag.fragments[0]
        assert isinstance(scan_fragment.root, TableScan)
        assert failover_candidates(scan_fragment, frozenset(), ALL) == ()

    def test_untraited_scan_pins_even_with_fallback(self):
        plan = chain_plan()
        for node in plan.walk():
            node.execution_trait = None  # hand-built plan: no annotations
        dag = fragment_plan(plan)
        # No traits and no scan in the body: fall back to all locations.
        assert failover_candidates(dag.fragments[1], frozenset(), ALL) == ("L1", "L3")
        # No traits but the body scans a table: stay pinned to its home.
        assert failover_candidates(dag.fragments[0], frozenset(), ALL) == ()
        # Without even the fallback there is nothing legal to choose.
        assert failover_candidates(dag.fragments[1], frozenset(), None) == ()

    def test_ship_rooted_relay_fragment_is_pinned(self):
        scan = TableScan(
            fields=(),
            location="L1",
            table="emp",
            database="db1",
            alias="e",
        )
        relay = Ship(fields=(), location="L2", child=scan, source="L1", target="L2")
        root = Ship(fields=(), location="L3", child=relay, source="L2", target="L3")
        dag = fragment_plan(root)
        relays = [f for f in dag.fragments if isinstance(f.root, Ship)]
        assert relays
        for fragment in relays:
            assert failover_candidates(fragment, frozenset(), ALL) == ()


class TestFailoverPlanner:
    def test_plans_cheapest_legal_site(self, world):
        _catalog, _db, network = world
        plan = chain_plan(trait=ALL)
        dag = fragment_plan(plan)
        planner = FailoverPlanner(network, evaluator=None, all_locations=ALL)
        failover = planner.plan_failover(
            plan, dag, 1, unavailable=frozenset({"L2"}), reason="L2 crashed"
        )
        assert failover is not None
        assert failover.from_site == "L2"
        # L1 wins: re-shipping via the far L3 links costs more.
        assert failover.to_site == "L1"
        assert not failover.validated  # no evaluator installed
        assert len(failover.dag.fragments) == len(dag.fragments)
        assert failover.dag.fragments[1].location == "L1"

    def test_returns_none_when_pinned(self, world):
        _catalog, _db, network = world
        plan = chain_plan()
        dag = fragment_plan(plan)
        planner = FailoverPlanner(network, evaluator=None, all_locations=ALL)
        assert (
            planner.plan_failover(
                plan, dag, 0, unavailable=frozenset({"L1"}), reason="L1 crashed"
            )
            is None
        )

    def test_returns_none_when_all_candidates_unavailable(self, world):
        _catalog, _db, network = world
        plan = chain_plan(trait=ALL)
        dag = fragment_plan(plan)
        planner = FailoverPlanner(network, evaluator=None, all_locations=ALL)
        assert (
            planner.plan_failover(
                plan, dag, 1, unavailable=ALL, reason="everything crashed"
            )
            is None
        )


class TestFailoverDeterminism:
    """Satellite of the serving PR: equal-cost relocation candidates
    break ties stably (sorted by site name), so failover placement is
    identical across repeated runs and across executors."""

    SITES = ("L1", "L2", "L3", "L4", "L5")

    def uniform_network(self) -> NetworkModel:
        """Every directed link costs exactly the same."""
        network = NetworkModel()
        for src in self.SITES:
            for dst in self.SITES:
                if src != dst:
                    network.set_link(src, dst, alpha=0.1, beta=1e-6)
        return network

    def tie_plan(self):
        """The movable fragment may relocate to L4 or L5 — both legal,
        both exactly equal in re-shipping cost under a uniform network."""
        return chain_plan(trait=frozenset({"L2", "L4", "L5"}))

    def test_equal_cost_ties_break_by_site_name(self):
        network = self.uniform_network()
        plan = self.tie_plan()
        dag = fragment_plan(plan)
        planner = FailoverPlanner(
            network, evaluator=None, all_locations=frozenset(self.SITES)
        )
        fragment = dag.fragments[1]
        candidates = failover_candidates(
            fragment, frozenset({"L2"}), frozenset(self.SITES)
        )
        assert candidates == ("L4", "L5")
        costs = {
            site: planner._relocation_cost(dag, fragment, site)
            for site in candidates
        }
        assert costs["L4"] == pytest.approx(costs["L5"])  # a genuine tie
        for _ in range(5):
            failover = planner.plan_failover(
                plan, dag, 1, unavailable=frozenset({"L2"}), reason="L2 crashed"
            )
            assert failover is not None
            assert failover.to_site == "L4"  # lexicographically smallest

    @pytest.mark.parametrize("executor", ["row", "batch"])
    def test_placement_is_stable_across_runs_and_executors(self, world, executor):
        from repro.execution import parse_fault_spec

        _catalog, db, _network = world
        network = self.uniform_network()
        reference_rows = None
        for _ in range(3):
            engine = ExecutionEngine(
                db,
                network,
                faults=parse_fault_spec("crash:L2@0", locations=set(self.SITES)),
                executor=executor,
            )
            output = engine.execute(self.tie_plan())
            assert output.partial_failure is None
            recoveries = output.metrics.recoveries
            assert [r.to_site for r in recoveries] == ["L4"]
            assert recoveries[0].from_site == "L2"
            rows = rows_as_multiset(output.rows)
            if reference_rows is None:
                reference_rows = rows
            assert rows == reference_rows
