"""Fragment scheduler: equivalence with centralized execution, the simulated
makespan (critical-path response time) invariants, and the one fixed
execution order (topological, on the calling thread)."""

import threading

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.errors import ComplianceViolationError, ExecutionError
from repro.execution import (
    ExecutionEngine,
    FragmentScheduler,
    OperatorExecutor,
    fragment_plan,
    parse_fault_spec,
    reference_plan,
)
from repro.geo import GeoDatabase, NetworkModel
from repro.plan import NestedLoopJoin, Ship, UnionAll
from repro.policy import PolicyCatalog, PolicyEvaluator
from repro.sql import Binder

from ..conftest import rows_as_multiset


@pytest.fixture(scope="module")
def world():
    c = Catalog()
    c.add_database("db1", "L1")
    c.add_database("db2", "L2")
    c.add_database("db3", "L3")
    c.add_table(
        "db1",
        TableSchema(
            "emp",
            (
                Column("id", DataType.INTEGER),
                Column("dept", DataType.VARCHAR),
                Column("salary", DataType.DECIMAL),
            ),
            primary_key=("id",),
        ),
    )
    c.add_table(
        "db2",
        TableSchema(
            "dept",
            (Column("name", DataType.VARCHAR), Column("budget", DataType.INTEGER)),
        ),
    )
    db = GeoDatabase(c)
    db.load(
        "db1",
        "emp",
        [(i, "eng" if i % 2 else "sales", 100.0 * i) for i in range(1, 21)],
    )
    db.load("db2", "dept", [("eng", 10), ("sales", 20), ("hr", 30)])
    # Hand-built network: L1->L3 is slow, L2->L3 fast, so the critical
    # path through a bushy join is the L1 edge alone.
    network = NetworkModel()
    for src, dst, alpha, beta in [
        ("L1", "L2", 0.10, 1e-6),
        ("L2", "L1", 0.10, 1e-6),
        ("L1", "L3", 0.40, 2e-6),
        ("L3", "L1", 0.40, 2e-6),
        ("L2", "L3", 0.05, 1e-6),
        ("L3", "L2", 0.05, 1e-6),
    ]:
        network.set_link(src, dst, alpha, beta)
    return c, db, network


def scan(catalog, table, location):
    plan = Binder(catalog).bind_sql(f"SELECT * FROM {table}")
    return reference_plan(plan, location)


def ship(child, source, target):
    return Ship(
        fields=child.fields, location=target, child=child, source=source, target=target
    )


def bushy_join(catalog):
    left = ship(scan(catalog, "emp", "L1"), "L1", "L3")
    right = ship(scan(catalog, "dept", "L2"), "L2", "L3")
    return NestedLoopJoin(
        fields=left.fields + right.fields,
        location="L3",
        left=left,
        right=right,
        condition=None,
    )


def chain_plan(catalog):
    return ship(ship(scan(catalog, "emp", "L1"), "L1", "L2"), "L2", "L3")


def union_of_scans(catalog, n):
    parts = tuple(ship(scan(catalog, "emp", "L1"), "L1", "L3") for _ in range(n))
    return UnionAll(fields=parts[0].fields, location="L3", inputs=parts)


def centralized(catalog):
    """The bushy join's query evaluated sequentially at one site: a
    single SHIP-free fragment."""
    return reference_plan(Binder(catalog).bind_sql("SELECT * FROM emp, dept"), "L3")


class TestEquivalence:
    def test_bushy_join_rows_match_sequential(self, world):
        catalog, db, network = world
        engine = ExecutionEngine(db, network)
        distributed = engine.execute(bushy_join(catalog))
        central = engine.execute(centralized(catalog))
        assert rows_as_multiset(distributed.rows) == rows_as_multiset(central.rows)
        assert distributed.columns == central.columns

    def test_metrics_totals_match_sequential(self, world):
        catalog, db, network = world
        engine = ExecutionEngine(db, network)
        p = engine.execute(bushy_join(catalog)).metrics
        c = engine.execute(centralized(catalog)).metrics
        assert p.rows_scanned == c.rows_scanned == 23
        assert p.rows_output == c.rows_output == 60
        assert c.ships == []
        assert p.total_rows_shipped == 23
        assert p.total_bytes_shipped == sum(s.bytes for s in p.ships)
        # Each fault-free SHIP is billed one α + β·bytes message.
        assert [s.seconds for s in p.ships] == [
            network.transfer_time(s.source, s.target, s.bytes) for s in p.ships
        ]
        assert len(p.ships) == 2

    def test_single_fragment_plan_works_in_parallel_mode(self, world):
        catalog, db, network = world
        result = ExecutionEngine(db, network).execute(scan(catalog, "emp", "L1"))
        assert result.row_count == 20
        assert len(result.metrics.fragments) == 1
        assert result.makespan_seconds == 0.0  # no WAN edges at all
        assert result.metrics.shipping_seconds == 0.0


class TestMakespan:
    def test_bushy_makespan_is_critical_path(self, world):
        catalog, db, network = world
        result = ExecutionEngine(db, network).execute(bushy_join(catalog))
        metrics = result.metrics
        slow, fast = sorted(
            (s.seconds for s in metrics.ships), reverse=True
        )
        # Transfers overlap: the response time is the slower edge alone,
        # strictly below the sum the sequential cost metric reports.
        assert metrics.makespan_seconds == pytest.approx(slow)
        assert metrics.makespan_seconds < metrics.shipping_seconds
        assert metrics.shipping_seconds == pytest.approx(slow + fast)

    def test_chain_makespan_equals_shipping_sum(self, world):
        catalog, db, network = world
        result = ExecutionEngine(db, network).execute(chain_plan(catalog))
        metrics = result.metrics
        assert len(metrics.ships) == 2
        assert metrics.makespan_seconds == pytest.approx(metrics.shipping_seconds)

    def test_makespan_bounded_by_shipping_plus_compute(self, world):
        catalog, db, network = world
        for plan in (bushy_join(catalog), chain_plan(catalog)):
            metrics = (
                ExecutionEngine(db, network).execute(plan).metrics
            )
            assert (
                metrics.makespan_seconds
                <= metrics.shipping_seconds + metrics.local_compute_seconds + 1e-9
            )

    def test_site_clocks_cover_every_location(self, world):
        catalog, db, network = world
        metrics = (
            ExecutionEngine(db, network)
            .execute(bushy_join(catalog))
            .metrics
        )
        assert set(metrics.site_clock_seconds) == {"L1", "L2", "L3"}
        assert metrics.site_clock_seconds["L3"] == metrics.makespan_seconds


class TestObservability:
    def test_fragment_records(self, world):
        catalog, db, network = world
        metrics = (
            ExecutionEngine(db, network)
            .execute(bushy_join(catalog))
            .metrics
        )
        assert len(metrics.fragments) == 3
        root = metrics.fragments[-1]
        assert root.consumer is None
        assert root.rows_out == 20 * 3
        assert root.sim_finish_seconds == metrics.makespan_seconds
        for record in metrics.fragments:
            assert record.compute_seconds >= 0.0
            assert record.sim_start_seconds <= record.sim_finish_seconds
            for producer in record.inputs:
                # A consumer can only start after every input delivery.
                delivered = metrics.fragments[producer].sim_finish_seconds
                assert record.sim_start_seconds >= delivered

    def test_operator_records_cover_all_operators(self, world):
        catalog, db, network = world
        metrics = ExecutionEngine(db, network).execute(bushy_join(catalog)).metrics
        assert len(metrics.operators) == metrics.operators_executed
        assert all(op.seconds >= 0.0 for op in metrics.operators)
        scans = [op for op in metrics.operators if "TableScan" in op.operator]
        assert len(scans) == 2

    def test_scheduler_direct_api(self, world):
        catalog, db, network = world
        scheduler = FragmentScheduler(db, network, max_workers=2)
        (columns, rows), metrics = scheduler.run(bushy_join(catalog))
        assert len(rows) == 60
        assert metrics.makespan_seconds > 0


class TestGuard:
    def test_policy_guard_applies_in_parallel_mode(self, world):
        catalog, db, network = world
        policies = PolicyCatalog(catalog)  # nothing may ship anywhere
        engine = ExecutionEngine(
            db,
            network,
            policy_guard=PolicyEvaluator(policies),
        )
        with pytest.raises(ComplianceViolationError):
            engine.execute(bushy_join(catalog))
        # A shipless plan passes the guard and executes fine.
        assert engine.execute(scan(catalog, "emp", "L1")).row_count == 20


class TestWorkerValidation:
    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_scheduler_rejects_nonpositive_worker_counts(self, world, bad):
        _catalog, db, network = world
        with pytest.raises(ExecutionError, match="positive integer"):
            FragmentScheduler(db, network, max_workers=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_engine_rejects_nonpositive_worker_counts(self, world, bad):
        _catalog, db, network = world
        with pytest.raises(ExecutionError, match="positive integer"):
            ExecutionEngine(db, network, max_workers=bad)

    def test_worker_count_has_no_effect(self, world):
        """A valid count is accepted from existing call sites and
        changes nothing: same rows, same simulated schedule."""
        catalog, db, network = world
        runs = [
            FragmentScheduler(db, network, max_workers=workers).run(
                bushy_join(catalog)
            )
            for workers in (None, 1, 3)
        ]
        (_, rows), metrics = runs[0]
        for (_, other_rows), other in runs[1:]:
            assert other_rows == rows
            assert other.makespan_seconds == metrics.makespan_seconds
            assert [
                (f.index, f.sim_start_seconds, f.sim_finish_seconds)
                for f in other.fragments
            ] == [
                (f.index, f.sim_start_seconds, f.sim_finish_seconds)
                for f in metrics.fragments
            ]


class TestFixedOrder:
    """Fragments run one after another on the calling thread, in the
    DAG's topological order — so which fragments ran before an abort
    is a fact of the plan, not of a race."""

    def _record_compute(self, monkeypatch):
        """Record each fragment body the (default, row) backend runs, and
        on which thread."""
        computed: list[tuple[int, int]] = []
        original = OperatorExecutor.run_fragment

        def recording(executor, root):
            computed.append((id(root), threading.get_ident()))
            return original(executor, root)

        monkeypatch.setattr(OperatorExecutor, "run_fragment", recording)
        return computed

    @staticmethod
    def _roots(plan):
        return [id(fragment.root) for fragment in fragment_plan(plan).fragments]

    def test_fragments_run_in_topological_order_on_the_caller(
        self, world, monkeypatch
    ):
        catalog, db, network = world
        computed = self._record_compute(monkeypatch)
        plan = union_of_scans(catalog, 4)
        (_, rows), metrics = FragmentScheduler(db, network).run(plan)
        assert len(rows) == 80
        assert len(metrics.fragments) == len(computed)
        assert [root for root, _ in computed] == self._roots(plan)
        assert {thread for _, thread in computed} == {threading.get_ident()}

    def test_partial_failure_stops_before_later_fragments(
        self, world, monkeypatch
    ):
        """f1 (the dept scan at L2) cannot be admitted on a crashed L2
        and scans cannot move: exactly f0 ran, every time."""
        catalog, db, network = world
        computed = self._record_compute(monkeypatch)
        for _ in range(3):
            computed.clear()
            scheduler = FragmentScheduler(
                db, network, faults=parse_fault_spec("crash:L2@0")
            )
            plan = bushy_join(catalog)
            (_, rows), metrics = scheduler.run(plan)
            assert rows == []
            assert metrics.partial_failure.fragment_index == 1
            assert [f.index for f in metrics.fragments] == [0]
            assert [root for root, _ in computed] == self._roots(plan)[:1]


class TestErrorPropagation:
    """A genuine operator failure (not an injected fault) must surface
    unchanged, stop the run before any later fragment, and leave the
    scheduler reusable."""

    def test_original_exception_propagates_and_siblings_cancel(self, world):
        catalog, db, network = world
        plan = union_of_scans(catalog, 6)
        calls = []
        original_rows = db.rows

        def instrumented_rows(database, table):
            calls.append(table)
            if len(calls) == 1:
                raise RuntimeError("boom")  # a genuine bug, not a FaultError
            return original_rows(database, table)

        db.rows = instrumented_rows
        try:
            scheduler = FragmentScheduler(db, network, max_workers=1)
            with pytest.raises(RuntimeError, match="boom"):
                scheduler.run(plan)
        finally:
            db.rows = original_rows
        # The failing fragment (f0) ran; none of its five siblings did.
        assert len(calls) == 1

    def test_scheduler_usable_after_failure(self, world):
        catalog, db, network = world
        original_rows = db.rows
        db.rows = lambda database, table: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        try:
            scheduler = FragmentScheduler(db, network, max_workers=2)
            with pytest.raises(RuntimeError, match="boom"):
                scheduler.run(bushy_join(catalog))
        finally:
            db.rows = original_rows
        # No deadlocked state: the same scheduler runs the plan cleanly.
        (columns, rows), metrics = scheduler.run(bushy_join(catalog))
        assert len(rows) == 60
        assert metrics.makespan_seconds > 0

    def test_consumer_never_runs_after_producer_failure(self, world):
        catalog, db, network = world
        plan = bushy_join(catalog)
        calls = []
        original_rows = db.rows

        def failing_rows(database, table):
            calls.append(table)
            raise RuntimeError("boom")

        db.rows = failing_rows
        try:
            with pytest.raises(RuntimeError, match="boom"):
                FragmentScheduler(db, network, max_workers=2).run(plan)
        finally:
            db.rows = original_rows
        # Only source fragments were ever attempted; the join fragment
        # (whose inputs never completed) was not admitted.
        assert set(calls) <= {"emp", "dept"}
