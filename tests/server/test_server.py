"""Query-server behavior tests on the CarCo world: admission control,
deadline shedding, priorities, per-site limits, and the served-rows
identity guarantee (a served query returns exactly what a sequential
single-query execution returns, for both executors)."""

import pytest

from repro.errors import AdmissionRejected, DeadlineExceeded, InvalidParameterError
from repro.execution import ExecutionEngine
from repro.optimizer import CompliantOptimizer
from repro.server import (
    BreakerRegistry,
    QueryRequest,
    QueryServer,
    workload_from_queries,
)


@pytest.fixture(scope="module")
def carco_optimizer(carco):
    return CompliantOptimizer(carco.catalog, carco.policies, carco.network)


def make_server(carco, carco_optimizer, **kwargs):
    kwargs.setdefault("evaluator", carco_optimizer.evaluator)
    return QueryServer(
        carco.database, carco.network, optimizer=carco_optimizer, **kwargs
    )


@pytest.fixture(scope="module")
def reference(carco, carco_optimizer):
    """Sequential single-query execution of the CarCo query."""
    plan = carco_optimizer.optimize(carco.query).plan
    engine = ExecutionEngine(
        carco.database,
        carco.network,
        policy_guard=carco_optimizer.evaluator,
    )
    return engine.execute(plan)


class TestServing:
    @pytest.mark.parametrize("executor", ["row", "batch"])
    def test_served_rows_identical_to_sequential_execution(
        self, carco, carco_optimizer, reference, executor
    ):
        server = make_server(carco, carco_optimizer, executor=executor)
        result = server.serve(
            [
                QueryRequest(sql=carco.query, arrival=0.0, name="a"),
                QueryRequest(sql=carco.query, arrival=0.01, name="b"),
            ]
        )
        assert result.metrics.served == 2
        for outcome in result.outcomes:
            # Ordered identity, not multiset equality: concurrency must
            # not perturb results in any way.
            assert outcome.columns == reference.columns
            assert outcome.rows == reference.rows
            assert outcome.error is None

    def test_overlapping_service_windows_on_shared_clock(
        self, carco, carco_optimizer
    ):
        server = make_server(carco, carco_optimizer, concurrency=2)
        result = server.serve(
            [
                QueryRequest(sql=carco.query, arrival=0.0, name="a"),
                QueryRequest(sql=carco.query, arrival=0.001, name="b"),
            ]
        )
        a, b = result.outcomes
        assert a.started_at == 0.0
        assert b.started_at == 0.001  # dispatched before a finished
        assert b.started_at < a.finished_at  # genuinely overlapping
        # Each query's own service time is measured from its admission.
        assert a.metrics.service_seconds == pytest.approx(
            a.finished_at - a.started_at
        )

    def test_prebuilt_plan_requests_need_no_optimizer(self, carco, carco_optimizer):
        plan = carco_optimizer.optimize(carco.query).plan
        server = QueryServer(carco.database, carco.network)
        result = server.serve([QueryRequest(sql=carco.query, plan=plan)])
        assert result.metrics.served == 1

    def test_serve_is_deterministic(self, carco, carco_optimizer):
        workload = workload_from_queries(
            [("q", carco.query)], interarrival=0.005, repeat=3
        )
        servers = [
            make_server(carco, carco_optimizer, concurrency=2)
            for _ in range(2)
        ]
        first, second = (s.serve(workload) for s in servers)
        assert [o.status for o in first.outcomes] == [
            o.status for o in second.outcomes
        ]
        assert [o.finished_at for o in first.outcomes] == [
            o.finished_at for o in second.outcomes
        ]
        assert first.metrics.finished_at_seconds == second.metrics.finished_at_seconds


class TestAdmissionControl:
    def test_rejects_when_queue_full(self, carco, carco_optimizer):
        server = make_server(
            carco, carco_optimizer, concurrency=1, queue_depth=1
        )
        result = server.serve(
            [QueryRequest(sql=carco.query, name=f"r{i}") for i in range(4)]
        )
        assert result.metrics.served == 2  # the running one + the queued one
        assert result.metrics.rejected == 2
        assert result.metrics.reconciles()
        for outcome in result.by_status("rejected"):
            assert isinstance(outcome.error, AdmissionRejected)
            assert outcome.error.queue_depth == 1
            assert outcome.started_at is None

    def test_per_site_inflight_limit_serializes(self, carco, carco_optimizer):
        limited = make_server(
            carco, carco_optimizer, concurrency=4, site_inflight=1
        )
        workload = [
            QueryRequest(sql=carco.query, arrival=0.0, name="a"),
            QueryRequest(sql=carco.query, arrival=0.001, name="b"),
        ]
        result = limited.serve(workload)
        a, b = result.outcomes
        assert result.metrics.served == 2
        # Identical queries contend on every site, so the second query
        # cannot start until the first releases its fragments.
        assert b.started_at >= a.finished_at
        unlimited = make_server(carco, carco_optimizer, concurrency=4)
        overlapped = unlimited.serve(workload)
        assert overlapped.outcomes[1].started_at < overlapped.outcomes[0].finished_at

    def test_priority_orders_the_queue(self, carco, carco_optimizer):
        server = make_server(carco, carco_optimizer, concurrency=1)
        result = server.serve(
            [
                QueryRequest(sql=carco.query, arrival=0.0, name="first"),
                QueryRequest(sql=carco.query, arrival=0.001, name="low", priority=0),
                QueryRequest(sql=carco.query, arrival=0.002, name="high", priority=5),
            ]
        )
        by_name = {o.request.name: o for o in result.outcomes}
        assert result.metrics.served == 3
        assert by_name["high"].started_at < by_name["low"].started_at

    def test_invalid_knobs_raise_typed_errors(self, carco, carco_optimizer):
        for kwargs in (
            {"concurrency": 0},
            {"queue_depth": -1},
            {"site_inflight": 0},
            {"default_deadline": -2.0},
        ):
            with pytest.raises(InvalidParameterError):
                make_server(carco, carco_optimizer, **kwargs)


class TestLoadShedding:
    def test_sheds_queued_request_past_deadline(self, carco, carco_optimizer):
        server = make_server(carco, carco_optimizer, concurrency=1)
        result = server.serve(
            [
                QueryRequest(sql=carco.query, arrival=0.0, name="runs"),
                QueryRequest(
                    sql=carco.query, arrival=0.0, deadline=1e-6, name="starves"
                ),
            ]
        )
        runs, starves = result.outcomes
        assert runs.status == "served"
        assert starves.status == "shed"
        assert isinstance(starves.error, DeadlineExceeded)
        assert starves.started_at is None  # shed before ever starting
        assert result.metrics.shed == 1 and result.metrics.reconciles()

    def test_cancels_running_query_at_fragment_boundary(
        self, tpch_small, tpch_network
    ):
        # A deep plan (TPC-H Q5: a four-fragment chain) with a deadline
        # that passes mid-chain: the query starts, early fragments run,
        # and the root fragment is refused admission — cancelled
        # cooperatively before committing its input transfers.
        from repro.tpch import QUERIES, curated_policies

        catalog, database = tpch_small
        optimizer = CompliantOptimizer(
            catalog, curated_policies(catalog, "CR"), tpch_network
        )
        plan = optimizer.optimize(QUERIES["Q5"]).plan
        reference = ExecutionEngine(
            database, tpch_network, policy_guard=optimizer.evaluator
        ).execute(plan)
        root = next(f for f in reference.metrics.fragments if f.consumer is None)
        root_base = max(
            f.sim_start_seconds
            for f in reference.metrics.fragments
            if f.index in root.inputs
        )
        assert root_base > 0.0, "Q5 must be a multi-level fragment chain"
        server = QueryServer(database, tpch_network, optimizer=optimizer)
        result = server.serve(
            [QueryRequest(sql=QUERIES["Q5"], deadline=root_base * 0.99, name="doomed")]
        )
        (doomed,) = result.outcomes
        assert doomed.status == "shed"
        assert isinstance(doomed.error, DeadlineExceeded)
        assert doomed.started_at == 0.0  # it was dispatched
        # Cancelled at the root fragment's admission instant.
        assert doomed.finished_at == pytest.approx(root_base)
        assert result.metrics.shed == 1 and result.metrics.reconciles()

    def test_server_default_deadline_applies_to_queued_requests(
        self, carco, carco_optimizer
    ):
        server = make_server(
            carco, carco_optimizer, concurrency=1, default_deadline=1e-6
        )
        result = server.serve(
            [
                QueryRequest(sql=carco.query, arrival=0.0, name="runs"),
                QueryRequest(sql=carco.query, arrival=0.0, name="starves"),
            ]
        )
        assert result.outcomes[0].status == "served"  # late, but served
        assert result.outcomes[1].status == "shed"
        assert isinstance(result.outcomes[1].error, DeadlineExceeded)

    def test_late_service_is_flagged_not_shed(self, carco, carco_optimizer, reference):
        # Deadline checks cut only where a fragment commits new WAN
        # work; a deadline passing while the root fragment's inputs are
        # already in flight yields a *late* serve (flagged), not a shed.
        root = next(f for f in reference.metrics.fragments if f.consumer is None)
        root_base = max(
            f.sim_start_seconds
            for f in reference.metrics.fragments
            if f.index in root.inputs
        )
        deadline = (root_base + reference.makespan_seconds) / 2
        assert deadline < reference.makespan_seconds, "no late window"
        server = make_server(carco, carco_optimizer)
        result = server.serve(
            [QueryRequest(sql=carco.query, deadline=deadline, name="late")]
        )
        (late,) = result.outcomes
        assert late.status == "served"
        assert late.late
        assert late.rows == reference.rows
        assert result.metrics.served_late == 1


class TestMetrics:
    def test_buckets_reconcile_on_mixed_workload(self, carco, carco_optimizer):
        server = make_server(
            carco,
            carco_optimizer,
            concurrency=1,
            queue_depth=1,
            breakers=BreakerRegistry(),
        )
        requests = [
            QueryRequest(sql=carco.query, arrival=0.0, name="served"),
            QueryRequest(sql=carco.query, arrival=0.0, deadline=1e-6, name="shed"),
            QueryRequest(sql=carco.query, arrival=0.0, name="rejected-1"),
            QueryRequest(sql=carco.query, arrival=0.0, name="rejected-2"),
        ]
        result = server.serve(requests)
        metrics = result.metrics
        assert metrics.total == len(requests)
        assert metrics.reconciles()
        assert (metrics.served, metrics.shed, metrics.rejected) == (1, 1, 2)
        assert metrics.queue_wait_seconds >= 0.0
        assert metrics.transfer_attempts > 0
        assert metrics.breaker_trips == 0
        assert set(metrics.breaker_states.values()) == {"closed"}
        # Every non-served outcome carries a typed error — no silent drops.
        for outcome in result.outcomes:
            assert (outcome.error is None) == (outcome.status == "served")
        assert metrics.summary().startswith("1/4 served")
