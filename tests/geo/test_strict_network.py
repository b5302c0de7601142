"""Strict network-model tests (satellite of the serving PR): a
transfer over a link the model does not describe raises one typed
:class:`~repro.errors.UnknownLinkError` — identically from the row and
batch SHIP paths — instead of silently substituting the pessimistic
default link."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.errors import UnknownLinkError
from repro.execution import ExecutionEngine, FaultPlan
from repro.geo import FaultAwareNetwork, GeoDatabase, NetworkModel
from repro.plan import Field, Project, Ship, TableScan


class TestStrictModel:
    def test_default_is_lenient(self):
        n = NetworkModel()
        assert not n.strict
        assert n.transfer_time("A", "B", 0) > 0  # pessimistic default

    def test_strict_raises_typed_error_with_endpoints(self):
        n = NetworkModel(strict=True)
        n.set_link("A", "B", alpha=0.1, beta=1e-6)
        assert n.transfer_time("A", "B", 0) == pytest.approx(0.1)
        with pytest.raises(UnknownLinkError, match="no link modeled") as info:
            n.link("B", "A")  # only the forward direction was described
        assert info.value.source == "B"
        assert info.value.target == "A"

    def test_strict_local_transfer_stays_free(self):
        n = NetworkModel(strict=True)
        assert n.transfer_time("A", "A", 1_000_000) == 0.0


class TestStrictModelUnderBreakers:
    """Regression: ``attempt_transfer`` used to report the send to the
    link's breaker *before* pricing it, so an unmodeled link in a strict
    model counted as a healthy link and then raised."""

    class Governor:
        def __init__(self):
            self.successes = []

        def allow(self, source, target, when):
            return True

        def record_success(self, source, target, when):
            self.successes.append((source, target, when))

        def record_failure(self, source, target, when):  # pragma: no cover
            raise AssertionError("no fault was injected")

    def test_unpriceable_send_is_not_reported_as_success(self):
        base = NetworkModel(strict=True)
        base.set_link("A", "B", alpha=0.1, beta=1e-6)
        governor = self.Governor()
        net = FaultAwareNetwork(base, FaultPlan(), breakers=governor)
        with pytest.raises(UnknownLinkError):
            net.attempt_transfer("B", "A", 10, 0.0)
        assert governor.successes == []
        net.attempt_transfer("A", "B", 10, 1.0)
        assert governor.successes == [("A", "B", 1.0)]


@pytest.fixture()
def world():
    catalog = Catalog()
    catalog.add_database("db1", "L1")
    catalog.add_table(
        "db1",
        TableSchema("t", (Column("x", DataType.INTEGER),), primary_key=("x",)),
    )
    database = GeoDatabase(catalog)
    database.load("db1", "t", [(i,) for i in range(5)])
    network = NetworkModel(strict=True)  # no links described at all
    return database, network


def ship_plan():
    """scan t @ L1 -> ship -> project @ L2 (a link the model omits)."""
    fields = (Field("x", DataType.INTEGER),)
    scan = TableScan(
        fields=fields, location="L1", table="t", database="db1", alias="t"
    )
    ship = Ship(fields=fields, location="L2", child=scan, source="L1", target="L2")
    return Project(
        fields=fields,
        location="L2",
        child=ship,
        exprs=tuple(f.to_ref() for f in fields),
        names=("x",),
    )


class TestShipPathsRaiseIdentically:
    @pytest.mark.parametrize("executor", ["row", "batch"])
    def test_typed_error_from_both_executors(self, world, executor):
        database, network = world
        engine = ExecutionEngine(database, network, executor=executor)
        with pytest.raises(UnknownLinkError) as info:
            engine.execute(ship_plan())
        assert info.value.source == "L1"
        assert info.value.target == "L2"

    def test_error_is_identical_across_executors(self, world):
        database, network = world
        messages = {}
        for executor in ("row", "batch"):
            engine = ExecutionEngine(database, network, executor=executor)
            with pytest.raises(UnknownLinkError) as info:
                engine.execute(ship_plan())
            messages[executor] = str(info.value)
        assert messages["row"] == messages["batch"]

    def test_lenient_model_executes_the_same_plan(self, world):
        database, _ = world
        engine = ExecutionEngine(database, NetworkModel())
        output = engine.execute(ship_plan())
        assert sorted(output.rows) == [(i,) for i in range(5)]
