"""The soundness path does not swallow unexpected errors.

Six ``try`` blocks around catalog lookups used to catch ``Exception``
and answer "no violation" / "no home" / "no statistics" / "nothing to
audit".  The one error they exist for is the catalog's typed
:class:`CatalogError` (unknown database, table or fragment); anything
else is a bug or a broken catalog, and turning it into "compliant"
would be failing open.  One test per site: the typed error is still
absorbed, an injected ``RuntimeError`` propagates.
"""

import pytest

from repro.errors import CatalogError
from repro.execution import ExecutionEngine
from repro.optimizer import CompliantOptimizer, CostModel, check_compliance, normalize
from repro.optimizer.validator import _scan_site_violation
from repro.plan import LogicalJoin, TableScan
from repro.policy import PolicyEvaluator, describe_local_query
from repro.sql import Binder
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

JOIN = "SELECT C.name, O.totprice FROM customer C, orders O WHERE C.custkey = O.custkey"


def failing(error):
    def raise_it(*_args, **_kwargs):
        raise error

    return raise_it


@pytest.fixture()
def customer_scan(carco):
    stored = carco.catalog.stored_table("dbn", "customer")
    return TableScan(
        fields=(), location=stored.location, table="customer", database="dbn", alias="C"
    )


@pytest.fixture()
def join(carco):
    plan = normalize(Binder(carco.catalog).bind_sql(JOIN))
    return next(node for node in plan.walk() if isinstance(node, LogicalJoin))


@pytest.mark.parametrize("error", [CatalogError("gone"), RuntimeError("boom")])
def test_validator_scan_site(carco, customer_scan, monkeypatch, error):
    evaluator = PolicyEvaluator(carco.policies)
    monkeypatch.setattr(carco.catalog, "stored_table", failing(error))
    if isinstance(error, CatalogError):
        # Unknown fragment: nothing to validate the site against.
        assert _scan_site_violation(customer_scan, evaluator) is None
    else:
        with pytest.raises(RuntimeError, match="boom"):
            _scan_site_violation(customer_scan, evaluator)
        with pytest.raises(RuntimeError, match="boom"):
            check_compliance(customer_scan, evaluator)


@pytest.mark.parametrize("error", [CatalogError("gone"), RuntimeError("boom")])
def test_evaluator_home_location(carco, monkeypatch, error):
    evaluator = PolicyEvaluator(carco.policies)
    query = describe_local_query(Binder(carco.catalog).bind_sql("SELECT C.name FROM customer C"))
    with_home = evaluator.evaluate(query)
    monkeypatch.setattr(carco.catalog, "database", failing(error))
    if isinstance(error, CatalogError):
        # Unknown database: no home shortcut, the policy grants stand.
        assert evaluator.evaluate(query) == evaluator.evaluate(query, include_home=False)
        assert evaluator.evaluate(query) <= with_home
    else:
        with pytest.raises(RuntimeError, match="boom"):
            evaluator.evaluate(query)


@pytest.mark.parametrize("error", [CatalogError("gone"), RuntimeError("boom")])
def test_cost_column_statistics(carco, join, monkeypatch, error):
    model = CostModel(carco.catalog)
    key = join.condition.left
    known = model.distinct_count(join.left, key)
    monkeypatch.setattr(carco.catalog, "stored_table", failing(error))
    if isinstance(error, CatalogError):
        assert model._column_stats(join, key) is None  # falls back to defaults
        assert known >= 1.0
    else:
        with pytest.raises(RuntimeError, match="boom"):
            model._column_stats(join, key)


@pytest.mark.parametrize("lookup", ["stored_table", "table"])
@pytest.mark.parametrize("error", [CatalogError("gone"), RuntimeError("boom")])
def test_cost_foreign_key_groups(tpch_stats_catalog, monkeypatch, lookup, error):
    """Both lookups of the foreign-key detector: the fragment of each
    joined table, and the table a foreign key references."""
    plan = normalize(
        Binder(tpch_stats_catalog).bind_sql(
            "SELECT o.o_orderkey FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey"
        )
    )
    join = next(node for node in plan.walk() if isinstance(node, LogicalJoin))
    model = CostModel(tpch_stats_catalog)
    assert model._foreign_key_groups([join.condition])  # the FK is found
    monkeypatch.setattr(tpch_stats_catalog, lookup, failing(error))
    if isinstance(error, CatalogError):
        assert model._foreign_key_groups([join.condition]) == {}
    else:
        with pytest.raises(RuntimeError, match="boom"):
            model._foreign_key_groups([join.condition])


@pytest.mark.parametrize("error", [CatalogError("gone"), RuntimeError("boom")])
def test_auditor_scan_sites(carco, monkeypatch, error):
    """The auditor's scan-site check looks up each payload scan's home."""
    plan = CompliantOptimizer(carco.catalog, carco.policies, carco.network).optimize(
        carco.query
    ).plan
    recorder = TraceRecorder()
    with tracing(recorder):
        ExecutionEngine(carco.database, carco.network).execute(plan)
    auditor = ComplianceAuditor(carco.policies)
    assert auditor.audit_events(recorder.events()).ok
    monkeypatch.setattr(carco.catalog, "stored_table", failing(error))
    if isinstance(error, CatalogError):
        # Table unknown to the schema: no scan site to check.
        assert auditor.audit_events(recorder.events()).ok
    else:
        with pytest.raises(RuntimeError, match="boom"):
            auditor.audit_events(recorder.events())
