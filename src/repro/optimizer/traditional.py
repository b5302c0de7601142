"""Traditional (compliance-unaware) two-phase optimizer — the baseline.

Phase 1 is the plain Volcano cost-based search (the paper uses "Calcite's
cost-based optimizer as-is"); phase 2 is the same site-selector dynamic
program but *considering all locations legal* for every operator.  The
resulting plan minimizes cost with no regard for dataflow policies; the
benchmark harness then labels it compliant (C) or non-compliant (NC) via
the independent validator — reproducing Fig. 5(a)/6(a).
"""

from __future__ import annotations

import time

from ..catalog import Catalog
from ..geo import NetworkModel, synthetic_network
from ..plan import LogicalPlan, PhysicalPlan, Sort
from ..sql import Binder
from .annotator import PlanAnnotator, default_rules
from .compliant import OptimizationResult, _strip_sort
from .cost import CostModel
from .normalize import normalize
from .site_selector import SiteSelector


class TraditionalOptimizer:
    """Cost-only two-phase distributed optimizer (no policy awareness)."""

    def __init__(
        self,
        catalog: Catalog,
        network: NetworkModel | None = None,
        cost_model: CostModel | None = None,
        allow_cross_products: bool = False,
        max_expressions: int = 50_000,
        site_objective: str = "total",
    ) -> None:
        self.catalog = catalog
        self.network = network or synthetic_network(catalog.locations)
        self.cost_model = cost_model or CostModel(catalog)
        self.binder = Binder(catalog)
        self._annotator = PlanAnnotator(
            cost_model=self.cost_model,
            evaluator=None,  # traditional: no annotation rules
            all_locations=frozenset(catalog.locations),
            rules=default_rules(allow_cross_products),
            max_expressions=max_expressions,
            catalog=catalog,  # replicas: baseline reads any declared copy
        )
        self._site_selector = SiteSelector(self.network, objective=site_objective)

    def optimize(
        self,
        query: str | LogicalPlan,
        result_location: str | None = None,
    ) -> OptimizationResult:
        plan = self.binder.bind_sql(query) if isinstance(query, str) else query
        core, sort = _strip_sort(plan)

        start = time.perf_counter()
        core = normalize(core)
        annotated = self._annotator.annotate(
            core, result_location=result_location, pre_normalized=True
        )
        phase1 = time.perf_counter() - start

        start = time.perf_counter()
        selection = self._site_selector.select(
            annotated.root, result_location=result_location
        )
        physical: PhysicalPlan = selection.plan
        if sort is not None:
            physical = Sort(
                fields=physical.fields,
                location=physical.location,
                estimated_rows=physical.estimated_rows,
                child=physical,
                sort_keys=sort.sort_keys,
                limit=sort.limit,
            )
        phase2 = time.perf_counter() - start

        return OptimizationResult(
            plan=physical,
            normalized=core,
            annotate=annotated,
            selection=selection,
            phase1_seconds=phase1,
            phase2_seconds=phase2,
        )
