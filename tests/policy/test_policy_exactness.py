"""Policy-side exactness: the bottom-up derivation reads what the
per-subtree one read.

The optimizer and the validator now derive each plan's logical form and
local-query description once, bottom-up, and 𝒜 accumulates grants by set
operations.  None of that may change *what* is evaluated:

(a) ``PolicyEvalStats`` counters and the dependency read-set of one cold
    ``optimize()`` (annotation + store-time validation) equal the values
    recorded at the parent commit (``policy_exactness_parent.json``,
    written by running this module as a script against that commit's
    ``src``), for the nine TPC-H queries and 40 seeded ad hoc queries per
    curated policy set;
(b) ``check_compliance`` reports the same violations — nodes and
    messages — as the formulation that rebuilds ``to_logical(node)`` and
    re-describes the subtree at every node, on corrupted placements;
(c) ``LocalQuery.lineages_of`` equals the list comprehension it was.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NonCompliantQueryError
from repro.expr import AggregateFunction, BaseColumn
from repro.optimizer import CompliantOptimizer, check_compliance, to_logical
from repro.optimizer.validator import Violation, _grant, _scan_site_violation
from repro.plan import Ship, TableScan
from repro.policy import Lineage, LocalQuery
from repro.tpch import (
    EXTRA_QUERIES,
    QUERIES,
    AdHocQueryGenerator,
    build_catalog,
    curated_policies,
    default_network,
)

FIXTURE = Path(__file__).with_name("policy_exactness_parent.json")
POLICY_SETS = ("T", "C", "CR", "CR+A")
ADHOC_PER_SET = 40
COUNTERS = ("evaluations", "expressions_scanned", "implication_checks", "eta")


def workload(policy_set: str) -> list[tuple[str, str]]:
    generator = AdHocQueryGenerator(seed=7000 + POLICY_SETS.index(policy_set))
    adhoc = [(f"adhoc{i}", q.sql) for i, q in enumerate(generator.generate(ADHOC_PER_SET))]
    return [*QUERIES.items(), *EXTRA_QUERIES.items(), *adhoc]


def observe(policy_set: str) -> dict[str, dict]:
    """Per query: 𝒜's counters and the policy read-set of one cold
    optimization, store-time validation included."""
    catalog = build_catalog(scale=1.0)
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, policy_set), default_network(), plan_cache=True
    )
    observed = {}
    for name, sql in workload(policy_set):
        optimizer.plan_cache.clear()
        optimizer.evaluator.reset_stats(clear_implication_cache=True)
        try:
            optimizer.optimize(sql)
        except NonCompliantQueryError:
            dependencies = None  # nothing is stored for a rejection
        else:
            (entry,) = optimizer.plan_cache._entries.values()
            dependencies = sorted(entry.dependencies)
        stats = optimizer.evaluator.stats
        observed[name] = {
            **{counter: getattr(stats, counter) for counter in COUNTERS},
            "dependencies": dependencies,
        }
    return observed


@pytest.mark.parametrize("policy_set", POLICY_SETS)
def test_counters_and_read_sets_match_parent(policy_set):
    recorded = json.loads(FIXTURE.read_text())[policy_set]
    observed = observe(policy_set)
    assert list(observed) == list(recorded)
    for name, expected in recorded.items():
        assert observed[name] == expected, name
    assert sum(r["evaluations"] for r in recorded.values()) > 500


# -- (b) the validator against its per-node formulation ------------------------


def check_compliance_per_node(plan, evaluator):
    """``check_compliance`` as it was: ``to_logical`` and a fresh local
    query description at every node."""
    violations = []

    def legal(node):
        if isinstance(node, Ship):
            allowed = legal(node.child)
            if node.target != node.source and node.target not in allowed:
                violations.append(Violation(node, f"ships data legal only for {sorted(allowed)} to {node.target!r}"))
            return allowed
        if isinstance(node, TableScan):
            violation = _scan_site_violation(node, evaluator)
            violations.extend([violation] if violation else [])
            executable = frozenset([node.location])
        else:
            executable = evaluator.policies.all_locations
            for child in node.children():
                executable = executable & legal(child)
            if node.location not in executable:
                violations.append(Violation(node, f"executes at {node.location!r} but inputs are only legal at {sorted(executable)}"))
        return executable | _grant(evaluator, to_logical(node))

    legal(plan)
    return violations


def corrupted(plan, rng: random.Random, locations: list[str]):
    """A copy of ``plan`` with one to three placements broken: an
    operator moved without its SHIPs, a SHIP retargeted, a scan moved
    off its table's site."""
    plan = copy.deepcopy(plan)
    nodes = list(plan.walk())
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(nodes)
        elsewhere = rng.choice([loc for loc in locations if loc != node.location])
        if isinstance(node, Ship) and rng.random() < 0.7:
            node.target = elsewhere
        else:
            node.location = elsewhere
    return plan


@pytest.fixture(scope="module")
def cr_optimizer():
    catalog = build_catalog(scale=1.0)
    return CompliantOptimizer(catalog, curated_policies(catalog, "CR"), default_network())


@pytest.mark.parametrize("case", range(20))
def test_violations_equal_per_node_formulation(cr_optimizer, case):
    rng = random.Random(9100 + case)
    names = ["Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10"]
    queries = {**QUERIES, **EXTRA_QUERIES}
    result = cr_optimizer.optimize(queries[names[case % len(names)]])
    plan = corrupted(result.plan, rng, cr_optimizer.catalog.locations)
    evaluator = cr_optimizer.evaluator

    def judged(check):
        evaluator.reset_stats(clear_implication_cache=True)
        return check(plan, evaluator), vars(evaluator.stats).copy()

    expected, expected_stats = judged(check_compliance_per_node)
    actual, actual_stats = judged(check_compliance)
    assert [(id(v.node), v.message) for v in actual] == [
        (id(v.node), v.message) for v in expected
    ]
    assert actual_stats == expected_stats
    if case < 7:  # each query's clean plan once
        assert check_compliance(result.plan, evaluator) == []


def test_corruptions_are_actually_flagged(cr_optimizer):
    flagged = 0
    for case in range(20):
        result = cr_optimizer.optimize(QUERIES["Q3"])
        plan = corrupted(result.plan, random.Random(9100 + case), cr_optimizer.catalog.locations)
        flagged += bool(check_compliance(plan, cr_optimizer.evaluator))
    assert flagged >= 10


# -- (c) the lineage table -------------------------------------------------------

POOL = [BaseColumn("db", table, column) for table in "tu" for column in "abc"]
lineages = st.builds(
    Lineage,
    st.frozensets(st.sampled_from(POOL), max_size=4),
    st.frozensets(st.sampled_from(list(AggregateFunction)), max_size=3),
)
outputs = st.lists(st.tuples(st.sampled_from("vwxyz"), lineages), max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(outputs)
def test_lineage_table_equals_the_comprehension(output):
    query = LocalQuery("db", output, None, is_aggregate=False)
    for attribute in POOL:
        assert query.lineages_of(attribute) == [
            lineage for _name, lineage in output if attribute in lineage.bases
        ]
    assert query.output_attributes == frozenset().union(
        *(lineage.bases for _name, lineage in output)
    )


if __name__ == "__main__":  # record the fixture (run against the parent's src)
    sets = []  # one query per line
    for name in POLICY_SETS:
        rows = ",\n".join(
            f"  {json.dumps(query)}: {json.dumps(seen)}" for query, seen in observe(name).items()
        )
        sets.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    FIXTURE.write_text("{\n" + ",\n".join(sets) + "\n}\n")
    print(f"wrote {FIXTURE}")
