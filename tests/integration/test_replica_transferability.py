"""Property suite: replica choice is invisible to query answers
(Parallel-Correctness / Transferability, paper §6) and visible to the
auditor the moment it is non-compliant.

* **Transferability** — a scan may be answered by any *compliant*
  replica: for random compliant replica placements the optimizer's
  plans are row-identical to the replica-free reference across the full
  executor matrix (row/batch).  This is the
  replicated instance of the paper's transferability property — moving
  a subquery to another site inside its grant never changes the answer.
* **Sensitivity** — a scan answered by a *registered but ungranted*
  replica is always flagged: relocating a shipped scan fragment onto
  such a replica site and auditing the traced run must produce a
  ``non-compliant-replica`` violation.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.execution import (
    ExecutionEngine,
    fragment_plan,
    relocate_fragment,
    scan_sites,
)
from repro.optimizer import CompliantOptimizer
from repro.policy import PolicyEvaluator
from repro.policy.replicas import ReplicaResolver
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network
from repro.trace import ComplianceAuditor, TraceRecorder, parse_trace, tracing

from ..conftest import rows_as_multiset

QUERY_NAMES = ("Q3", "Q5", "Q10")
EXAMPLES = 25

_STATE: dict = {}


def _world():
    """Module cache: a private benchmark (replica registration mutates
    the catalog, so the session-scoped fixture must stay untouched),
    the compliant/non-compliant replica option pools derived from each
    table's full-scan grant, and replica-free reference rows."""
    if _STATE:
        return _STATE
    catalog, database = build_benchmark(scale=0.002)
    network = default_network()
    policies = curated_policies(catalog, "T")
    resolver = ReplicaResolver(catalog, PolicyEvaluator(policies))
    compliant_options = []
    noncompliant_options = []
    for (db, table), stored in sorted(
        (key, catalog.stored_table(*key))
        for key in {
            (st_.database, st_.name)
            for gt in catalog._tables.values()
            for st_ in gt.fragments
        }
    ):
        grant = resolver.full_scan_grant(db, table)
        for site in sorted(catalog.locations):
            if site == stored.location:
                continue
            option = (db, table, site)
            if site in grant:
                compliant_options.append(option)
            else:
                noncompliant_options.append(option)
    assert compliant_options and noncompliant_options
    optimizer = CompliantOptimizer(catalog, policies, network)
    references = {}
    for name in QUERY_NAMES:
        plan = optimizer.optimize(QUERIES[name]).plan
        result = ExecutionEngine(database, network).execute(plan)
        references[name] = rows_as_multiset(result.rows)
    _STATE.update(
        catalog=catalog,
        database=database,
        network=network,
        policies=policies,
        compliant_options=compliant_options,
        noncompliant_options=noncompliant_options,
        references=references,
    )
    return _STATE


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_compliant_replica_choice_never_changes_answers(data):
    """Transferability: any subset of compliant replicas, any query —
    the replicated plan is row-identical to the replica-free reference
    on every executor/mode combination."""
    world = _world()
    catalog = world["catalog"]
    name = data.draw(st.sampled_from(QUERY_NAMES), label="query")
    chosen = data.draw(
        st.lists(
            st.sampled_from(world["compliant_options"]),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        label="replicas",
    )
    added = []
    try:
        for db, table, site in chosen:
            catalog.add_replica(db, table, site)
            added.append((db, table, site))
        optimizer = CompliantOptimizer(
            catalog, world["policies"], world["network"]
        )
        plan = optimizer.optimize(QUERIES[name]).plan
        for executor in ("row", "batch"):
            engine = ExecutionEngine(
                world["database"],
                world["network"],
                executor=executor,
                policy_guard=optimizer.evaluator,
            )
            result = engine.execute(plan)
            key = (name, executor, tuple(chosen))
            assert result.partial_failure is None, key
            assert rows_as_multiset(result.rows) == world["references"][name], key
    finally:
        for db, table, site in added:
            catalog.drop_replica(db, table, site)


def _relocation_cases(world):
    """(query, fragment index, bad site, tables) combos where moving a
    *shipped* scan fragment to ``bad site`` — after registering every
    table it scans as a replica there — must audit as
    ``non-compliant-replica``.  Root fragments are excluded: their
    scans enter no shipped payload, so the trace cannot see them."""
    if "relocations" in _STATE:
        return _STATE["relocations"]
    catalog = world["catalog"]
    optimizer = CompliantOptimizer(
        catalog, world["policies"], world["network"]
    )
    resolver = ReplicaResolver(catalog, PolicyEvaluator(world["policies"]))
    cases = []
    for name in QUERY_NAMES:
        plan = optimizer.optimize(QUERIES[name]).plan
        dag = fragment_plan(plan)
        for index, fragment in enumerate(dag.fragments):
            scans = scan_sites(fragment)
            if not scans or fragment is dag.root:
                continue
            for site in sorted(catalog.locations):
                if site == fragment.location:
                    continue
                # Every scanned table must find the site *ungranted*
                # (and non-primary) for the verdict to be unambiguous.
                if all(
                    site not in resolver.full_scan_grant(db, table)
                    and catalog.stored_table(db, table).location != site
                    for db, table, _ in scans
                ):
                    tables = tuple(sorted({(db, t) for db, t, _ in scans}))
                    cases.append((name, plan, index, site, tables))
    assert cases, "no shipped scan fragments to corrupt"
    _STATE["relocations"] = cases
    return cases


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_non_compliant_replica_reads_always_flagged(data):
    """Sensitivity: a runtime that reads a registered-but-ungranted
    replica produces a trace the auditor rejects with the dedicated
    ``non-compliant-replica`` category (not merely displaced-scan),
    through a JSONL round-trip."""
    world = _world()
    catalog = world["catalog"]
    name, plan, index, site, tables = data.draw(
        st.sampled_from(_relocation_cases(world)), label="case"
    )
    added = []
    try:
        for db, table in tables:
            catalog.add_replica(db, table, site)
            added.append((db, table))
        corrupted = relocate_fragment(
            plan, fragment_plan(plan).fragments[index], site
        )
        engine = ExecutionEngine(world["database"], world["network"])
        recorder = TraceRecorder()
        with tracing(recorder):
            engine.execute(corrupted)
        report = ComplianceAuditor(world["policies"]).audit_events(
            parse_trace(recorder.to_jsonl())
        )
        key = (name, index, site)
        assert not report.ok, key
        assert any(
            v.category == "non-compliant-replica" for v in report.violations
        ), (key, [str(v) for v in report.violations])
    finally:
        for db, table in added:
            catalog.drop_replica(db, table, site)
