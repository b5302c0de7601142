"""CLI smoke tests (python -m repro ...)."""

import pytest

from repro.cli import main


def test_queries_listing(capsys):
    assert main(["queries"]) == 0
    out = capsys.readouterr().out
    for name in ("Q2", "Q3", "Q5", "Q8", "Q9", "Q10"):
        assert f"-- {name}" in out


def test_policies_listing(capsys):
    assert main(["policies", "--set", "CR+A"]) == 0
    out = capsys.readouterr().out
    assert "as aggregates sum from lineitem" in out


def test_explain_named_query(capsys):
    assert main(["explain", "Q3", "--set", "CR"]) == 0
    out = capsys.readouterr().out
    assert "TableScan" in out
    assert "memo groups" in out


def test_explain_with_traits(capsys):
    assert main(["explain", "Q3", "--set", "CR+A", "--traits"]) == 0
    out = capsys.readouterr().out
    assert "Annotated plan" in out
    assert "E={" in out and "S={" in out


def test_explain_traditional_reports_compliance(capsys):
    assert main(["explain", "Q3", "--set", "CR", "--traditional"]) == 0
    out = capsys.readouterr().out
    assert "compliant under set CR: False" in out
    assert "violation:" in out


def test_explain_rejected_query_exit_code(capsys):
    code = main(
        [
            "explain",
            "SELECT o_comment, c_name FROM orders, customer "
            "WHERE o_custkey = c_custkey AND c_nationkey = 3",
            "--set",
            "T",
            "--result-location",
            "Asia",
        ]
    )
    assert code == 2
    assert "REJECTED" in capsys.readouterr().err


def test_audit_command(capsys):
    assert main(
        ["audit", "SELECT l_orderkey, l_extendedprice FROM lineitem", "--set", "CR+A"]
    ) == 0
    out = capsys.readouterr().out
    assert "NorthAmerica  ALLOWED" in out.replace("   ", " ").replace("  ", " ") or "ALLOWED" in out


def test_run_small_query(capsys):
    assert main(
        [
            "run",
            "SELECT n_name, COUNT(*) AS cnt FROM nation, region "
            "WHERE n_regionkey = r_regionkey AND r_name = 'EUROPE' GROUP BY n_name",
            "--scale",
            "0.001",
            "--limit",
            "3",
        ]
    ) == 0
    captured = capsys.readouterr()
    assert "n_name" in captured.out
    assert "shipped across borders" in captured.err


def test_invalid_sql_exit_code(capsys):
    assert main(["explain", "SELEKT broken"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("executor", ["row", "batch"])
@pytest.mark.parametrize(
    "where",
    [
        "c_custkey < 'a'",
        "c_custkey > 'a'",
        "c_custkey BETWEEN 'a' AND 'b'",
        "c_custkey IN ('1')",
    ],
)
def test_incomparable_comparison_is_a_typed_error(capsys, where, executor):
    """Comparing an integer column with a string is a binding error (one
    ``error:`` line, exit 1) on either executor — never a traceback and
    never a silent empty result."""
    code = main(
        [
            "run",
            f"SELECT c_name FROM customer WHERE {where}",
            "--scale",
            "0.001",
            "--executor",
            executor,
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    literal = "'1'" if "IN" in where else "'a'"
    assert err.strip().splitlines() == [
        f"error: cannot compare customer.c_custkey (integer) with {literal} (varchar)"
    ]


def test_serve_workload(tmp_path, capsys):
    workload = tmp_path / "workload.json"
    workload.write_text(
        '[{"query": "Q3", "arrival": 0.0},'
        ' {"query": "Q3", "arrival": 0.0, "deadline": 1e-6}]'
    )
    # concurrency 1: the second request waits behind the first and its
    # deadline passes in the queue -> shed, never started.
    assert main(
        ["serve", str(workload), "--scale", "0.001", "--concurrency", "1"]
    ) == 0
    captured = capsys.readouterr()
    assert "Q3: served" in captured.out
    assert "SHED" in captured.out
    assert "1 shed" in captured.err
    assert "breakers:" in captured.err


@pytest.mark.parametrize("bound", ["-1", "nan"])
@pytest.mark.parametrize("command", ["explain", "run", "serve", "audit"])
def test_max_staleness_rejects_negative_and_nan(tmp_path, capsys, command, bound):
    """One shared check, before any work: a negative or NaN bound is a
    typed parameter error (exit 1) on every command that takes it."""
    workload = tmp_path / "workload.json"
    workload.write_text('["Q3"]')
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    replicas = ["--set", "T", "--replicas", "db1.customer@NorthAmerica"]
    argv = {
        "explain": ["explain", "Q3", *replicas],
        "run": ["run", "Q3", "--scale", "0.001", *replicas],
        "serve": ["serve", str(workload), "--scale", "0.001", *replicas],
        "audit": ["audit", str(trace), *replicas],
    }[command]
    assert main([*argv, "--max-staleness", bound]) == 1
    assert "--max-staleness must be >= 0 seconds" in capsys.readouterr().err


def test_serve_missing_workload_file_exit_code(tmp_path, capsys):
    assert main(["serve", str(tmp_path / "absent.json")]) == 1
    assert "cannot read workload file" in capsys.readouterr().err


def test_serve_invalid_knob_exit_code(tmp_path, capsys):
    workload = tmp_path / "workload.json"
    workload.write_text('["Q3"]')
    assert main(["serve", str(workload), "--concurrency", "0"]) == 1
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "run_args, audit_args",
    [
        pytest.param(["Q3"], ["--set", "CR"], id="q3"),
        pytest.param(
            ["Q5", "--faults", "random:11", "--retries", "6"],
            ["--set", "CR"],
            id="random-faults",
        ),
        pytest.param(
            [
                "Q5", "--faults", "drop:Europe->NorthAmerica@0.01+0.05",
                "--retries", "8", "--ship-chunk-rows", "32",
            ],
            [],
            id="streamed-drop",
        ),
    ],
)
def test_run_writes_trace_and_audit_accepts_it(tmp_path, capsys, run_args, audit_args):
    """Traced runs — fault-free, under seeded random faults, and streamed
    in 32-row chunks across a dropped link — all audit clean."""
    trace = tmp_path / "run.jsonl"
    assert main(["run", *run_args, "--scale", "0.001", "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert f"-> {trace}" in captured.err
    assert trace.exists()
    assert main(["audit", str(trace), *audit_args]) == 0
    assert "audit: COMPLIANT" in capsys.readouterr().out


def test_audit_flags_mutated_trace_with_exit_4(tmp_path, capsys):
    import json

    trace = tmp_path / "q3.jsonl"
    assert main(
        ["run", "Q3", "--scale", "0.001", "--trace", str(trace)]
    ) == 0
    capsys.readouterr()
    mutated = []
    for line in trace.read_text().splitlines():
        entry = json.loads(line)
        if entry.get("kind") == "ship":
            entry["target"] = "Atlantis"  # off-catalog: never permitted
        mutated.append(json.dumps(entry))
    trace.write_text("\n".join(mutated) + "\n")
    assert main(["audit", str(trace)]) == 4
    out = capsys.readouterr().out
    assert "NON-COMPLIANT" in out
    assert "VIOLATION" in out
    assert "forbidden-destination" in out


def test_audit_malformed_trace_exit_code(tmp_path, capsys):
    trace = tmp_path / "broken.jsonl"
    trace.write_text('{"kind": "ship"\n')
    assert main(["audit", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err


@pytest.fixture(scope="module")
def q10_trace(tmp_path_factory):
    """The events of one traced Q10 run under the CR policies."""
    import json

    trace = tmp_path_factory.mktemp("q10") / "q10.jsonl"
    assert main(
        ["run", "Q10", "--scale", "0.001", "--set", "CR", "--trace", str(trace)]
    ) == 0
    return [json.loads(line) for line in trace.read_text().splitlines()]


def _first_node(node, wanted):
    """The first descriptor dict under ``node`` that ``wanted`` accepts."""
    if isinstance(node, dict):
        if wanted(node):
            return node
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            found = _first_node(item, wanted)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize(
    "wanted, key, value, message",
    [
        pytest.param(
            lambda d: d.get("e") == "lit", "v", [1, 2],
            "'v' must be a JSON scalar, got [1, 2]", id="list-literal",
        ),
        pytest.param(
            lambda d: d.get("o") == "scan", "table", 7,
            "'table' must be a string, got 7", id="integer-table",
        ),
        pytest.param(
            lambda d: d.get("e") == "col" and d.get("base"), "base", [1, 2, 3],
            "'base' must be a [database, table, column] list or null, got [1, 2, 3]",
            id="integer-provenance",
        ),
        pytest.param(
            lambda d: d.get("e") == "col", "name", 5,
            "'name' must be a string, got 5", id="integer-column-name",
        ),
        pytest.param(
            lambda d: d.get("o") == "filter", "warp", 9,
            "malformed 'filter' payload descriptor: undeclared key(s) 'warp'",
            id="undeclared-filter-key",
        ),
    ],
)
def test_audit_rejects_a_mistyped_payload_with_one_error_line(
    tmp_path, capsys, q10_trace, wanted, key, value, message
):
    """One tampered ship payload: exit 1 with a single typed error line
    naming the event — never a traceback, never a clean audit."""
    import json

    events = json.loads(json.dumps(q10_trace))
    ships = [e for e in events if e["kind"] == "ship" and e.get("payload")]
    target = next(
        node
        for node in (_first_node(e["payload"], wanted) for e in ships)
        if node is not None
    )
    target[key] = value
    trace = tmp_path / "tampered.jsonl"
    trace.write_text("".join(json.dumps(e) + "\n" for e in events))
    assert main(["audit", str(trace), "--set", "CR"]) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, captured.err
    assert "Traceback" not in captured.err + captured.out
    assert message in errors[0]
    assert errors[0].startswith("error: event ") and " (query 1, " in errors[0]


def test_audit_with_policy_file(tmp_path, capsys):
    trace = tmp_path / "q3.jsonl"
    assert main(
        ["run", "Q3", "--scale", "0.001", "--trace", str(trace)]
    ) == 0
    capsys.readouterr()
    # A policy file granting nothing: every cross-border ship violates.
    policies = tmp_path / "strict.policies"
    policies.write_text("# deny-all: no ship expressions\n")
    assert main(["audit", str(trace), "--policies", str(policies)]) == 4
    capsys.readouterr()
    # The curated CR set, exported and re-imported, audits clean.
    assert main(["policies", "--set", "CR"]) == 0
    exported = capsys.readouterr().out
    allow = tmp_path / "cr.policies"
    allow.write_text(exported)
    assert main(["audit", str(trace), "--policies", str(allow)]) == 0
    assert "COMPLIANT" in capsys.readouterr().out


def test_audit_policies_flag_requires_trace_file(tmp_path, capsys):
    policies = tmp_path / "p.policies"
    policies.write_text("")
    assert main(["audit", "Q3", "--policies", str(policies)]) == 1
    assert "--policies requires a trace file" in capsys.readouterr().err


def test_serve_trace_flag_records_workload(tmp_path, capsys):
    workload = tmp_path / "workload.json"
    workload.write_text('[{"query": "Q3", "arrival": 0.0}]')
    trace = tmp_path / "serve.jsonl"
    assert main(
        ["serve", str(workload), "--scale", "0.001", "--trace", str(trace)]
    ) == 0
    capsys.readouterr()
    assert trace.exists()
    assert main(["audit", str(trace)]) == 0
    assert "audit: COMPLIANT" in capsys.readouterr().out


REPLICA_SPEC = "db1.customer@NorthAmerica;db1.orders@NorthAmerica"


def test_run_with_replicas_and_audit_roundtrip(tmp_path, capsys):
    """A faulted replicated run serves (exit 0) and audits clean when
    the auditor re-registers the same replicas; omitting the spec or
    auditing under policies that do not admit the replica exits 4."""
    trace = tmp_path / "replicas.jsonl"
    assert main(
        [
            "run", "Q3", "--scale", "0.001", "--set", "T",
            "--replicas", REPLICA_SPEC, "--result-location", "Europe",
            "--faults", "flaky:NorthAmerica->Europe@0+0.05",
            "--retries", "6", "--trace", str(trace),
        ]
    ) == 0
    capsys.readouterr()
    assert main(["audit", str(trace), "--set", "T", "--replicas", REPLICA_SPEC]) == 0
    assert "COMPLIANT" in capsys.readouterr().out
    # Fail-closed: no spec -> the replica read is a displaced scan.
    assert main(["audit", str(trace), "--set", "T"]) == 4
    assert "displaced-scan" in capsys.readouterr().out
    # Registered but ungranted under CR -> the dedicated category.
    assert main(["audit", str(trace), "--set", "CR", "--replicas", REPLICA_SPEC]) == 4
    assert "non-compliant-replica" in capsys.readouterr().out


def test_run_replica_failover_summary_line(capsys):
    """Crashing the collapsed plan's site surfaces the replica-failover
    counters on the CLI (exit 0, not a partial failure)."""
    spec = REPLICA_SPEC + ";db4.lineitem@Europe"
    assert main(
        [
            "run", "Q3", "--scale", "0.001", "--set", "T",
            "--replicas", spec, "--faults", "crash:Europe@0", "--retries", "6",
        ]
    ) == 0
    captured = capsys.readouterr()
    out = captured.out + captured.err  # run diagnostics go to stderr
    assert "failover (replica):" in out
    assert "replica failovers: 1" in out
    assert "1 partial failures avoided" in out


def test_bad_replica_spec_exit_code(capsys):
    assert main(["explain", "Q3", "--set", "T", "--replicas", "customer@X"]) == 1


STALE_REPLICAS = "db1.customer@NorthAmerica+0.5;db1.orders@NorthAmerica+0.5"


def test_run_with_freshness_and_audit_exit_code_matrix(tmp_path, capsys):
    """One stale replicated run, three audits: same specs re-derive ->
    exit 0; staleness evidence without --replicas fails closed -> exit
    1; a tighter audit-side bound flags the served reads -> exit 4."""
    trace = tmp_path / "freshness.jsonl"
    assert main(
        [
            "run", "Q3", "--scale", "0.001", "--set", "T",
            "--replicas", STALE_REPLICAS, "--result-location", "Europe",
            "--staleness-policy", "read-stale", "--trace", str(trace),
        ]
    ) == 0
    err = capsys.readouterr().err
    assert "freshness (read-stale" in err
    assert "2 replica reads" in err
    assert "2 stale" in err
    # The same replica spec: every claim re-derives exactly.
    assert (
        main(["audit", str(trace), "--set", "T", "--replicas", STALE_REPLICAS])
        == 0
    )
    out = capsys.readouterr().out
    assert "COMPLIANT" in out
    assert "2 replica reads" in out
    # Fail-closed: freshness evidence without the replica spec is an
    # audit *error* (exit 1), never a clean report.
    assert main(["audit", str(trace), "--set", "T"]) == 1
    assert "--replicas" in capsys.readouterr().err
    # A tighter audit-side bound flags the served stale reads.
    assert (
        main(
            [
                "audit", str(trace), "--set", "T",
                "--replicas", STALE_REPLICAS, "--max-staleness", "0.2",
            ]
        )
        == 4
    )
    assert "stale-read" in capsys.readouterr().out


def test_bad_refresh_spec_exit_code(capsys):
    assert (
        main(
            [
                "run", "Q1", "--set", "T", "--replicas", REPLICA_SPEC,
                "--refresh", "warp:db1.customer@NorthAmerica@0.1",
            ]
        )
        == 1
    )
    assert "unknown refresh event kind" in capsys.readouterr().err
