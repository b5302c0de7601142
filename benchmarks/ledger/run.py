#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py                       # all workloads, untraced
    python3 benchmarks/ledger/run.py --traced              # per-layer numbers
    python3 benchmarks/ledger/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/ledger/run.py --smoke               # tiny, P = 1, < 20 s
    python3 benchmarks/ledger/run.py --runs 5 --out A.json   # one seed, five times
    python3 benchmarks/ledger/run.py --compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    from spec import DEFAULT_SEED, RUN_SECONDS, WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--seed-step", type=int, default=0,
                        help="run i uses SEED + i * STEP (0: one seed, and the exact "
                             "metrics must then be identical in every run)")
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    return args


def header(args: argparse.Namespace, record: dict) -> dict:
    """Everything needed to tell two outputs apart."""
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "workload": record["workload"],
        "scales": record["scales"],
        "ops_N": record["ops"],
        "queries": record["queries"],
        "passes_P": record["passes"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "timed_s": round(record["timed_s"], 2),
        # Machine-speed reading and max/min pass wall: they qualify the
        # timings below and are never applied to them.
        "calib_ms": round(record["calib_ms"], 3),
        "pass_spread": round(record["pass_spread"], 3),
    }


def _commit() -> str:
    """The checkout's commit, when it is a git repository (git is not
    asked otherwise: it would look for one in the parent directories)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the metrics and the final
    JSON line.  Re-executes itself once to pin the hash seed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no system under test at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    started = time.perf_counter()
    import repro
    from layers import run_traced
    from measure import OverBudget, run_untraced
    from spec import END_TO_END, PER_LAYER, driver_end_to_end
    from workloads import FULL, SMOKE

    import_s = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent.parent != source:
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    try:
        if args.trace:
            record = run_traced(args.workload, args.seed, args.seconds, sizes, import_s,
                                HERE / "out")
            printed = reported = PER_LAYER
        else:
            record = run_untraced(args.workload, args.seed, args.seconds, sizes)
            printed, reported = END_TO_END, driver_end_to_end()
    except OverBudget as error:
        print(f"error: {error}", file=sys.stderr)
        return 3

    print("# " + json.dumps(header(args, record), sort_keys=True))
    for metric in printed:
        print(f"{metric.name:38s} {record['metrics'][metric.name]:>16.6g} {metric.unit}")
    for label, value in record.get("shares", {}).items():
        print(f"# {label}: {value:.4g}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    final = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m.name: {"value": record["metrics"][m.name], "unit": m.unit} for m in reported
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every selected workload ``--runs`` times, each in a fresh
    subprocess; prints one table and optionally writes ``--out``."""
    from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES

    wanted = PER_LAYER if args.trace else END_TO_END
    seeds = [args.seed + run * args.seed_step for run in range(args.runs)]
    report: dict = {"seeds": seeds, "smoke": args.smoke, "traced": bool(args.trace),
                    "workloads": {}}
    status = 0
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        finals, headers = [], []
        for seed in seeds:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--smoke"] if args.smoke else []),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0:
                status = 1
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                if not lines or not lines[-1].startswith("{"):
                    print(f"{name}: seed {seed} produced no result", file=sys.stderr)
                    continue
            final = json.loads(lines[-1])
            final["metrics"]["failed_share"] = {"value": final["failed"] / final["attempted"]}
            finals.append(final)
            headers.append(json.loads(lines[0][2:]))
            shares = [line for line in lines[1:] if line.startswith("# ")]
        if not finals:
            continue
        metrics = {}
        for metric in wanted:
            values = [f["metrics"][metric.name]["value"] for f in finals]
            metrics[metric.name] = {"unit": metric.unit, "values": values, **summary(values)}
            if metric.exact and args.seed_step == 0 and len(set(values)) > 1:
                status = 1
                print(f"{name}: {metric.name} is exact, yet runs of seed {args.seed} "
                      f"gave {sorted(set(values))}", file=sys.stderr)
        report["workloads"][name] = {
            "header": headers[0],
            "calib_ms": [h["calib_ms"] for h in headers],
            "correct": all(f["correct"] for f in finals),
            "attempted": sum(f["attempted"] for f in finals),
            "failed": sum(f["failed"] for f in finals),
            "metrics": metrics,
        }
        print_workload(name, report["workloads"][name], wanted)
        print("\n".join(f"  {line}" for line in shares))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return status


def summary(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them;
    ``spread`` is the interquartile distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def print_workload(name: str, entry: dict, wanted) -> None:
    head = entry["header"]
    print(f"\n== {name}: N={head['ops_N']} ops ({head['queries']} queries), "
          f"P={head['passes_P']} passes, scales={head['scales']}, seed={head['seed']}, "
          f"commit={head['commit']}, python={head['python']}, nproc={head['nproc']}")
    for metric in wanted:
        m = entry["metrics"][metric.name]
        line = f"  {metric.name:38s} {m['median']:>16.6g} {metric.unit:6s}"
        if len(m["values"]) > 1:
            line += f" q1={m['q1']:.6g} q3={m['q3']:.6g} spread={m['spread']:.2%}"
        print(line)
    print(f"  ({entry['failed']} of {entry['attempted']} ops failed)")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.workload and args.runs == 1 and not args.out:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
