"""``run.py --compare A.json B.json``: did B get worse than A?

Both files come from ``run.py --out``.  For every workload and every
end-to-end metric the two medians are printed with their relative
difference, each side's own run-to-run spread and the metric's bound;
B worse than A by more than the bound is marked and makes the exit code
non-zero, as does a failed check in either file.  When both files ran
one and the same seed, the exact metrics' bound is 0: any worsening is
a regression.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from spec import END_TO_END


def worsening(metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``
    (negative when better; infinite when ``a`` is 0 and ``b`` is not)."""
    change = b - a if metric.better == "lower" else a - b
    if a == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return change / abs(a)


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """The report's lines and the number of regressions."""
    lines, regressions = [], 0
    seeds = set(a["seeds"]) | set(b["seeds"])
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name}: missing from B")
            regressions += 1
            continue
        lines.append(f"== {name}")
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if not entry["correct"]:
                lines.append(f"  {side}: {entry['failed']} of {entry['attempted']} ops FAILED")
                regressions += 1
        for metric in END_TO_END:
            ma, mb = entry_a["metrics"][metric.name], entry_b["metrics"][metric.name]
            worse = worsening(metric, ma["median"], mb["median"])
            bound = 0.0 if metric.bound is None or (metric.exact and len(seeds) == 1) \
                else metric.bound
            over = worse > bound
            regressions += over
            lines.append(
                f"  {metric.name:22s} A={ma['median']:<12.6g} B={mb['median']:<12.6g} "
                f"{metric.unit:5s} worse by {worse:+8.2%} (bound {bound:.0%}; "
                f"spread A {ma['spread']:.2%} B {mb['spread']:.2%})"
                + ("  <-- REGRESSION" if over else "")
            )
    return lines, regressions


def compare_files(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    lines, regressions = compare(a, b)
    print("\n".join(lines))
    print(f"{regressions} regression(s) beyond the bounds")
    return 1 if regressions else 0
