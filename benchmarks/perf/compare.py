#!/usr/bin/env python3
"""Compare two result files of run.py: ``compare.py A.json B.json``.

A is the parent, B the change (for ``run.py --selfcheck`` both are the
same code).  One row per (end-to-end metric, workload): both medians and
quartiles, the relative change counted in the *worse* direction, the
bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``ok``         — B's median is not worse than A's by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — a side's quartile spread is wider than the bound and the
  two sides' runs overlap, so the runs cannot tell unchanged from regressed.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import quartiles, spread  # noqa: E402

__all__ = ["compare_runs", "render", "verdict"]


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of B against A; worsening is a share of A's median."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / median_a
    worsening = -change if better == "higher" else change
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved", worsening
    return ("worse" if worsening > bound else "ok"), worsening


def compare_runs(contract: dict, runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    rows = []
    workloads = list(dict.fromkeys(run["workload"] for run in runs_a))
    for metric in contract["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            a, b = (
                [run["metrics"][name]["value"] for run in runs
                 if run["workload"] == workload and run["correct"] and not run["trace"]]
                for runs in (runs_a, runs_b)
            )
            if not a or not b:
                continue
            outcome, worsening = verdict(a, b, better=metric["better"], bound=metric["bound"])
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"],
                "a": quartiles(a), "b": quartiles(b), "runs": (len(a), len(b)),
                "worsening": worsening, "bound": metric["bound"], "verdict": outcome,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':16s} {'workload':20s} {'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
             f"{'worse by':>9s} {'bound':>6s}  verdict"]
    for row in rows:
        sides = [f"{median:.5g} [{q1:.5g}, {q3:.5g}]" for q1, median, q3 in (row["a"], row["b"])]
        lines.append(f"{row['metric']:16s} {row['workload']:20s} {sides[0]:>36s} {sides[1]:>36s} "
                     f"{row['worsening']:+9.1%} {row['bound']:6.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(os.path.dirname(here)), "BENCHMARK.json")) as stream:
        contract = json.load(stream)
    sides = []
    for path in argv:
        with open(path) as stream:
            sides.append(json.load(stream)["runs"])
    rows = compare_runs(contract, *sides)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
