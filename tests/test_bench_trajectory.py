"""Schema of ``BENCH_perf.json``, the benchmark's trajectory.

Each row is one side of one PR's alternating-pair measurement of one
``benchmarks/perf/run.py`` workload: the medians of the end-to-end
metrics the prose of that measurement states, the throughput IQR and
the pair count where it states them (``null`` where it does not).
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIELDS = {"pr", "commit", "session", "host", "workload", "side", "medians", "iqr", "pairs", "correct"}
METRICS = {"throughput_rps", "peak_rss_mib", "setup_s"}


def _rows() -> list[dict]:
    return json.loads((ROOT / "BENCH_perf.json").read_text(encoding="utf-8"))


def _workloads() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {workload["name"] for workload in spec["workloads"]}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0


def _problems(row: dict, workloads: set[str]) -> list[str]:
    problems = []
    if set(row) != FIELDS:
        problems.append(f"fields {sorted(set(row) ^ FIELDS)}")
    if not isinstance(row.get("pr"), int) or row["pr"] < 1:
        problems.append("pr")
    for name in ("commit", "session", "host"):
        if not isinstance(row.get(name), str) or not row[name]:
            problems.append(name)
    if row.get("workload") not in workloads:
        problems.append("workload")
    if row.get("side") not in ("parent", "change"):
        problems.append("side")
    for name in ("medians", "iqr"):
        value = row.get(name)
        if name == "iqr" and value is None:
            continue
        if not isinstance(value, dict) or not value or not set(value) <= METRICS:
            problems.append(name)
        elif not all(_is_number(v) for v in value.values()):
            problems.append(f"{name} values")
    pairs = row.get("pairs")
    if pairs is not None and (not isinstance(pairs, int) or pairs < 1):
        problems.append("pairs")
    if not isinstance(row.get("correct"), bool):
        problems.append("correct")
    return problems


def test_every_row_has_the_schema():
    workloads = _workloads()
    bad = {}
    for index, row in enumerate(_rows()):
        problems = _problems(row, workloads)
        if problems:
            bad[index] = problems
    assert bad == {}


def test_pr_workload_side_is_unique():
    keys = [(row["pr"], row["workload"], row["side"]) for row in _rows()]
    assert len(keys) == len(set(keys))


def test_each_measurement_has_both_sides():
    keys = {(row["pr"], row["workload"], row["side"]) for row in _rows()}
    for pr, workload, side in keys:
        other = "change" if side == "parent" else "parent"
        assert (pr, workload, other) in keys, (pr, workload)
