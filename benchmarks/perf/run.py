#!/usr/bin/env python3
"""The repo's one benchmark: classify, pool, engine start-up and serve.

    python3 benchmarks/perf/run.py --workload rbn2_bin --seed 7 --seconds 18 --trace 0

generates the workload's inputs from ``--seed`` (set-up, timed), drives
the CLI / daemon as subprocesses, checks every output against a
reference, and prints one JSON object as the last line
of stdout: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``, the traced pass).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from e2e import REPS, program_env, run_batch, run_serve  # noqa: E402
from inputs import INPUTS_READY  # noqa: E402
from stats import spread, summarize  # noqa: E402
from workloads import POOL_WORKERS, SERVE_BATCH, SERVE_CONNECTIONS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 20151028
LOAD_WARNING = 0.5


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name")), "")
    except OSError:
        pass
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "load_avg_1m": os.getloadavg()[0],
        "git_commit": commit or "not a git checkout",
    }


def set_up(workload: str, seed: int, work: str) -> tuple[dict, float]:
    """Generate the inputs; return (manifest, seconds).

    Generation runs in a child with ``PYTHONHASHSEED=0``: the trace
    generator does not reproduce its bytes under another hash seed.  The
    clock runs from spawn to the child's ``inputs ready`` line; the
    reference outputs it writes after that line are not set-up.
    """
    env = program_env(SRC)
    env["PYTHONHASHSEED"] = "0"
    shutil.rmtree(work, ignore_errors=True)
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "inputs.py"),
         "--workload", workload, "--seed", str(seed), "--out", work],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    assert child.stdout is not None
    ready = child.stdout.readline()
    seconds = time.perf_counter() - started
    child.stdout.read()
    if child.wait() != 0 or ready.strip() != INPUTS_READY:
        raise RuntimeError(f"{workload}: input generation failed")
    with open(os.path.join(work, "manifest.json")) as stream:
        return json.load(stream), seconds


def run_one(contract: dict, name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run of one workload; returns the full result document."""
    workload = WORKLOADS[name]
    host = host_facts()
    if host["load_avg_1m"] > LOAD_WARNING:
        print(f"warning: 1-minute load average {host['load_avg_1m']:.2f} > {LOAD_WARNING}", file=sys.stderr)
    work = os.path.join(OUT, "work", f"{name}-{seed}")
    os.makedirs(os.path.dirname(work), exist_ok=True)
    manifest, setup_s = set_up(name, seed, work)
    env = program_env(SRC)
    if traced:
        from layers import run_traced

        result = run_traced(workload, seed, work, env, seconds, OUT)
        wanted = contract["per_layer"]
    else:
        if workload.kind == "batch":
            result = run_batch(workload, seed, work, env)
        else:
            result = run_serve(workload, seed, work, env, seconds)
        result.samples["setup_s"] = summarize([setup_s])
        wanted = contract["end_to_end"]

    # A run reports the median of the samples it took of each metric.
    values = {metric: sample["median"] for metric, sample in result.samples.items()}
    values.update(result.metrics)
    unknown = set(values) - {metric["name"] for metric in wanted}
    if unknown:
        raise RuntimeError(f"{name}: BENCHMARK.json does not list {sorted(unknown)}")
    correct = not result.problems
    metrics = {}
    if correct:  # no metric is reported for a run that failed a check
        for metric in wanted:
            if metric["name"] not in values and not traced:
                raise RuntimeError(f"{name}: metric {metric['name']} was not measured")
            # A layer that does no work on this workload was not timed: 0.
            metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        shutil.rmtree(work)
    else:
        print(f"{name}: a check failed; inputs and outputs kept in {work}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "problems": result.problems,
        "samples": result.samples,
        "facts": result.facts,
        "inputs": manifest,
        "protocol": {
            "repetitions": REPS,
            "serve_window_s": seconds / REPS,
            "serve_connections": SERVE_CONNECTIONS,
            "pool_workers": POOL_WORKERS,
            "serve_batch": SERVE_BATCH,
        },
        "host": host,
    }


def check_inputs_repeat(first: list[dict], second: list[dict]) -> list[str]:
    """A/A runs share their seeds, so their generated files must hash the same."""
    return [
        f"{a['workload']} seed {a['seed']}: two set-ups wrote different bytes"
        for a, b in zip(first, second)
        if a["inputs"]["sha256"] != b["inputs"]["sha256"]
        or a["inputs"]["engine_fingerprint"] != b["inputs"]["engine_fingerprint"]
    ]


def print_human(document: dict) -> None:
    print(f"== {document['workload']} seed={document['seed']} trace={document['trace']} "
          f"records={document['inputs']['records']} filters={document['inputs']['filters']}")
    for problem in document["problems"]:
        print(f"   FAILED CHECK: {problem}")
    for name, metric in document["metrics"].items():
        sample = document["samples"].get(name)
        extra = (f"   (n={sample['samples']}, median {sample['median']:.6g}, "
                 f"range {sample['min']:.6g}..{sample['max']:.6g})"
                 if sample and sample["samples"] > 1 else "")
        print(f"   {name:40s} {metric['value']:14.6g} {metric['unit']}{extra}")
    print(f"   operations={document['attempted']} failed={document['failed']}")


def contract_line(document: dict) -> str:
    return json.dumps({key: document[key] for key in ("correct", "attempted", "failed", "metrics")})


def spread_table(contract: dict, documents: list[dict]) -> list[dict]:
    """Per (workload, end-to-end metric): median and quartile spread over the runs."""
    rows = []
    for metric in contract["end_to_end"]:
        for name in dict.fromkeys(d["workload"] for d in documents):
            values = [d["metrics"][metric["name"]]["value"] for d in documents
                      if d["workload"] == name and d["correct"]]
            if values:
                rows.append({"workload": name, "metric": metric["name"], "runs": len(values),
                             "median": statistics.median(values), "spread": spread(values),
                             "bound": metric["bound"]})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="serve load windows in total; batch commands repeat a fixed number "
                             "of times (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, per-layer metrics instead of end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...; prints the spread table")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: run --repeat runs twice; the inputs must hash the same and the "
                             "two sets are compared with compare.py's rule")
    parser.add_argument("--json-out", help="write every run's full result document to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"error: the program under test is not at {SRC}/repro", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    # The build: byte-compile the program once so no timed start-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "repro")], check=True)
    os.makedirs(OUT, exist_ok=True)

    sets: list[list[dict]] = []
    for _ in range(2 if args.selfcheck else 1):
        documents = []
        for name in args.workload:
            for offset in range(args.repeat):
                document = run_one(contract, name, args.seed + offset, seconds, bool(args.trace))
                documents.append(document)
                print_human(document)
                with open(os.path.join(OUT, f"last_{name}_trace{args.trace}.json"), "w") as stream:
                    json.dump(document, stream, indent=1)
                print(contract_line(document), flush=True)
        sets.append(documents)

    everything = [document for documents in sets for document in documents]
    if args.json_out:
        with open(args.json_out, "w") as stream:
            json.dump({"runs": everything}, stream, indent=1)
    status = 0 if all(document["correct"] for document in everything) else 1
    if not args.trace and (args.repeat > 1 or args.selfcheck):
        for index, documents in enumerate(sets):
            print(f"-- spread over {args.repeat} runs, set {index + 1}")
            for row in spread_table(contract, documents):
                flag = "" if row["spread"] <= row["bound"] / 3 else ("  > bound/3" if row["spread"] <= row["bound"] else "  > BOUND")
                print(f"   {row['workload']:20s} {row['metric']:16s} median {row['median']:12.6g} "
                      f"spread {row['spread']:.3f} bound {row['bound']}{flag}")
    if args.selfcheck:
        from compare import compare_runs, render

        for problem in check_inputs_repeat(*sets):
            print(f"FAILED CHECK: {problem}", file=sys.stderr)
            status = 1
        rows = compare_runs(contract, sets[0], sets[1])
        print(render(rows))
        if any(row["verdict"] == "worse" for row in rows):
            status = 1
    if len(everything) > 1:
        # The contract line of the last run stays the last line of stdout.
        print(contract_line(everything[-1]))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
