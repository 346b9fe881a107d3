"""End-to-end measurement: the CLI and the daemon as a user runs them.

Every timed operation is a fresh ``python -m repro ...`` subprocess with
the normal (unpinned) hash seed; nothing is imported from the program
here.  A run takes a fixed number of samples of each operation and
reports their median: a count that grew or shrank with the program's
speed would bias the statistic it feeds.  Outputs are checked against
the references ``inputs.py`` wrote before any value is reported.
"""

from __future__ import annotations

import asyncio
import filecmp
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from inputs import sha256_file
from loadgen import Connection, closed_loop, http_post
from stats import summarize
from workloads import SERVE_BATCH, SERVE_CONNECTIONS, Workload

__all__ = [
    "REPS",
    "CliRun",
    "Daemon",
    "E2EResult",
    "check_cli",
    "program_env",
    "run_batch",
    "run_cli",
    "run_serve",
]

#: Fresh processes per run: three whole ``classify --out`` runs, or three
#: daemons, each loaded for a third of ``--seconds``.  A run reports the
#: median of the three.
REPS = 3
#: A daemon that has not logged its port by then is a failed run.
DAEMON_START_TIMEOUT_S = 60.0


def program_env(src_dir: str) -> dict[str, str]:
    """The program under test sees the source tree and an unpinned hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(slots=True)
class CliRun:
    wall_s: float
    cpu_s: float  # user + system, the process and every descendant it reaped
    max_rss_mib: float  # largest single process among them
    returncode: int
    stdout: str
    stderr: str

    def health(self) -> dict:
        """The ``--health-format json`` document that ends the CLI's stdout."""
        start = self.stdout.find("\n{")
        if start < 0:
            raise ValueError(f"no health document in CLI output: {self.stdout[-200:]!r}")
        return json.loads(self.stdout[start:])


def run_cli(argv: list[str], env: dict[str, str], scratch: str) -> CliRun:
    """Run ``python -m repro <argv>`` to completion and account for it.

    ``os.wait4`` gives this child's own rusage; ``getrusage(RUSAGE_CHILDREN)``
    would keep the high-water mark of every earlier child instead.
    """
    out_path, err_path = os.path.join(scratch, "cli.out"), os.path.join(scratch, "cli.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env, stdout=out, stderr=err
        )
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as out_text:
        stdout = out_text.read()
    with open(err_path, encoding="utf-8", errors="replace") as err_text:
        stderr = err_text.read()
    return CliRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=process.returncode,
        stdout=stdout,
        stderr=stderr,
    )


@dataclass(slots=True)
class E2EResult:
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, dict] = field(default_factory=dict)  # per metric: median, quartiles, range, n
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # any entry: the run is not correct
    facts: dict = field(default_factory=dict)


def engine_args(workload: Workload, seed: int, work: str) -> list[str]:
    if workload.padding_filters:
        return ["--engine-snapshot", os.path.join(work, "engine.snap")]
    return ["--publishers", str(workload.publishers), "--eco-seed", str(seed)]


def check_cli(run: CliRun, what: str, records: int, result: E2EResult) -> None:
    """Book one CLI run: exit code 0 and every input record answered."""
    result.attempted += records
    if run.returncode != 0:
        result.failed += records
        result.problems.append(f"{what}: exit code {run.returncode}: {run.stderr[-300:]}")
        return
    health = run.health()
    lost = health["records_dropped"] + health["records_quarantined"]
    result.failed += lost
    if lost or health["records_ok"] != records:
        result.problems.append(
            f"{what}: {health['records_ok']}/{records} records ok, {lost} dropped or quarantined"
        )


def run_batch(workload: Workload, seed: int, work: str, env: dict[str, str]) -> E2EResult:
    """Serial classify over one stored trace, whole processes."""
    result = E2EResult()
    trace = os.path.join(work, f"trace.{workload.fmt}")
    output = os.path.join(work, "out_serial.tsv")
    base = ["classify", *engine_args(workload, seed, work), "--health-format", "json"]
    serial: list[CliRun] = []
    for _ in range(REPS):
        serial.append(run_cli([*base, "--trace", trace, "--out", output], env, work))
        check_cli(serial[-1], "classify", workload.records, result)
        # Every repetition's output is checked, not only the last one's.
        if not result.problems and not filecmp.cmp(
            output, os.path.join(work, "expected.tsv"), shallow=False
        ):
            result.problems.append("classify output differs from the uncached buckets oracle")

    result.samples = {
        "throughput_rps": summarize([workload.records / run.wall_s for run in serial]),
        "peak_rss_mib": summarize([run.max_rss_mib for run in serial]),
    }
    result.facts["cpu_s"] = summarize([run.cpu_s for run in serial])
    if not result.problems:
        result.facts["output_sha256"] = sha256_file(output)
        result.facts["cache"] = serial[-1].health().get("cache", {})
    return result


class Daemon:
    """One ``repro serve`` subprocess: spawn, wait until it answers, stop."""

    def __init__(self, argv: list[str], env: dict[str, str]) -> None:
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *argv, "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.port = 0

    def wait_port(self) -> None:
        """Block until the daemon logs the port it bound (its first line)."""
        assert self.process.stdout is not None
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("repro serve did not start")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.process.stdout.readline().decode()
            if "serving on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                return

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, wait for the graceful drain, return the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        assert self.process.stdout is not None
        self.process.stdout.close()
        return self.process.returncode


def load_payloads(work: str) -> tuple[list[bytes], list[bytes]]:
    """Single-record and 64-record request payloads, in trace order."""
    with open(os.path.join(work, "requests.jsonl"), "rb") as stream:
        bodies = [line.rstrip(b"\n") for line in stream]
    singles = [http_post("/classify", body) for body in bodies]
    batches = [
        http_post("/classify", b'{"records":[' + b",".join(bodies[i : i + SERVE_BATCH]) + b"]}")
        for i in range(0, len(bodies) - SERVE_BATCH + 1, SERVE_BATCH)
    ]
    return singles, batches


async def verify_replies(port: int, work: str, singles: list[bytes], batches: list[bytes]) -> tuple[int, list[str]]:
    """Sampled replies, as single requests and inside batches, field by field."""
    with open(os.path.join(work, "serve_expected.jsonl")) as stream:
        expected = {row["index"]: row["expected"] for row in map(json.loads, stream)}
    problems: list[str] = []
    sent = 0
    connection = await Connection.open(port)
    try:
        for index, want in expected.items():
            status, body = await connection.roundtrip(singles[index])
            sent += 1
            got = json.loads(body).get("result", {}) if status == 200 else {}
            if any(got.get(key) != value for key, value in want.items()):
                problems.append(f"single reply {index} differs from the oracle: {got} != {want}")
        for batch in sorted({index // SERVE_BATCH for index in expected}):
            status, body = await connection.roundtrip(batches[batch])
            sent += 1
            results = json.loads(body).get("results", []) if status == 200 else []
            for offset in range(SERVE_BATCH):
                want = expected[batch * SERVE_BATCH + offset]
                got = results[offset] if offset < len(results) else {}
                if any(got.get(key) != value for key, value in want.items()):
                    problems.append(f"batch reply {batch}[{offset}] differs from the oracle")
        status, body = await connection.get("/metrics")
        serve = json.loads(body)["serve"] if status == 200 else {}
        if not serve or serve["requests"] != serve["accepted"] + serve["shed"]:
            problems.append(f"serve accounting does not hold: {serve}")
        if serve and (serve["shed"] or serve["timed_out"] or serve["internal_errors"]):
            problems.append(f"daemon shed, timed out or failed requests: {serve}")
    finally:
        await connection.close()
    return sent, problems[:5]


async def first_decision(port: int, payload: bytes) -> int:
    connection = await Connection.open(port)
    try:
        status, _ = await connection.roundtrip(payload)
    finally:
        await connection.close()
    return status


def run_serve(workload: Workload, seed: int, work: str, env: dict[str, str], seconds: float) -> E2EResult:
    """Fresh daemons under closed-loop single-record load."""
    result = E2EResult()
    singles, batches = load_payloads(work)
    samples: dict[str, list[float]] = {"throughput_rps": [], "peak_rss_mib": []}
    requests: list[int] = []
    for cycle in range(REPS):
        daemon = Daemon(engine_args(workload, seed, work), env)
        try:
            daemon.wait_port()
            status = asyncio.run(first_decision(daemon.port, singles[0]))
            result.attempted += 1
            if status != 200:
                result.failed += 1
                result.problems.append(f"first request answered {status}")

            # Every fresh daemon is asked for the same decisions in the same order.
            load = asyncio.run(closed_loop(
                daemon.port, singles, connections=SERVE_CONNECTIONS, seconds=seconds / REPS,
            ))
            result.attempted += load.requests
            result.failed += load.failed
            if load.failed:
                result.problems.append(f"{load.failed} of {load.requests} requests failed")
            samples["throughput_rps"].append(load.per_second)
            requests.append(load.requests)

            if cycle == REPS - 1:
                sent, problems = asyncio.run(verify_replies(daemon.port, work, singles, batches))
                result.attempted += sent
                result.failed += len(problems)
                result.problems.extend(problems)
            samples["peak_rss_mib"].append(daemon.peak_rss_mib())
        finally:
            code = daemon.stop()
        if code != 0:
            result.problems.append(f"repro serve exited with code {code}")
    result.samples = {name: summarize(values) for name, values in samples.items()}
    result.facts["requests_per_window"] = requests
    return result
