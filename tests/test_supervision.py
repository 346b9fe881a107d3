"""Worker supervision, retry policy, and chaos harness (DESIGN.md §12).

Four layers, cheapest first:

* :class:`RetryPolicy` is a pure value object — its schedule, jitter
  determinism, and ``run`` driver are tested with fake clocks;
* the chaos spec grammar (``parse_chaos``) round-trips and rejects;
* :class:`WorkerSupervisor` is driven entirely with fake processes and
  a fake clock, so crash/hang detection, warmup budgets, stale-attempt
  drops, kill escalation, and degrade-vs-abort are deterministic;
* the chaos matrix runs real :class:`ParallelRun` pools with injected
  worker faults and asserts the headline property — retries on means
  output identical to a fault-free run — plus the CLI contract: exit
  codes 5 (terminal worker failure), 3 (degraded), 130 (interrupted,
  durable state kept for ``--resume``).
"""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.parallel import ParallelRun, WorkerFailure
from repro.parallel.supervision import (
    _DEAD_WORKER_GRACE_S,
    _TERMINATE_GRACE_S,
    _WARMUP_FACTOR,
    WorkerSupervisor,
)
from repro.robustness import ErrorPolicy
from repro.robustness.crash import (
    ANY_ATTEMPT,
    ChaosSpecError,
    WorkerFaultMode,
    parse_chaos,
)
from repro.robustness.retry import RetryExhausted, RetryPolicy
from tests.conftest import RowCollector


# ---------------------------------------------------------------------------
# RetryPolicy: pure schedule


class TestRetryPolicy:
    def test_allows_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert [policy.allows(n) for n in range(-1, 4)] == [
            False, True, True, True, False,
        ]

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay_before(0) == 0.0
        assert RetryPolicy().delay_before(-1) == 0.0

    def test_zero_jitter_is_exact_geometric_backoff(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=30.0,
            jitter=0.0,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.8]

    def test_backoff_clamps_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=1.0, multiplier=10.0, max_delay_s=5.0,
            jitter=0.0,
        )
        assert policy.delays() == [1.0, 5.0, 5.0, 5.0, 5.0]

    def test_jitter_stays_within_fractional_spread(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay_s=0.1, multiplier=2.0, max_delay_s=5.0,
            jitter=0.25,
        )
        for attempt in range(1, policy.max_attempts):
            nominal = min(0.1 * 2.0 ** (attempt - 1), 5.0)
            delay = policy.delay_before(attempt, key=7)
            assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_jitter_is_deterministic_per_seed_and_key(self):
        policy = RetryPolicy(max_attempts=6, seed=5)
        twin = RetryPolicy(max_attempts=6, seed=5)
        assert policy.delays(key=1) == twin.delays(key=1)
        # Different keys (shards) and seeds decorrelate the schedule.
        assert policy.delays(key=1) != policy.delays(key=2)
        assert policy.delays(key=1) != RetryPolicy(max_attempts=6, seed=6).delays(key=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_run_returns_after_transient_failures(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, jitter=0.0)
        result = policy.run(flaky, sleep=sleeps.append)
        assert result == "ok"
        assert len(calls) == 3
        assert sleeps == [0.1, 0.2]  # backoff before attempts 1 and 2

    def test_run_raises_exhausted_with_the_last_failure_chained(self):
        policy = RetryPolicy(max_attempts=2, jitter=0.0)

        def always():
            raise OSError("still down")

        with pytest.raises(RetryExhausted) as info:
            policy.run(always, sleep=lambda delay: None)
        assert info.value.attempts == 2
        assert isinstance(info.value.__cause__, OSError)

    def test_run_stops_at_the_deadline(self):
        clock = FakeClock()

        def failing():
            clock.advance(40.0)  # each attempt burns 40s of fake time
            raise OSError("slow failure")

        policy = RetryPolicy(max_attempts=10, jitter=0.0, deadline_s=50.0)
        attempts = []
        with pytest.raises(RetryExhausted):
            policy.run(
                failing,
                clock=clock,
                sleep=lambda delay: None,
                on_retry=lambda attempt, exc: attempts.append(attempt),
            )
        # 40s, then 80s > deadline: two attempts, not ten.
        assert attempts == [0, 1]

    def test_run_does_not_catch_unlisted_exceptions(self):
        policy = RetryPolicy(max_attempts=5)

        def typed():
            raise KeyError("not retryable here")

        with pytest.raises(KeyError):
            policy.run(typed, retry_on=(OSError,), sleep=lambda delay: None)


# ---------------------------------------------------------------------------
# Chaos spec grammar


class TestParseChaos:
    def test_full_grammar(self):
        faults = parse_chaos(
            "crash-hard:worker=1:after=2500;"
            "hang:worker=0:after=100:attempt=any;"
            "slow:worker=3:after=0:delay=0.01:for=500;"
            "garbage-message:worker=2:after=7:attempt=2"
        )
        assert [f.mode for f in faults] == [
            WorkerFaultMode.CRASH_HARD,
            WorkerFaultMode.HANG,
            WorkerFaultMode.SLOW,
            WorkerFaultMode.GARBAGE,
        ]
        assert (faults[0].worker, faults[0].after, faults[0].attempt) == (1, 2500, 0)
        assert faults[1].attempt == ANY_ATTEMPT
        assert (faults[2].delay_s, faults[2].records) == (0.01, 500)
        assert faults[3].attempt == 2

    def test_attempt_defaults_to_first_incarnation_only(self):
        fault = parse_chaos("crash-hard:worker=1")[0]
        assert fault.arms(1, 0)
        assert not fault.arms(1, 1)  # the respawn replays clean
        assert not fault.arms(0, 0)

    def test_empty_clauses_ignored(self):
        assert parse_chaos("; ;crash-hard:worker=0;") != []
        assert parse_chaos("") == []

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("sploink:worker=1", "unknown fault mode"),
            ("crash-hard", "needs worker="),
            ("crash-hard:after=5", "needs worker="),
            ("hang:worker=1:oops", "malformed fault param"),
            ("hang:worker=1:color=red", "unknown fault param"),
            ("hang:worker=banana", "bad fault param"),
            ("slow:worker=1:delay=fast", "bad fault param"),
        ],
    )
    def test_rejects_bad_specs(self, spec, message):
        with pytest.raises(ChaosSpecError, match=message):
            parse_chaos(spec)


# ---------------------------------------------------------------------------
# WorkerSupervisor: fake processes, fake clock


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeProcess:
    def __init__(self) -> None:
        self.exitcode: int | None = None
        self.terminated = False
        self.killed = False

    def terminate(self) -> None:
        self.terminated = True

    def kill(self) -> None:
        self.killed = True
        self.exitcode = -9

    def join(self, timeout: float | None = None) -> None:
        pass

    def is_alive(self) -> bool:
        return self.exitcode is None


def make_supervisor(**overrides):
    clock = FakeClock()
    spawned: list[tuple[int, int, FakeProcess]] = []
    sleeps: list[float] = []

    def spawn(worker_id: int, attempt: int) -> FakeProcess:
        process = FakeProcess()
        spawned.append((worker_id, attempt, process))
        return process

    kwargs = dict(
        workers=2,
        spawn=spawn,
        retry=RetryPolicy(max_attempts=3, jitter=0.0),
        worker_timeout=10.0,
        clock=clock,
        sleep=sleeps.append,
    )
    kwargs.update(overrides)
    supervisor = WorkerSupervisor(**kwargs)
    supervisor.start()
    return supervisor, clock, spawned, sleeps


class TestWorkerSupervisor:
    def test_crash_respawns_after_the_dead_grace(self):
        supervisor, clock, spawned, sleeps = make_supervisor()
        spawned[0][2].exitcode = 87
        supervisor.poll()  # first sighting only starts the grace clock
        assert len(spawned) == 2
        clock.advance(_DEAD_WORKER_GRACE_S)
        supervisor.poll()
        assert [(w, a) for w, a, _ in spawned] == [(0, 0), (1, 0), (0, 1)]
        assert supervisor.restarts == 1
        assert sleeps == [0.1]  # backoff before the respawn

    def test_heartbeats_keep_a_worker_alive(self):
        supervisor, clock, spawned, _ = make_supervisor()
        supervisor.accept(0, 0, "batch")  # warmed
        for _ in range(5):
            clock.advance(8.0)
            assert supervisor.accept(0, 0, "hb")
            supervisor.poll()
        assert len(spawned) == 2  # never silent past the budget
        assert supervisor.heartbeat_gaps == 0

    def test_hang_kills_and_respawns_a_warmed_worker(self):
        supervisor, clock, spawned, _ = make_supervisor()
        supervisor.accept(0, 0, "batch")
        clock.advance(10.1)
        supervisor.poll()
        assert spawned[0][2].terminated  # TERM first; flush-friendly
        assert not spawned[0][2].killed  # escalation waits for the grace
        assert [(w, a) for w, a, _ in spawned] == [(0, 0), (1, 0), (0, 1)]
        assert supervisor.heartbeat_gaps == 1

    def test_unwarmed_worker_gets_the_warmup_budget(self):
        supervisor, clock, spawned, _ = make_supervisor()
        clock.advance(10.0 * _WARMUP_FACTOR - 0.1)
        supervisor.poll()
        assert len(spawned) == 2  # still rebuilding its engine: not hung
        clock.advance(0.2)
        supervisor.poll()
        assert len(spawned) == 4  # both shards past even the long fuse

    def test_kill_escalates_to_sigkill_after_the_grace(self):
        supervisor, clock, spawned, _ = make_supervisor()
        supervisor.accept(0, 0, "batch")
        clock.advance(10.1)
        supervisor.poll()
        stuck = spawned[0][2]
        assert stuck.terminated and not stuck.killed
        clock.advance(_TERMINATE_GRACE_S + 0.1)
        supervisor.poll()
        assert stuck.killed

    def test_polite_death_is_never_escalated(self):
        supervisor, clock, spawned, _ = make_supervisor()
        supervisor.accept(0, 0, "batch")
        clock.advance(10.1)
        supervisor.poll()
        spawned[0][2].exitcode = 143  # flushed and died to the TERM
        clock.advance(_TERMINATE_GRACE_S + 0.1)
        supervisor.poll()
        assert not spawned[0][2].killed

    def test_stale_attempt_messages_are_dropped(self):
        supervisor, clock, spawned, _ = make_supervisor()
        self._fail(supervisor, clock, spawned[0][2], 87)
        assert not supervisor.accept(0, 0, "batch")  # the dead incarnation
        assert supervisor.accept(0, 1, "batch")  # its replacement
        assert not supervisor.accept(7, 0, "batch")  # unknown worker id
        assert supervisor.accept(1, 0, "batch")

    def _fail(self, supervisor, clock, process, exitcode):
        """Kill one fake incarnation and poll through the dead grace."""
        process.exitcode = exitcode
        supervisor.poll()  # first sighting starts the grace clock
        clock.advance(_DEAD_WORKER_GRACE_S)
        supervisor.poll()

    def test_retries_exhausted_aborts_with_worker_failure(self):
        supervisor, clock, spawned, _ = make_supervisor(
            retry=RetryPolicy(max_attempts=2, jitter=0.0)
        )
        self._fail(supervisor, clock, spawned[0][2], 1)  # attempt 1 spawned
        assert supervisor.restarts == 1
        spawned[-1][2].exitcode = 1
        supervisor.poll()
        clock.advance(_DEAD_WORKER_GRACE_S)
        with pytest.raises(WorkerFailure, match="worker 0 .* 2 attempt"):
            supervisor.poll()

    def test_retry_none_means_first_fault_is_terminal(self):
        supervisor, clock, spawned, _ = make_supervisor(retry=None)
        spawned[1][2].exitcode = 9
        supervisor.poll()
        clock.advance(_DEAD_WORKER_GRACE_S)
        with pytest.raises(WorkerFailure, match="worker 1 exited with code 9"):
            supervisor.poll()

    def test_degrade_marks_the_shard_lost_and_finishes(self):
        supervisor, clock, spawned, _ = make_supervisor(
            retry=None, on_failure="degrade"
        )
        self._fail(supervisor, clock, spawned[0][2], 9)
        assert supervisor.failed_ids == [0]
        assert not supervisor.finished
        supervisor.mark_done(1)
        assert supervisor.finished
        # A written-off shard never respawns, even if polled again.
        clock.advance(60.0)
        supervisor.poll()
        assert [(w, a) for w, a, _ in spawned] == [(0, 0), (1, 0)]

    def test_done_workers_are_not_supervised(self):
        supervisor, clock, spawned, _ = make_supervisor()
        supervisor.mark_done(0)
        spawned[0][2].exitcode = 0
        clock.advance(60.0)
        supervisor.poll()  # exited after done: normal, not a crash
        assert len(spawned) == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="on_failure"):
            make_supervisor(on_failure="shrug")
        with pytest.raises(ValueError, match="worker_timeout"):
            make_supervisor(worker_timeout=0.0)


# ---------------------------------------------------------------------------
# Chaos matrix: real pools, injected faults


@pytest.fixture(scope="module")
def chaos_trace(tmp_path_factory, rbn_trace):
    from repro.http.log import write_log

    stream = io.StringIO()
    write_log(rbn_trace.http[:1500], stream)
    path = tmp_path_factory.mktemp("chaostrace") / "trace.tsv"
    path.write_text(stream.getvalue())
    return str(path)


def _pool_rows(pipeline, path, *, chaos=None, retry="on", on_failure="abort",
               worker_timeout=0.5):
    sink = RowCollector()
    outcome = ParallelRun(
        workers=2,
        input_path=path,
        pipeline=pipeline,  # forked: engine inherited
        on_error=ErrorPolicy.SKIP,
        sink=sink,
        worker_timeout=worker_timeout,
        retry=RetryPolicy(max_attempts=3, jitter=0.0) if retry == "on" else None,
        on_worker_failure=on_failure,
        chaos=chaos,
    ).run()
    return sink.rows, outcome


@pytest.fixture(scope="module")
def baseline_rows(pipeline, chaos_trace):
    rows, outcome = _pool_rows(pipeline, chaos_trace)
    assert outcome.worker_restarts == 0
    return rows


# Faults fire at record 700 of ~1500 — mid-shard, before the first row
# batch has flushed, so hang detection exercises the warmup fuse
# (worker_timeout * warmup factor = 5s here, kept short on purpose).
_MATRIX = [
    ("crash-hard:worker=1:after=700", WorkerFaultMode.CRASH_HARD),
    ("hang:worker=1:after=700", WorkerFaultMode.HANG),
    ("slow:worker=1:after=700:delay=0.002:for=300", WorkerFaultMode.SLOW),
    ("garbage-message:worker=1:after=700", WorkerFaultMode.GARBAGE),
]


class TestChaosMatrix:
    @pytest.mark.slow
    @pytest.mark.parametrize("spec, mode", _MATRIX, ids=[m.value for _, m in _MATRIX])
    def test_with_retries_output_is_identical(
        self, pipeline, chaos_trace, baseline_rows, spec, mode
    ):
        rows, outcome = _pool_rows(pipeline, chaos_trace, chaos=spec)
        assert rows == baseline_rows
        if mode is WorkerFaultMode.SLOW:
            assert outcome.worker_restarts == 0  # slow is not a fault
        else:
            assert outcome.worker_restarts >= 1
            assert outcome.health.worker_restarts == outcome.worker_restarts

    @pytest.mark.slow
    @pytest.mark.parametrize("spec, mode", _MATRIX, ids=[m.value for _, m in _MATRIX])
    def test_without_retries_faults_are_terminal(
        self, pipeline, chaos_trace, baseline_rows, spec, mode
    ):
        if mode is WorkerFaultMode.SLOW:
            rows, _ = _pool_rows(pipeline, chaos_trace, chaos=spec, retry="off")
            assert rows == baseline_rows  # slow never faults: still identical
            return
        with pytest.raises(WorkerFailure, match="worker 1"):
            _pool_rows(pipeline, chaos_trace, chaos=spec, retry="off")

    @pytest.mark.slow
    def test_permanent_fault_degrades_to_a_partial_prefix(
        self, pipeline, chaos_trace, baseline_rows
    ):
        rows, outcome = _pool_rows(
            pipeline,
            chaos_trace,
            chaos="crash-hard:worker=1:after=700:attempt=any",
            on_failure="degrade",
        )
        assert outcome.degraded_shards == [1]
        assert outcome.health.shards_degraded == 1
        assert outcome.health.degraded
        assert "shards degraded" in outcome.health.summary()
        # Honest partial result: a strict prefix of the real output.
        assert len(rows) < len(baseline_rows)
        assert rows == baseline_rows[: len(rows)]

    def test_unknown_failure_policy_rejected_at_construction(self, pipeline):
        with pytest.raises(ValueError, match="on_worker_failure"):
            ParallelRun(
                workers=2,
                input_path="unused.tsv",
                pipeline=pipeline,
                on_worker_failure="panic",
            )


# ---------------------------------------------------------------------------
# CLI contract: exit codes and durable interruption


_ECO = ["--publishers", "80", "--eco-seed", "99"]


def _cli(args, cwd, *, env_extra=None, **popen):
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH")) if part
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=600,
        **popen,
    )


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("supervisiontrace")
    trace = tmp / "trace.tsv"
    proc = _cli(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0002", "--out", str(trace)],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    return trace


def _classify_args(trace, out, ckpt, *extra):
    return [
        "classify", *_ECO, "--trace", str(trace), "--out", str(out),
        "--checkpoint-dir", str(ckpt), "--checkpoint-every", "2000",
        "--workers", "4", "--worker-timeout", "4", *extra,
    ]


@pytest.fixture(scope="module")
def cli_golden(tmp_path_factory, cli_trace):
    tmp = tmp_path_factory.mktemp("supervisiongolden")
    out = tmp / "golden.tsv"
    proc = _cli(_classify_args(cli_trace, out, tmp / "ckpt"), tmp)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.slow
class TestSupervisionCli:
    def test_chaos_run_is_byte_identical_to_fault_free(
        self, tmp_path, cli_trace, cli_golden
    ):
        """The acceptance property: crash + hang mid-shard, retries on,
        and the published output does not change by one byte."""
        out = tmp_path / "out.tsv"
        proc = _cli(
            _classify_args(cli_trace, out, tmp_path / "ckpt"),
            tmp_path,
            env_extra={
                "REPRO_CHAOS": "crash-hard:worker=1:after=2500;hang:worker=2:after=3500"
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == cli_golden
        assert "worker restarts:   2" in proc.stdout
        assert "retrying shard" in proc.stdout

    def test_retries_disabled_worker_failure_exits_5(self, tmp_path, cli_trace):
        out = tmp_path / "out.tsv"
        proc = _cli(
            _classify_args(cli_trace, out, tmp_path / "ckpt", "--worker-retries", "0"),
            tmp_path,
            env_extra={"REPRO_CHAOS": "crash-hard:worker=1:after=2500"},
        )
        assert proc.returncode == 5, proc.stdout + proc.stderr
        assert "worker 1 exited" in proc.stderr
        assert not out.exists()

    def test_permanent_fault_with_degrade_exits_3(self, tmp_path, cli_trace):
        out = tmp_path / "out.tsv"
        proc = _cli(
            _classify_args(
                cli_trace, out, tmp_path / "ckpt",
                "--worker-retries", "1", "--on-worker-failure", "degrade",
            ),
            tmp_path,
            env_extra={"REPRO_CHAOS": "crash-hard:worker=1:after=2500:attempt=any"},
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "shards degraded" in proc.stdout
        # Degraded durable runs never publish: the .part staging file and
        # checkpoints survive so a later clean --resume can finish the job.
        assert not out.exists()
        assert (tmp_path / "ckpt" / "output.part").exists()

    def test_sigint_exits_130_and_resume_completes(
        self, tmp_path, cli_trace, cli_golden
    ):
        out = tmp_path / "out.tsv"
        ckpt = tmp_path / "ckpt"
        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (repo_src, env.get("PYTHONPATH")) if part
        )
        # Worker 0 crawls so the run is still going when the signal lands.
        env["REPRO_CHAOS"] = "slow:worker=0:after=1:delay=0.003:for=1000000"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli",
             *_classify_args(cli_trace, out, ckpt)],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if ckpt.is_dir() and any(
                    name.startswith("ckpt-") and name.endswith(".bin")
                    for name in os.listdir(ckpt)
                ):
                    break
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.2)
            else:
                pytest.fail("no checkpoint appeared within 120s")
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stdout + stderr
        assert "durable state kept" in stderr
        assert not out.exists()
        assert (ckpt / "output.part").exists()
        resumed = _cli(
            _classify_args(cli_trace, out, ckpt, "--resume"), tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from checkpoint" in resumed.stdout
        assert out.read_bytes() == cli_golden


@pytest.fixture(scope="module")
def damaged_serial(tmp_path_factory, cli_trace):
    """A damaged trace and what a plain serial run makes of it under
    ``--on-error quarantine``: output, sidecar and health summary."""
    tmp = tmp_path_factory.mktemp("supervisiondamaged")
    damaged = tmp / "damaged.tsv"
    proc = _cli(
        ["corrupt", "--trace", str(cli_trace), "--out", str(damaged),
         "--rate", "0.05", "--seed", "7"],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    out, sidecar = tmp / "serial.tsv", tmp / "serial.quar"
    proc = _cli(
        ["classify", *_ECO, "--trace", str(damaged), "--out", str(out),
         "--on-error", "quarantine", "--quarantine-out", str(sidecar)],
        tmp,
    )
    assert proc.returncode == 3, proc.stderr
    return damaged, out.read_bytes(), sidecar.read_bytes(), _health_summary(proc.stdout)


def _health_summary(stdout: str) -> str:
    """The printed health summary without the supervision lines, which
    only a run with faults prints."""
    summary = stdout[stdout.index("-- pipeline health --"):]
    return "".join(
        line for line in summary.splitlines(keepends=True)
        if not line.startswith(("worker restarts:", "heartbeat gaps:"))
    )


@pytest.mark.slow
@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
@pytest.mark.parametrize(
    "spec", ["crash-hard:worker=0:after=2500", "hang:worker=0:after=3500"],
    ids=["crash-hard", "hang"],
)
def test_fault_in_the_reporting_shard_on_a_damaged_trace(
    tmp_path, damaged_serial, spec, durable
):
    """Shard 0 reports every rejected line.  Its respawn replays them —
    from the top, or from the last saved generation — and the parent's
    sidecar watermark drops the repeats: output, sidecar and health
    summary are the serial run's."""
    damaged, serial_out, serial_sidecar, serial_health = damaged_serial
    out, sidecar = tmp_path / "out.tsv", tmp_path / "out.quar"
    args = [
        "classify", *_ECO, "--trace", str(damaged), "--out", str(out),
        "--on-error", "quarantine", "--quarantine-out", str(sidecar),
        "--workers", "4", "--worker-timeout", "4",
    ]
    if durable:
        args += ["--checkpoint-dir", str(tmp_path / "ckpt"), "--checkpoint-every", "2000"]
    proc = _cli(args, tmp_path, env_extra={"REPRO_CHAOS": spec})
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "worker restarts:   1" in proc.stdout
    assert out.read_bytes() == serial_out
    assert sidecar.read_bytes() == serial_sidecar
    assert _health_summary(proc.stdout) == serial_health
