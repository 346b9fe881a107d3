"""Parallel == serial, byte for byte (DESIGN.md §10).

``repro classify --workers N`` promises output byte-identical to the
serial path.  These tests enforce it three ways:

* hypothesis properties drive the library-level :class:`ParallelRun`
  against the serial pipeline over randomly corrupted traces and
  random worker counts, comparing classification rows, the quarantine
  sidecar, and the health summary;
* strict mode must abort on the same line either way;
* a subprocess suite hard-kills ``--workers 4`` durable runs mid-fold
  and asserts the resumed output is byte-identical to both the
  uninterrupted parallel run and the serial durable run.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.log import write_log
from repro.parallel import ParallelRun, WorkerFailure
from repro.robustness import (
    CRASH_EXIT_CODE,
    ErrorPolicy,
    LogParseError,
    PipelineHealth,
    QuarantineWriter,
)
from repro.robustness.runstate import classification_row
from repro.trace.corruption import TraceCorruptor
from tests.conftest import RowCollector


# ---------------------------------------------------------------------------
# Library level: serial vs ParallelRun


@pytest.fixture(scope="module")
def trace_text(rbn_trace):
    stream = io.StringIO()
    write_log(rbn_trace.http[:1500], stream)
    return stream.getvalue()


def _serial_classify(pipeline, path, policy, reorder_window):
    health = PipelineHealth()
    sidecar = io.BytesIO()
    quarantine = (
        QuarantineWriter(sidecar) if policy is ErrorPolicy.QUARANTINE else None
    )
    from repro.http.log import read_log

    with open(path) as stream:
        records = list(
            read_log(stream, on_error=policy, health=health, quarantine=quarantine)
        )
    entries = pipeline.process(records, health=health, reorder_window=reorder_window)
    rows = [classification_row(entry) for entry in entries]
    return rows, sidecar.getvalue(), health.summary()


def _parallel_classify(pipeline, path, policy, reorder_window, workers):
    sink = RowCollector()
    sidecar = path + ".quarantine"
    outcome = ParallelRun(
        workers=workers,
        input_path=path,
        # Workers fork from the test process, so the compiled session
        # pipeline is inherited — no per-example engine rebuild.
        pipeline_factory=lambda: pipeline,
        on_error=policy,
        quarantine_path=sidecar,
        reorder_window=reorder_window,
        sink=sink,
    ).run()
    quarantined = b""
    if policy is ErrorPolicy.QUARANTINE:
        with open(sidecar, "rb") as stream:
            quarantined = stream.read()
    return sink.rows, quarantined, outcome.health.summary()


@settings(max_examples=6, deadline=None)
@given(
    workers=st.sampled_from([2, 4]),
    policy=st.sampled_from([ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE]),
    rate=st.sampled_from([0.0, 0.03, 0.1]),
    jitter_s=st.sampled_from([0.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_parallel_output_is_byte_identical(
    pipeline, trace_text, workers, policy, rate, jitter_s, seed
):
    corruptor = TraceCorruptor(rate=rate, jitter_s=jitter_s, seed=seed)
    reorder_window = 5.0 if jitter_s else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.tsv")
        with open(path, "w") as stream:  # staticcheck: ok[RC001] test scratch file
            stream.write(corruptor.corrupt_text(trace_text))
        serial = _serial_classify(pipeline, path, policy, reorder_window)
        parallel = _parallel_classify(pipeline, path, policy, reorder_window, workers)
    assert parallel[0] == serial[0]  # classification rows, in order
    assert parallel[1] == serial[1]  # quarantine sidecar bytes
    assert parallel[2] == serial[2]  # health summary text


@settings(max_examples=4, deadline=None)
@given(workers=st.sampled_from([2, 3]), seed=st.integers(min_value=0, max_value=2**16))
def test_strict_mode_aborts_on_the_same_line(pipeline, trace_text, workers, seed):
    corruptor = TraceCorruptor(rate=0.05, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.tsv")
        with open(path, "w") as stream:  # staticcheck: ok[RC001] test scratch file
            stream.write(corruptor.corrupt_text(trace_text))
        with pytest.raises(LogParseError) as serial_abort:
            _serial_classify(pipeline, path, ErrorPolicy.STRICT, None)
        with pytest.raises(LogParseError) as parallel_abort:
            _parallel_classify(pipeline, path, ErrorPolicy.STRICT, None, workers)
    assert parallel_abort.value.line_no == serial_abort.value.line_no
    assert parallel_abort.value.reason == serial_abort.value.reason


def test_single_worker_pool_matches_serial(pipeline, trace_text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.tsv")
        with open(path, "w") as stream:  # staticcheck: ok[RC001] test scratch file
            stream.write(trace_text)
        serial = _serial_classify(pipeline, path, ErrorPolicy.STRICT, None)
        parallel = _parallel_classify(pipeline, path, ErrorPolicy.STRICT, None, 1)
    assert parallel == serial


def test_missing_input_raises_in_the_parent(pipeline, tmp_path):
    with pytest.raises(FileNotFoundError):
        ParallelRun(
            workers=2,
            input_path=str(tmp_path / "nope.tsv"),
            pipeline_factory=lambda: pipeline,
        ).run()


def test_worker_crash_surfaces_as_failure(pipeline, trace_text, tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text(trace_text)

    def exploding_factory():
        raise RuntimeError("engine rebuild failed")

    with pytest.raises(WorkerFailure, match="engine rebuild failed"):
        ParallelRun(
            workers=2,
            input_path=str(path),
            pipeline_factory=exploding_factory,
        ).run()


# ---------------------------------------------------------------------------
# Subprocess: hard kill (os._exit) + resume with a 4-worker pool


_ECO = ["--publishers", "80", "--eco-seed", "99"]


def _cli(args, cwd):
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=600,
    )


def _health_summary(stdout: str) -> str:
    marker = "-- pipeline health --"
    assert marker in stdout
    return stdout[stdout.index(marker):]


@pytest.fixture(scope="module")
def pool_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pooltrace")
    clean = tmp / "trace.tsv"
    proc = _cli(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0002", "--out", str(clean)],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    dirty = tmp / "dirty.tsv"
    proc = _cli(
        ["corrupt", "--trace", str(clean), "--out", str(dirty), "--rate", "0.05",
         "--seed", "3"],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    return dirty


def _classify_args(trace, out, ckpt_dir, *extra):
    return [
        "classify", *_ECO, "--trace", str(trace), "--out", str(out),
        "--on-error", "quarantine", "--quarantine-out", str(out) + ".quarantine",
        "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "2000", *extra,
    ]


class TestPoolCrashRecoveryCli:
    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory, pool_trace):
        """Serial durable output — the parallel pool must match it."""
        tmp = tmp_path_factory.mktemp("poolgolden")
        out = tmp / "golden.tsv"
        proc = _cli(_classify_args(pool_trace, out, tmp / "ckpt"), tmp)
        assert proc.returncode in (0, 3), proc.stderr
        return (
            out.read_bytes(),
            (tmp / "golden.tsv.quarantine").read_bytes(),
            _health_summary(proc.stdout),
        )

    def test_uninterrupted_pool_matches_serial(self, tmp_path, pool_trace, golden):
        out = tmp_path / "out.tsv"
        proc = _cli(
            _classify_args(pool_trace, out, tmp_path / "ckpt", "--workers", "4"),
            tmp_path,
        )
        assert proc.returncode in (0, 3), proc.stderr
        assert out.read_bytes() == golden[0]
        assert (tmp_path / "out.tsv.quarantine").read_bytes() == golden[1]
        assert _health_summary(proc.stdout) == golden[2]

    @pytest.mark.parametrize("workers", [None, 4])
    def test_no_decision_cache_matches_cached_golden(
        self, tmp_path, pool_trace, golden, workers
    ):
        """--no-decision-cache changes speed, never bytes (DESIGN.md §11)."""
        out = tmp_path / "out.tsv"
        extra = ["--no-decision-cache"]
        if workers is not None:
            extra += ["--workers", str(workers)]
        proc = _cli(_classify_args(pool_trace, out, tmp_path / "ckpt", *extra), tmp_path)
        assert proc.returncode in (0, 3), proc.stderr
        assert out.read_bytes() == golden[0]
        assert (tmp_path / "out.tsv.quarantine").read_bytes() == golden[1]
        assert _health_summary(proc.stdout) == golden[2]
        assert "-- decision cache --" not in proc.stdout

    @pytest.mark.parametrize("crash_after", [3000, 9000])
    def test_hard_kill_and_resume_with_4_workers(
        self, tmp_path, pool_trace, golden, crash_after
    ):
        golden_out, golden_quarantine, golden_health = golden
        out = tmp_path / "out.tsv"
        crashed = _cli(
            _classify_args(pool_trace, out, tmp_path / "ckpt",
                           "--workers", "4", "--crash-after", str(crash_after)),
            tmp_path,
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        assert not out.exists()  # crashed runs never publish final outputs
        resumed = _cli(
            _classify_args(pool_trace, out, tmp_path / "ckpt",
                           "--workers", "4", "--resume"),
            tmp_path,
        )
        assert resumed.returncode in (0, 3), resumed.stderr
        assert "resuming from checkpoint" in resumed.stdout
        assert out.read_bytes() == golden_out
        assert (tmp_path / "out.tsv.quarantine").read_bytes() == golden_quarantine
        assert _health_summary(resumed.stdout) == golden_health

    def test_resume_with_different_worker_count_exits_4(self, tmp_path, pool_trace):
        out = tmp_path / "out.tsv"
        crashed = _cli(
            _classify_args(pool_trace, out, tmp_path / "ckpt",
                           "--workers", "4", "--crash-after", "3000"),
            tmp_path,
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        proc = _cli(
            _classify_args(pool_trace, out, tmp_path / "ckpt",
                           "--workers", "2", "--resume"),
            tmp_path,
        )
        assert proc.returncode == 4
        assert "manifest mismatch" in proc.stderr
        assert "workers" in proc.stderr
