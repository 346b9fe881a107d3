"""Exit-code contract of the CLI, serial and parallel.

The robustness layer reserves one exit code per failure class (see
``repro.robustness.health``): 0 clean, 1 strict abort / usage errors,
2 missing input, 3 degraded, 4 manifest mismatch, 87 injected crash.
These subprocess tests pin the codes AND the stderr diagnostics, so a
refactor cannot silently turn "input file not found" into a traceback
— in particular on the ``--workers`` paths, where the error first
surfaces inside a forked worker and must still come back out as the
same clean diagnostic.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exitcodes import EXIT_MANIFEST_MISMATCH, EXIT_MISSING_INPUT, EXIT_STRICT_ABORT

_ECO = ["--publishers", "80", "--eco-seed", "99"]


def _env():
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH")) if part
    )
    return env


def _cli(args, cwd, *, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=_env(), capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.slow
@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("command", ["classify", "report"])
def test_missing_input_exits_2(tmp_path, command, workers):
    args = [command, *_ECO, "--trace", str(tmp_path / "absent.tsv"), "--on-error", "quarantine"]
    if command == "classify":
        args += ["--out", str(tmp_path / "out.tsv")]
    if workers is not None:
        args += ["--workers", str(workers)]
    proc = _cli(args, tmp_path)
    assert proc.returncode == EXIT_MISSING_INPUT, proc.stderr
    assert "error: input file not found" in proc.stderr
    assert "absent.tsv" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []  # no sidecar, no .part file


@pytest.mark.slow
def test_convert_of_a_missing_input_leaves_no_sidecar(tmp_path):
    proc = _cli(
        ["convert", "--trace", str(tmp_path / "absent.tsv"), "--out", str(tmp_path / "o.bin"),
         "--on-error", "quarantine"],
        tmp_path,
    )
    assert proc.returncode == EXIT_MISSING_INPUT, proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
@pytest.mark.parametrize(
    "args, message",
    [
        (["classify", "--trace", "t.tsv", "--bogus"], "unrecognized arguments: --bogus"),
        (["classify", *_ECO], "the following arguments are required: --trace"),
        (["lint", "--self"], "unrecognized arguments: --self"),
    ],
    ids=["unknown-flag", "missing-required-flag", "lint-self"],
)
def test_usage_errors_exit_1(tmp_path, args, message):
    """1, not argparse's 2: a script must tell a typo from a missing input."""
    proc = _cli(args, tmp_path)
    assert proc.returncode == EXIT_STRICT_ABORT, proc.stderr
    assert message in proc.stderr
    assert "usage: repro" in proc.stderr


@pytest.mark.slow
def test_resume_without_manifest_exits_4(tmp_path, trace_file):
    (tmp_path / "ckpt").mkdir()
    proc = _cli(
        ["classify", *_ECO, "--trace", str(trace_file),
         "--out", str(tmp_path / "out.tsv"),
         "--checkpoint-dir", str(tmp_path / "ckpt"), "--resume"],
        tmp_path,
    )
    assert proc.returncode == EXIT_MANIFEST_MISMATCH, proc.stderr
    assert "nothing to resume" in proc.stderr


@pytest.mark.slow
@pytest.mark.parametrize("workers", [None, 2])
def test_negative_checkpoint_every_is_a_usage_error(tmp_path, trace_file, workers):
    """Refused before the run makes its checkpoint directory, serial and
    pooled alike: not a traceback once it has, nor a pool run that
    silently never checkpoints."""
    args = ["classify", *_ECO, "--trace", str(trace_file), "--out", str(tmp_path / "out.tsv"),
            "--checkpoint-dir", str(tmp_path / "ckpt"), "--checkpoint-every", "-3"]
    if workers is not None:
        args += ["--workers", str(workers)]
    proc = _cli(args, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "error: --checkpoint-every must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "ckpt").exists()
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.slow
def test_workers_zero_is_a_usage_error(tmp_path, trace_file):
    proc = _cli(
        ["classify", *_ECO, "--trace", str(trace_file),
         "--out", str(tmp_path / "out.tsv"), "--workers", "0"],
        tmp_path,
    )
    assert proc.returncode == 1
    assert "--workers" in proc.stderr


@pytest.mark.slow
@pytest.mark.parametrize(
    "args, message",
    [
        (["trace", "--publishers", "0"], "--publishers must be >= 1"),
        (["trace", "--publishers", "-3"], "--publishers must be >= 1"),
        (["trace", "--scale", "0"], "--scale must be > 0"),
        (["trace", "--scale", "-1"], "--scale must be > 0"),
        (["crawl", "--publishers", "0"], "--publishers must be >= 1"),
        (["crawl", "--sites", "0"], "--sites must be >= 1"),
        (["classify", "--publishers", "0"], "--publishers must be >= 1"),
        (["compile-lists", "--publishers", "0"], "--publishers must be >= 1"),
        (["compile-lists", "--publishers", "-3"], "--publishers must be >= 1"),
        (["serve", "--publishers", "0"], "--publishers must be >= 1"),
    ],
    ids=["trace-publishers-0", "trace-publishers-negative", "trace-scale-0",
         "trace-scale-negative", "crawl-publishers-0", "crawl-sites-0", "classify-publishers-0",
         "compile-lists-publishers-0", "compile-lists-publishers-negative",
         "serve-publishers-0"],
)
def test_bad_generator_sizes_are_usage_errors(tmp_path, trace_file, args, message):
    """Refused before anything is written: not an IndexError traceback,
    nor a clamped 10-household trace or an all-zero Table 1 with exit 0."""
    command = args[0]
    if command == "trace":
        args = [*args, "--out", str(tmp_path / "t.tsv"), "--tls-out", str(tmp_path / "tls.tsv")]
    elif command == "classify":
        args = [*args, "--trace", str(trace_file), "--out", str(tmp_path / "out.tsv"),
                "--checkpoint-dir", str(tmp_path / "ckpt")]
    elif command == "compile-lists":
        args = [*args, "--out", str(tmp_path / "x.snap")]
    elif command == "serve":
        args = [*args, "--port", "0"]  # a daemon that started would serve until the timeout
    proc = _cli(args, tmp_path, timeout=120)
    assert proc.returncode == EXIT_STRICT_ABORT, proc.stdout + proc.stderr
    assert proc.stderr.strip() == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_workers_without_fork_is_a_usage_error(monkeypatch, tmp_path):
    """Workers inherit the parent's pipeline through fork; a platform
    without it gets a diagnostic up front, not a failing pool."""
    import multiprocessing

    from repro.cli import main

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(SystemExit, match="'fork' start method"):
        main(["classify", *_ECO, "--trace", str(tmp_path / "absent.tsv"), "--workers", "2"])


@pytest.mark.slow
def test_report_refuses_durable_parallel(tmp_path, trace_file):
    proc = _cli(
        ["report", *_ECO, "--trace", str(trace_file),
         "--workers", "2", "--checkpoint-dir", str(tmp_path / "ckpt")],
        tmp_path,
    )
    assert proc.returncode == 1
    assert "only supported for classify" in proc.stderr


@pytest.mark.slow
@pytest.mark.parametrize("workers", [None, 2])
def test_strict_abort_exits_1_with_line_diagnostic(tmp_path, trace_file, workers):
    dirty = tmp_path / "dirty.tsv"
    proc = _cli(
        ["corrupt", "--trace", str(trace_file), "--out", str(dirty),
         "--rate", "0.05", "--seed", "3"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out_dir = tmp_path / "published"
    out_dir.mkdir()
    args = ["classify", *_ECO, "--trace", str(dirty),
            "--out", str(out_dir / "out.tsv"), "--on-error", "strict"]
    if workers is not None:
        args += ["--workers", str(workers)]
    proc = _cli(args, tmp_path)
    assert proc.returncode == EXIT_STRICT_ABORT, proc.stderr
    assert "malformed input at" in proc.stderr
    assert "--on-error skip|quarantine" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(out_dir) == []  # neither --out nor its .part staging file


# ---------------------------------------------------------------------------
# A failed plain (no --checkpoint-dir) run publishes nothing and leaves
# nothing: neither --out nor its .part staging file (the strict abort
# above included).  A durable run keeps output.part on purpose —
# tests/test_supervision.py.

_DYING_POOL = ["--workers", "2", "--worker-timeout", "4", "--worker-retries", "0",
               "--chaos", "crash-hard:worker=1:after=500"]


@pytest.mark.parametrize(
    "extra, code, message",
    [
        pytest.param([], 5, "worker 1 exited", id="worker-failure"),
        pytest.param(["--on-worker-failure", "degrade"], 3,
                     "output is a partial prefix", id="degraded-pool"),
    ],
)
@pytest.mark.slow
def test_failed_plain_pool_run_leaves_no_output(tmp_path, trace_file, extra, code, message):
    out_dir = tmp_path / "published"
    out_dir.mkdir()
    proc = _cli(
        ["classify", *_ECO, "--trace", str(trace_file),
         "--out", str(out_dir / "out.tsv"), *_DYING_POOL, *extra],
        tmp_path,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert message in proc.stdout + proc.stderr
    assert os.listdir(out_dir) == []


@pytest.mark.slow
@pytest.mark.parametrize("workers", [None, 2])
def test_interrupted_plain_run_exits_130_and_leaves_no_output(
    tmp_path, trace_file, workers
):
    out_dir = tmp_path / "published"
    out_dir.mkdir()
    args = ["classify", *_ECO, "--trace", str(trace_file),
            "--out", str(out_dir / "out.tsv")]
    if workers is not None:
        args += ["--workers", str(workers)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(tmp_path), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # The staging file appears when the run loop is entered.
        deadline = time.monotonic() + 120.0
        while not os.listdir(out_dir):
            assert proc.poll() is None, proc.communicate()[1]
            assert time.monotonic() < deadline, "run never opened its output"
            time.sleep(0.002)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, stdout + stderr
    assert "interrupted" in stderr
    assert os.listdir(out_dir) == []


def test_plain_sink_close_removes_a_staging_file_it_kept_no_handle_to(tmp_path):
    """The test above flaked about once in fifteen runs: ^C could land in
    ``ClassifySink.begin`` after ``open()`` had created ``out.tsv.part``
    and before the handle was kept, and ``close()`` then removed nothing."""
    from repro.robustness.runstate import ClassifySink

    sink = ClassifySink(final_path=str(tmp_path / "out.tsv"))
    (tmp_path / "out.tsv.part").write_bytes(b"")  # where the interrupted begin() leaves things
    sink.close()
    assert os.listdir(tmp_path) == []
    sink.close()  # and again, as after a publish: nothing to remove, no error


@pytest.mark.slow
def test_usage_health_format_json_ends_in_the_health_document(tmp_path, trace_file):
    args = ["usage", *_ECO, "--trace", str(trace_file),
            "--tls", str(trace_file.with_name("tls.tsv")), "--min-requests", "50"]
    plain = _cli(args, tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert "paper Table 3" in plain.stdout
    assert "\n{" not in plain.stdout  # a clean text-mode run prints no summary

    proc = _cli([*args, "--health-format", "json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(plain.stdout)
    health = json.loads(proc.stdout[len(plain.stdout):])
    assert health["records_ok"] > 0


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exitcodes")
    path = tmp / "trace.tsv"
    proc = _cli(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0001",
         "--out", str(path), "--tls-out", str(tmp / "tls.tsv")],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snapshot")
    path = tmp / "engine.snap"
    proc = _cli(["compile-lists", *_ECO, "--out", str(path)], tmp)
    assert proc.returncode == 0, proc.stderr
    assert "wrote snapshot" in proc.stdout
    return path


@pytest.mark.slow
class TestSnapshotExitCodes:
    """Snapshot failure classes: 2 missing, 4 identity, 6 damage,
    0 under --snapshot-policy rebuild (see README exit-code table)."""

    def _classify(self, tmp_path, trace_file, *extra):
        return _cli(
            ["classify", *_ECO, "--trace", str(trace_file),
             "--out", str(tmp_path / "out.tsv"), *extra],
            tmp_path,
        )

    def test_snapshot_run_is_byte_identical(self, tmp_path, trace_file, snapshot_file):
        base = self._classify(tmp_path, trace_file)
        assert base.returncode == 0, base.stderr
        baseline = (tmp_path / "out.tsv").read_bytes()
        proc = self._classify(tmp_path, trace_file, "--engine-snapshot", str(snapshot_file))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.tsv").read_bytes() == baseline

    def test_matcher_flag_is_gone(self, tmp_path, trace_file):
        proc = self._classify(tmp_path, trace_file, "--matcher", "actrie")
        assert proc.returncode == EXIT_STRICT_ABORT
        assert "unrecognized arguments: --matcher" in proc.stderr

    def test_corrupt_snapshot_exits_6(self, tmp_path, trace_file, snapshot_file):
        from repro.exitcodes import EXIT_SNAPSHOT_INVALID
        from repro.trace.corruption import ByteCorruptor

        damaged = tmp_path / "damaged.snap"
        ByteCorruptor().corrupt_file(str(snapshot_file), str(damaged), "bitflip")
        proc = self._classify(tmp_path, trace_file, "--engine-snapshot", str(damaged))
        assert proc.returncode == EXIT_SNAPSHOT_INVALID, proc.stderr
        assert "checksum mismatch" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_corrupt_snapshot_rebuild_policy_recovers(
        self, tmp_path, trace_file, snapshot_file
    ):
        from repro.trace.corruption import ByteCorruptor

        damaged = tmp_path / "damaged2.snap"
        ByteCorruptor().corrupt_file(str(snapshot_file), str(damaged), "truncate")
        proc = self._classify(
            tmp_path, trace_file,
            "--engine-snapshot", str(damaged), "--snapshot-policy", "rebuild",
        )
        assert proc.returncode == 0, proc.stderr
        assert "rebuilding" in proc.stderr

    def test_missing_snapshot_exits_2(self, tmp_path, trace_file):
        proc = self._classify(
            tmp_path, trace_file, "--engine-snapshot", str(tmp_path / "absent.snap")
        )
        assert proc.returncode == EXIT_MISSING_INPUT, proc.stderr
        assert "absent.snap" in proc.stderr

    def test_durable_run_pins_snapshot_identity(self, tmp_path, trace_file):
        """A snapshot compiled from *different* lists than the manifest
        records is an identity violation: exit 4, like any manifest
        mismatch — never silently classified with the wrong engine."""
        self._assert_snapshot_identity_pinned(tmp_path, trace_file)

    def test_durable_pool_run_pins_snapshot_identity(self, tmp_path, trace_file):
        """The pool resolves its engine the way a serial run does."""
        self._assert_snapshot_identity_pinned(tmp_path, trace_file, "--workers", "2")

    def test_pool_rebuilds_a_corrupt_snapshot_once(self, tmp_path, trace_file, snapshot_file):
        from repro.trace.corruption import ByteCorruptor

        base = self._classify(tmp_path, trace_file)
        assert base.returncode == 0, base.stderr
        baseline = (tmp_path / "out.tsv").read_bytes()
        damaged = tmp_path / "damaged3.snap"
        ByteCorruptor().corrupt_file(str(snapshot_file), str(damaged), "truncate")
        proc = self._classify(
            tmp_path, trace_file, "--workers", "2",
            "--engine-snapshot", str(damaged), "--snapshot-policy", "rebuild",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("rebuilding") == 1
        assert (tmp_path / "out.tsv").read_bytes() == baseline

    def _assert_snapshot_identity_pinned(self, tmp_path, trace_file, *extra):
        wrong = tmp_path / "wrong.snap"
        proc = _cli(
            ["compile-lists", "--publishers", "80", "--eco-seed", "7",
             "--out", str(wrong)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        (tmp_path / "ckpt").mkdir()
        proc = self._classify(
            tmp_path, trace_file,
            "--engine-snapshot", str(wrong),
            "--checkpoint-dir", str(tmp_path / "ckpt"), *extra,
        )
        assert proc.returncode == EXIT_MANIFEST_MISMATCH, proc.stderr
        assert "fingerprint" in proc.stderr
        assert "Traceback" not in proc.stderr
