"""Serial durable runs exit 130 on SIGINT/SIGTERM with resumable state.

The parallel pool learned this contract in the supervision PR
(tests/test_supervision.py); these subprocess tests hold the *serial*
durable path to the same one: the signal lands between records, a
final checkpoint is cut, ``output.part`` and the checkpoint survive,
and ``--resume`` finishes the run byte-identical to an uninterrupted
one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.robustness import CheckpointStore

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


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=_env(), capture_output=True, text=True, timeout=600,
    )


def _classify_args(trace, out, ckpt, checkpoint_every=500):
    # checkpoint-every is small so the first checkpoint lands early in
    # the ~2s serial run, leaving a wide window for the signal.
    return [
        "classify", *_ECO, "--trace", str(trace), "--out", str(out),
        "--checkpoint-dir", str(ckpt), "--checkpoint-every", str(checkpoint_every),
    ]


@pytest.fixture(scope="module")
def serial_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serialinterrupt")
    trace = tmp / "trace.tsv"
    proc = _cli(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0002", "--out", str(trace)],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    return trace


@pytest.fixture(scope="module")
def serial_golden(tmp_path_factory, serial_trace):
    tmp = tmp_path_factory.mktemp("serialgolden")
    out = tmp / "golden.tsv"
    proc = _cli(_classify_args(serial_trace, out, tmp / "ckpt"), tmp)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def _interrupt_mid_run(tmp_path, serial_trace, signum, checkpoint_every=500):
    """Start a serial durable classify, signal it after the first
    checkpoint, return (proc, stdout, stderr, out, ckpt)."""
    out = tmp_path / "out.tsv"
    ckpt = tmp_path / "ckpt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli",
         *_classify_args(serial_trace, out, ckpt, checkpoint_every)],
        cwd=str(tmp_path), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if ckpt.is_dir() and any(
                name.startswith("ckpt-") for name in os.listdir(ckpt)
            ):
                break
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.005)
        else:
            pytest.fail("no checkpoint appeared within 120s")
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc, stdout, stderr, out, ckpt


class TestSerialInterrupt:
    def test_sigint_exits_130_and_resume_is_byte_identical(
        self, tmp_path, serial_trace, serial_golden
    ):
        proc, stdout, stderr, out, ckpt = _interrupt_mid_run(
            tmp_path, serial_trace, signal.SIGINT
        )
        assert proc.returncode == 130, stdout + stderr
        assert "durable state kept" in stderr
        assert "interrupted between records; checkpoint saved" in stdout
        # Nothing published, everything durable.
        assert not out.exists()
        assert (ckpt / "output.part").exists()
        assert any(name.startswith("ckpt-") for name in os.listdir(ckpt))

        resumed = _cli(
            _classify_args(serial_trace, out, ckpt) + ["--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from checkpoint" in resumed.stdout
        assert out.read_bytes() == serial_golden

    def test_sigterm_exits_130_with_checkpoint_kept(
        self, tmp_path, serial_trace
    ):
        proc, stdout, stderr, out, ckpt = _interrupt_mid_run(
            tmp_path, serial_trace, signal.SIGTERM
        )
        assert proc.returncode == 130, stdout + stderr
        assert "durable state kept" in stderr
        assert not out.exists()
        assert any(name.startswith("ckpt-") for name in os.listdir(ckpt))

    def test_interrupt_on_a_checkpoint_boundary_cuts_one_generation(
        self, tmp_path, serial_trace, serial_golden
    ):
        """With --checkpoint-every 1 every record is a boundary, so the
        signal is certain to land on one.  The periodic cut is then the
        interrupt's cut: a second, identical generation would spend one
        of the three retained slots on a duplicate."""
        proc, stdout, stderr, out, ckpt = _interrupt_mid_run(
            tmp_path, serial_trace, signal.SIGINT, checkpoint_every=1
        )
        assert proc.returncode == 130, stdout + stderr
        store = CheckpointStore(ckpt)
        fed = [store.load(g).payload["records_fed"] for g in store.generations()]
        assert fed and len(set(fed)) == len(fed), fed

        resumed = _cli(
            _classify_args(serial_trace, out, ckpt) + ["--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == serial_golden
