"""End-to-end ``repro serve`` subprocess contract, plus --health-format.

These are the operator-facing guarantees: the daemon comes up with a
parseable banner, answers classifications over a real socket, reloads
on SIGHUP and ``POST /-/reload``, drains cleanly on SIGTERM (exit 0) /
SIGINT (exit 130), and startup failures map onto the repo's exit-code
table (2 missing input, 1 refused list).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection

import pytest

pytestmark = pytest.mark.slow  # every test here drives the CLI in a subprocess

LIST_V1 = "||ads.example.com^\n/banner/*\n@@||good.example.com^\n"
LIST_V2 = LIST_V1 + "||tracker.example.net^\n"


def _env(**extra):
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH")) if part
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra)
    return env


def _serve(args, cwd, **extra_env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
        cwd=str(cwd), env=_env(**extra_env),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _await_banner(proc) -> int:
    line = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    assert match, f"no banner: {line!r} / {proc.stderr.read() if proc.poll() is not None else ''}"
    return int(match.group(1))


def _request(port, method, path, body=None):
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _finish(proc, signum=signal.SIGTERM, timeout=60):
    proc.send_signal(signum)
    try:
        return proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


class TestServeCli:
    def test_serve_classify_reload_drain(self, tmp_path):
        list_path = tmp_path / "list.txt"
        list_path.write_text(LIST_V1)
        proc = _serve(["--lists", str(list_path)], tmp_path)
        try:
            port = _await_banner(proc)
            status, doc = _request(port, "GET", "/readyz")
            assert (status, doc) == (200, {"ready": True})

            url = "http://tracker.example.net/pixel.js"
            status, doc = _request(
                port, "POST", "/classify", json.dumps({"url": url})
            )
            assert status == 200 and not doc["result"]["is_ad"]

            # Rewrite the list on disk; POST /-/reload picks it up.
            list_path.write_text(LIST_V2)
            status, outcome = _request(port, "POST", "/-/reload")
            assert status == 200 and outcome["status"] == "swapped"
            status, doc = _request(
                port, "POST", "/classify", json.dumps({"url": url})
            )
            assert doc["result"]["is_blacklisted"]
            assert doc["generation"] == 2

            # SIGHUP is the signal spelling of the same reload (noop now).
            # Poll for the booked *outcome*, not `attempted`: attempted is
            # incremented before the off-thread rebuild finishes, so an
            # attempted-based poll can observe the in-flight window.
            proc.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, metrics = _request(port, "GET", "/metrics")
                if metrics["reload"]["noop"] >= 1:
                    break
                time.sleep(0.05)
            assert metrics["reload"]["attempted"] >= 2
            assert metrics["reload"]["noop"] >= 1
            assert metrics["serve"]["served"] == metrics["serve"]["accepted"]
        finally:
            stdout, stderr = _finish(proc)
        assert proc.returncode == 0, stdout + stderr
        assert "drain complete" in stdout

    def test_sigint_drains_with_exit_130(self, tmp_path):
        list_path = tmp_path / "list.txt"
        list_path.write_text(LIST_V1)
        proc = _serve(["--lists", str(list_path)], tmp_path)
        try:
            port = _await_banner(proc)
            status, _ = _request(port, "GET", "/healthz")
            assert status == 200
        finally:
            stdout, stderr = _finish(proc, signal.SIGINT)
        assert proc.returncode == 130, stdout + stderr

    def test_missing_list_exits_2(self, tmp_path):
        proc = _serve(["--lists", str(tmp_path / "no-such.txt")], tmp_path)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2, stdout + stderr
        assert "not found" in stderr

    def test_refused_list_exits_1(self, tmp_path):
        list_path = tmp_path / "bad.txt"
        list_path.write_text("/(a+)+x/$script\n")  # catastrophic backtracking
        proc = _serve(["--lists", str(list_path)], tmp_path)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1, stdout + stderr
        assert "could not build engine" in stderr


class TestHealthFormatJson:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("healthjson")
        trace = tmp / "trace.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", "--publishers", "60",
             "--eco-seed", "7", "--preset", "rbn2", "--scale", "0.0001",
             "--out", str(trace)],
            env=_env(), capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return trace

    def test_classify_health_json(self, tmp_path, trace):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "classify", "--publishers", "60",
             "--eco-seed", "7", "--trace", str(trace),
             "--health-format", "json"],
            env=_env(), cwd=str(tmp_path), capture_output=True, text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        # The JSON document is the last thing printed; find its start.
        start = proc.stdout.index("{\n")
        doc = json.loads(proc.stdout[start:])
        assert doc["records_seen"] == doc["records_ok"] > 0
        assert doc["degraded"] is False
        assert "cache" in doc and "supervision" in doc
        assert doc["cache"]["lookups"] >= doc["records_seen"]
        assert doc["cache"]["hits"] + doc["cache"]["misses"] == doc["cache"]["lookups"]

    def test_report_health_json(self, tmp_path, trace):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "report", "--publishers", "60",
             "--eco-seed", "7", "--trace", str(trace),
             "--health-format", "json"],
            env=_env(), cwd=str(tmp_path), capture_output=True, text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        start = proc.stdout.index("{\n")
        doc = json.loads(proc.stdout[start:])
        assert doc["records_seen"] > 0
