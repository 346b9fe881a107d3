"""Repository contracts, each checked as the property itself.

* writes and exits: no write-mode ``open()`` outside the files that own
  crash-atomic publication, and no integer literal at an exit site;
* the README exit-code table lists exactly the public exit codes;
* the ``/metrics`` and ``--health-format json`` key paths equal
  ``tests/metrics_keys.json`` — consumers scrape them, so any change is
  a contract change made on purpose;
* signal handlers do what their docstrings promise and nothing more;
* ``repro trace`` is byte-identical across processes under one
  ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

from repro.exitcodes import EXIT_WORKER_TERMINATED, public_codes
from repro.parallel import worker
from repro.robustness.health import PipelineHealth
from repro.robustness.runstate import InterruptFlag
from repro.serve import EngineHolder, EngineSource, ServeApp, ServeConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

# -- writes and exits --------------------------------------------------------

# The atomic-write primitive, and the two modules whose .part files and
# sidecars stream to disk and are published (or rewound) through it.
_WRITERS = {"robustness/atomic.py", "robustness/runstate.py", "robustness/quarantine.py"}
_EXITS = {("sys", "exit"), ("os", "_exit")}


def _findings(path: pathlib.Path, rel: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func, where = node.func, f"{rel}:{node.lineno}"
        mode = node.args[1] if len(node.args) > 1 else None
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        writes = isinstance(func, ast.Name) and func.id == "open" and (
            isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax+"))
        )
        writes |= isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
        if writes and rel not in _WRITERS:
            found.append(f"{where}: a file write that bypasses robustness/atomic.py")
        is_exit = (isinstance(func, ast.Name) and func.id == "SystemExit") or (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in _EXITS
        )
        literal = node.args[0] if node.args else None
        if is_exit and isinstance(literal, ast.Constant) and type(literal.value) is int:
            found.append(f"{where}: exit code {literal.value} is not a repro.exitcodes name")
    return found


def test_writes_go_through_atomic_and_exits_through_the_registry():
    findings = []
    for path in sorted(PACKAGE.rglob("*.py")):
        findings += _findings(path, path.relative_to(PACKAGE).as_posix())
    assert findings == []


# -- documented and scraped surfaces -----------------------------------------


def test_readme_exit_code_table_lists_exactly_the_public_codes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    documented = [int(code) for code in re.findall(r"^\| \*\*(\d+)\*\* \|", table, re.M)]
    assert sorted(documented) == sorted(public_codes())


def _key_paths(document: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in document.items():
        # stage_errors is keyed by stage name: data, not schema.
        if isinstance(value, dict) and key != "stage_errors":
            paths += _key_paths(value, f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return sorted(paths)


def test_metric_key_paths_equal_the_committed_schema(tmp_path):
    lists = tmp_path / "list.txt"
    lists.write_text("||ads.example.com^\n")
    source = EngineSource(list_paths=[str(lists)])
    app = ServeApp(EngineHolder(source.build(), cache_size=16), source, ServeConfig(port=0))
    live = {
        "ServeMetrics.snapshot": _key_paths(app._metrics_document()),
        "PipelineHealth.summary_dict": _key_paths(PipelineHealth().summary_dict()),
    }
    schema = json.loads((ROOT / "tests" / "metrics_keys.json").read_text(encoding="utf-8"))
    assert live == schema["surfaces"]


# -- signal handlers -----------------------------------------------------------


class _Exited(Exception):
    pass


def test_signal_handlers_record_or_flush_and_exit(monkeypatch):
    flag = InterruptFlag()
    assert flag._set(signal.SIGTERM, None) is None
    assert vars(flag) == {"signum": signal.SIGTERM, "_previous": {}}
    with InterruptFlag() as delivered:
        os.kill(os.getpid(), signal.SIGINT)  # no KeyboardInterrupt: recorded only
    assert delivered.signum == signal.SIGINT

    calls: list = []

    class Queue:
        def close(self):
            calls.append("close")

        def join_thread(self):
            calls.append("join_thread")

    class Thread:
        def __init__(self, *, target, name, daemon):
            calls.append(("thread", name, daemon))

        def start(self):
            calls.append("start")

    def exit_(code):
        calls.append(("exit", code))
        raise _Exited

    monkeypatch.setattr(worker.threading, "Thread", Thread)
    monkeypatch.setattr(worker.os, "_exit", exit_)
    with pytest.raises(_Exited):
        worker._make_term_handler(Queue())(signal.SIGTERM, None)
    # The backstop exits even if the flush wedges; the flush never loses a frame.
    assert calls == [
        ("thread", "term-backstop", True), "start", "close", "join_thread",
        ("exit", EXIT_WORKER_TERMINATED),
    ]


# -- determinism ---------------------------------------------------------------


@pytest.mark.slow
def test_trace_is_byte_identical_across_processes(tmp_path):
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    outputs = []
    for run in ("a", "b"):
        http, tls = tmp_path / f"{run}.tsv", tmp_path / f"{run}.tls.tsv"
        subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--publishers", "20", "--eco-seed", "3",
             "--scale", "0.0001", "--out", str(http), "--tls-out", str(tls)],
            env=env, check=True, capture_output=True, timeout=600,
        )
        outputs.append((http.read_bytes(), tls.read_bytes()))
    assert outputs[0] == outputs[1]
