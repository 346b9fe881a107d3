"""Golden-output regression gate for ``repro classify``.

``tests/golden/trace.tsv`` is a *committed* corrupted trace (2000 RBN-2
records at 5% line damage); the expected classification CSV, quarantine
sidecar and health summary live next to it.  Any behavioural drift in
parsing, quarantine routing, page attribution, or filter matching shows
up as a byte diff here — in serial AND in 2/4-worker parallel runs,
which must reproduce the same golden bytes exactly (DESIGN.md §10).

After a *deliberate* behaviour change, regenerate the expectations with

    pytest tests/test_golden.py --update-golden

The trace itself is never regenerated; it is the fixed input that makes
the expectations comparable across commits.
"""

from __future__ import annotations

import io
import pathlib

import pytest

from repro.http.log import read_log
from repro.parallel import ParallelRun
from repro.robustness import ErrorPolicy, PipelineHealth, QuarantineWriter
from repro.robustness.runstate import ClassifySink, classification_row
from tests.conftest import RowCollector

GOLDEN = pathlib.Path(__file__).parent / "golden"
TRACE = GOLDEN / "trace.tsv"

_EXPECTATIONS = {
    "classified": GOLDEN / "classified.tsv",
    "quarantine": GOLDEN / "quarantine.tsv",
    "health": GOLDEN / "health.txt",
}


def _serial_outputs(pipeline) -> dict[str, bytes]:
    health = PipelineHealth()
    sidecar = io.BytesIO()
    quarantine = QuarantineWriter(sidecar)
    with TRACE.open() as stream:
        records = list(
            read_log(
                stream,
                on_error=ErrorPolicy.QUARANTINE,
                health=health,
                quarantine=quarantine,
            )
        )
    entries = pipeline.process(records, health=health)
    rows = "".join(classification_row(entry) + "\n" for entry in entries)
    return {
        "classified": (ClassifySink.HEADER + rows).encode("utf-8"),
        "quarantine": sidecar.getvalue(),
        "health": (health.summary() + "\n").encode("utf-8"),
    }


def _parallel_outputs(pipeline, workers: int, tmp_path) -> dict[str, bytes]:
    sink = RowCollector()
    sidecar = tmp_path / "quarantine.tsv"
    outcome = ParallelRun(
        workers=workers,
        input_path=str(TRACE),
        pipeline=pipeline,
        on_error=ErrorPolicy.QUARANTINE,
        quarantine_path=str(sidecar),
        sink=sink,
    ).run()
    body = "".join(row + "\n" for row in sink.rows)
    return {
        "classified": (ClassifySink.HEADER + body).encode("utf-8"),
        "quarantine": sidecar.read_bytes(),
        "health": (outcome.health.summary() + "\n").encode("utf-8"),
    }


def test_update_golden(pipeline, request):
    """Regenerates the expected outputs when --update-golden is given."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("pass --update-golden to regenerate expectations")
    outputs = _serial_outputs(pipeline)
    for name, path in _EXPECTATIONS.items():
        path.write_bytes(outputs[name])


def test_serial_output_matches_golden(pipeline):
    outputs = _serial_outputs(pipeline)
    for name, path in _EXPECTATIONS.items():
        assert outputs[name] == path.read_bytes(), (
            f"{path.name} drifted — if the change is intentional, rerun with "
            "--update-golden and review the diff"
        )


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_output_matches_golden(pipeline, workers, tmp_path):
    outputs = _parallel_outputs(pipeline, workers, tmp_path)
    for name, path in _EXPECTATIONS.items():
        assert outputs[name] == path.read_bytes(), (
            f"{path.name} differs with --workers {workers}: the parallel "
            "plan broke byte-identity with the serial path"
        )
