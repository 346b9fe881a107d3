"""Checkpoint and snapshot wire forms: every stateful class survives
the framed-JSON container unchanged, and every dataclass field is
accounted for.

For each class the state goes through ``atomic.Framing`` (the container
checkpoints and snapshots are written in), is restored, and is exported
again; the two framed files must be byte-identical.  A key written but
never read back, or read but never written, fails here instead of on a
resume.  Each instance is built with its transient fields set, and a
restored one starts them afresh, so a transient field that leaks into
the wire form breaks the fixed point too.

For dataclasses, every field is in the wire form or declared in
``_TRANSIENT_STATE``, never both: a field added without a decision
fails the accounting test.
"""

from __future__ import annotations

import dataclasses
import io
import types

import pytest

from repro.analysis.traffic import TrafficAccumulator
from repro.core.pipeline import StreamingClassifier, _UserState
from repro.core.referrer_map import ReferrerMap
from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.engine import RequestContext
from repro.filterlist.filter import Filter
from repro.robustness.atomic import Framing
from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy
from repro.robustness.quarantine import QuarantineWriter
from repro.robustness.runstate import (
    ClassifySink,
    TrafficSink,
    UserStatsSink,
    open_quarantine,
    quarantine_state,
)

_FRAMING = Framing(b"RPROTEST", 1, "state", ValueError, ValueError)


def _framed(tmp_path, name: str, state: dict) -> bytes:
    path = tmp_path / name
    _FRAMING.write(str(path), state)
    return path.read_bytes()


def _read(tmp_path, name: str) -> dict:
    return _FRAMING.read(str(tmp_path / name))


# -- one builder per stateful class ----------------------------------------
#
# Each returns (export, restore): ``export()`` is the populated instance's
# wire form, ``restore(state)`` builds a fresh instance from a wire form
# and returns *its* export.


def _classifier(env):
    def make():
        return StreamingClassifier(env.pipeline, reorder_window=2.0)

    classifier = make()
    for count, record in enumerate(env.records):
        # A redirect source waits.
        if count >= 600 and any(state.pending_type_fixup for state in classifier.users.values()):
            break
        classifier.feed(record)
    classifier.drain()  # a checkpoint is cut after a drain

    def restore(state):
        restored = make()
        restored.restore_state(state)
        return restored.export_state()

    return classifier.export_state, restore


def _referrer_map(env):
    referrers = ReferrerMap()
    referrers.observe(
        "http://pub.example/", None, looks_like_document=True,
        location="http://pub.example/home",
    )
    referrers.observe(
        "http://ads.example/c?u=http%3A%2F%2Fland.example%2F", "http://pub.example/",
        looks_like_document=False,
    )
    return referrers.export_state, lambda state: ReferrerMap.from_state(state).export_state()


def _populated_health() -> PipelineHealth:
    health = PipelineHealth(**{
        field.name: index + 1
        for index, field in enumerate(dataclasses.fields(PipelineHealth))
        if field.name != "stage_errors"
    })
    health.record_error("read_log", "bad field count", quarantined=True)
    health.record_repair("content_type", "redirect")
    return health


def _health(env):
    health = _populated_health()
    return health.export_state, lambda state: PipelineHealth.from_state(state).export_state()


def _traffic(env):
    accumulator = TrafficAccumulator()
    for entry in env.classified:
        accumulator.add(entry)
    def restore(state):
        return TrafficAccumulator.from_state(state).export_state()

    return accumulator.export_state, restore


def _quarantine_writer(env):
    writer = QuarantineWriter(io.BytesIO())
    writer.write(7, "bad field count", "x\ty")

    def restore(state):
        restored = QuarantineWriter(io.BytesIO())
        restored.restore_state(state)
        return restored.export_state()

    return writer.export_state, restore


def _classify_sink(env):
    def make():
        return ClassifySink(
            part_path=str(env.tmp_path / "out.part"), final_path=str(env.tmp_path / "out.tsv")
        )

    sink = make()
    sink.begin(fresh=True, state=None)
    env.cleanup.append(sink.close)
    # Index 0 settles after five later rows, as a redirect source does:
    # the state carries its gap and its late row.
    entries = list(env.classified)
    entries.insert(5, entries.pop(0))
    for entry in entries:
        sink.consume(entry)
        sink.advance(entry.index + 1)

    def restore(state):
        restored = make()
        restored.begin(fresh=False, state=state)
        try:
            return restored.export_state()
        finally:
            restored.close()

    return sink.export_state, restore


def _user_stats_sink(env):
    sink = UserStatsSink()
    sink.begin(fresh=True, state=None)
    for entry in env.classified:
        sink.consume(entry)

    def restore(state):
        restored = UserStatsSink()
        restored.begin(fresh=False, state=state)
        return restored.export_state()

    return sink.export_state, restore


def _traffic_sink(env):
    sink = TrafficSink()
    sink.begin(fresh=True, state=None)
    for entry in env.classified:
        sink.consume(entry)

    def restore(state):
        restored = TrafficSink()
        restored.begin(fresh=False, state=state)
        return restored.export_state()

    return sink.export_state, restore


def _checkpointed_sidecar(env):
    checkpointing = types.SimpleNamespace(directory=str(env.tmp_path))
    path = str(env.tmp_path / "trace.quarantine")
    writer = open_quarantine(ErrorPolicy.QUARANTINE, path, checkpointing)
    writer.write(3, "bad field count", "raw\tline")

    def restore(state):
        restored = open_quarantine(ErrorPolicy.QUARANTINE, path, checkpointing, state)
        try:
            return quarantine_state(restored)
        finally:
            restored.close()

    env.cleanup.append(writer.close)
    return lambda: quarantine_state(writer), restore


def _engine_snapshot(env):
    engine = ACTrieEngine()
    for name, filter_list in env.lists.items():
        engine.add_filters(filter_list.filters, list_name=name)
    engine.compile()
    for entry in env.classified[:200]:  # compiles some filters' regexes
        engine.classify(entry.record.url, RequestContext(entry.content_type, entry.page_url))

    def restore(state):
        return ACTrieEngine.restore_snapshot_state(state).export_snapshot_state()

    return engine.export_snapshot_state, restore


CASES = {
    "StreamingClassifier": _classifier,
    "ReferrerMap": _referrer_map,
    "PipelineHealth": _health,
    "TrafficAccumulator": _traffic,
    "QuarantineWriter": _quarantine_writer,
    "ClassifySink": _classify_sink,
    "UserStatsSink": _user_stats_sink,
    "TrafficSink": _traffic_sink,
    "quarantine_state": _checkpointed_sidecar,
    "ACTrieEngine-snapshot": _engine_snapshot,
}


@pytest.fixture()
def env(tmp_path, pipeline, lists, rbn_trace, classified):
    cleanup: list = []
    yield types.SimpleNamespace(
        tmp_path=tmp_path, pipeline=pipeline, lists=lists, records=rbn_trace.http,
        classified=classified, cleanup=cleanup,
    )
    for close in cleanup:
        close()


@pytest.mark.parametrize("case", sorted(CASES))
def test_export_restore_export_is_a_fixed_point(case, env, tmp_path):
    export, restore = CASES[case](env)
    state = export()
    assert all(value not in (None, [], {}) for value in state.values()), state
    first = _framed(tmp_path, "first", state)
    second = _framed(tmp_path, "second", restore(_read(tmp_path, "first")))
    assert second == first


# What each dataclass's wire form is made of: the export keys, or for a
# positional wire form, the constructor fields it carries.
_WIRE_FIELDS = {
    PipelineHealth: lambda: set(PipelineHealth().export_state()),
    TrafficAccumulator: lambda: set(TrafficAccumulator().export_state()),
    # FilterEngine.export_snapshot_state: (text, kind, pattern, list_name, option_ref)
    Filter: lambda: {"text", "kind", "pattern", "list_name", "options"},
    # StreamingClassifier.export_state: (user, referrer_map, pending_type_fixup)
    _UserState: lambda: {"referrer_map", "pending_type_fixup"},
}


@pytest.mark.parametrize("cls", list(_WIRE_FIELDS), ids=lambda cls: cls.__name__)
def test_dataclass_fields_are_wired_or_declared_transient(cls):
    fields = {field.name for field in dataclasses.fields(cls)}
    wired = _WIRE_FIELDS[cls]()
    transient = set(getattr(cls, "_TRANSIENT_STATE", ()))
    assert not transient & wired, "declared transient yet in the wire form"
    assert transient <= fields, "_TRANSIENT_STATE names a field that does not exist"
    assert fields - transient == wired, "a field is neither in the wire form nor transient"


def test_transient_counters_never_reach_the_wire_form():
    """A restore would absorb a transient counter folded into a durable
    one, so bump each transient counter and check export and merge."""
    health, baseline = _populated_health(), _populated_health()
    state = baseline.export_state()
    for name in PipelineHealth._TRANSIENT_STATE:
        setattr(health, name, getattr(health, name) + 1000)
    assert health.export_state() == state
    health.merge_state(state)
    baseline.merge_state(state)
    assert health.export_state() == baseline.export_state()
