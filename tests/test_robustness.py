"""Resilience subsystem tests: error policies, fault injection,
reorder buffer, bounded per-user state, and degraded CLI runs."""

from __future__ import annotations

import dataclasses
import io
import random

import pytest

from repro.core import AdClassificationPipeline
from repro.core.pipeline import PipelineConfig, StreamingClassifier
from repro.http.log import HttpLogRecord, read_log, records_to_text, write_log
from repro.robustness import (
    ErrorPolicy,
    LogParseError,
    PipelineHealth,
    QuarantineWriter,
    read_quarantine,
)
from repro.robustness.runstate import classification_row
from repro.trace.corruption import CorruptionConfig, TraceCorruptor


def _record(**overrides) -> HttpLogRecord:
    values = dict(
        ts=1000.5,
        client="anon-1",
        server="101.0.0.1",
        method="GET",
        host="site.example",
        uri="/x?y=1",
        referrer="http://site.example/",
        user_agent="UA/1.0",
        status=200,
        content_type="image/gif",
        content_length=43,
        location=None,
        tcp_handshake_ms=12.5,
        http_handshake_ms=13.9,
        flow_id=7,
    )
    values.update(overrides)
    return HttpLogRecord(**values)


def _log_text(n: int = 5) -> str:
    return records_to_text([_record(ts=1000.0 + i, flow_id=i) for i in range(n)])


# ---------------------------------------------------------------------------
# read_log error policies


class TestReadLogStrict:
    def test_short_row_cites_line_number(self):
        text = _log_text(3)
        lines = text.splitlines()
        lines[2] = lines[2].split("\t", 5)[0]  # truncate the 2nd data line
        with pytest.raises(LogParseError) as excinfo:
            list(read_log(io.StringIO("\n".join(lines))))
        assert excinfo.value.line_no == 3  # header is line 1
        assert "expected 15 fields" in str(excinfo.value)

    def test_extra_tokens_rejected(self):
        text = _log_text(1)
        lines = text.splitlines()
        lines[1] += "\textra"
        with pytest.raises(LogParseError, match="expected 15 fields, got 16"):
            list(read_log(io.StringIO("\n".join(lines))))

    def test_bad_value_cites_field(self):
        text = _log_text(1).replace("1000.0", "not-a-ts")
        with pytest.raises(LogParseError, match="field 'ts'"):
            list(read_log(io.StringIO(text)))

    def test_non_finite_ts_rejected(self):
        text = _log_text(1).replace("1000.0", "nan")
        with pytest.raises(LogParseError):
            list(read_log(io.StringIO(text)))

    def test_oversized_field_rejected(self):
        text = _log_text(1).replace("UA/1.0", "A" * 9000)
        with pytest.raises(LogParseError, match="oversized"):
            list(read_log(io.StringIO(text)))

    def test_clean_log_unaffected(self):
        health = PipelineHealth()
        records = list(read_log(io.StringIO(_log_text(4)), health=health))
        assert len(records) == 4
        assert health.records_ok == 4 and not health.degraded


class TestReadLogSkipAndQuarantine:
    def test_skip_drops_and_counts(self):
        lines = _log_text(4).splitlines()
        lines[2] = "garbage line"
        health = PipelineHealth()
        records = list(
            read_log(io.StringIO("\n".join(lines)), on_error=ErrorPolicy.SKIP, health=health)
        )
        assert len(records) == 3
        assert health.records_seen == 4
        assert health.records_dropped == 1
        assert health.records_quarantined == 0
        assert health.stage_errors["read_log"]["field-count"] == 1
        assert health.exit_code() == 3

    def test_quarantine_keeps_raw_line(self):
        lines = _log_text(4).splitlines()
        lines[2] = "garbage\tline"
        sidecar = io.StringIO()
        health = PipelineHealth()
        records = list(
            read_log(
                io.StringIO("\n".join(lines)),
                on_error=ErrorPolicy.QUARANTINE,
                health=health,
                quarantine=QuarantineWriter(sidecar),
            )
        )
        assert len(records) == 3
        assert health.records_quarantined == 1
        entries = list(read_quarantine(io.StringIO(sidecar.getvalue())))
        assert entries == [(3, "expected 15 fields, got 2", "garbage\tline")]

    def test_quarantine_round_trip_with_embedded_tabs(self):
        sidecar = io.StringIO()
        with QuarantineWriter(sidecar) as writer:
            writer.write(7, "field-count", "raw\twith\tmany\ttabs\tkept")
            writer.write(9, "bad-ts", "trailing\ttab\t")
        entries = list(read_quarantine(io.StringIO(sidecar.getvalue())))
        assert entries == [
            (7, "field-count", "raw\twith\tmany\ttabs\tkept"),
            (9, "bad-ts", "trailing\ttab\t"),
        ]

    def test_quarantine_flushes_every_line_by_default(self, tmp_path):
        """Rejected lines must be on disk before close — the process may
        never get to close during the failures the sidecar documents."""
        path = tmp_path / "sidecar.tsv"
        writer = QuarantineWriter.open(str(path))
        writer.write(1, "why", "raw line")
        assert "raw line" in path.read_text()  # visible pre-close
        writer.close()
        writer.close()  # idempotent

    def test_header_poisoning_does_not_cascade(self):
        lines = _log_text(3).splitlines()
        lines.insert(2, "#garbled\tnonsense\theader")
        health = PipelineHealth()
        records = list(
            read_log(io.StringIO("\n".join(lines)), on_error=ErrorPolicy.SKIP, health=health)
        )
        assert len(records) == 3  # the bogus header was ignored, not adopted


class TestFuzzedInput:
    """No exception escapes tolerant modes, whatever the damage."""

    def _mutate(self, line: str, rng: random.Random) -> str:
        choice = rng.randrange(5)
        if choice == 0:
            return line[: rng.randrange(1, len(line))]
        if choice == 1:
            pos = rng.randrange(len(line))
            return line[:pos] + rng.choice("\x00\x7f\t@") + line[pos + 1 :]
        if choice == 2:
            return line + "\t" + line
        if choice == 3:
            return line.replace("\t", " ", rng.randrange(1, 5))
        return "".join(rng.sample(line, len(line)))

    @pytest.mark.parametrize("policy", [ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE])
    def test_no_exception_escapes(self, policy):
        rng = random.Random(987)
        lines = _log_text(50).splitlines()
        for i in range(1, len(lines)):
            if rng.random() < 0.5:
                mutated = self._mutate(lines[i], rng)
                lines[i] = mutated if not mutated.startswith("#") else "@" + mutated[1:]
        health = PipelineHealth()
        sidecar = QuarantineWriter(io.StringIO())
        records = list(
            read_log(
                io.StringIO("\n".join(lines)),
                on_error=policy,
                health=health,
                quarantine=sidecar,
            )
        )
        assert health.records_ok == len(records)
        assert health.records_seen == health.records_ok + health.records_dropped
        if policy is ErrorPolicy.QUARANTINE:
            assert sidecar.count == health.records_quarantined == health.records_dropped

    def test_strict_raises_with_line_number(self):
        lines = _log_text(10).splitlines()
        lines[4] = lines[4][:20]
        with pytest.raises(LogParseError) as excinfo:
            list(read_log(io.StringIO("\n".join(lines))))
        assert excinfo.value.line_no == 5


# ---------------------------------------------------------------------------
# TraceCorruptor


class TestTraceCorruptor:
    def test_deterministic(self):
        text = _log_text(200)
        config = CorruptionConfig(rate=0.3, duplicate_rate=0.05, jitter_s=1.0, seed=7)
        out1 = TraceCorruptor(config).corrupt_text(text)
        out2 = TraceCorruptor(CorruptionConfig(rate=0.3, duplicate_rate=0.05,
                                               jitter_s=1.0, seed=7)).corrupt_text(text)
        assert out1 == out2
        assert out1 != text

    def test_seed_changes_output(self):
        text = _log_text(200)
        out1 = TraceCorruptor(rate=0.3, seed=1).corrupt_text(text)
        out2 = TraceCorruptor(rate=0.3, seed=2).corrupt_text(text)
        assert out1 != out2

    def test_stats_accounting(self):
        corruptor = TraceCorruptor(rate=0.5, duplicate_rate=0.1, seed=3)
        out = corruptor.corrupt_text(_log_text(300))
        stats = corruptor.stats
        assert stats.lines_seen == 300
        assert 0 < stats.lines_corrupted < 300
        assert stats.lines_corrupted == sum(stats.by_pathology.values())
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data_lines) == 300 + stats.lines_duplicated

    def test_all_damage_is_countable(self):
        """Every damaged line survives as a data line (none vanish)."""
        corruptor = TraceCorruptor(rate=1.0, seed=11)
        out = corruptor.corrupt_text(_log_text(100))
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data_lines) == 100

    def test_clock_skew_stays_parseable(self):
        corruptor = TraceCorruptor(rate=0.0, skew_segments=2, skew_s=120.0, seed=5)
        out = corruptor.corrupt_text(_log_text(100))
        records = list(read_log(io.StringIO(out)))
        assert len(records) == 100
        assert corruptor.stats.lines_skewed > 0
        assert any(r.ts > 1150 for r in records)  # base ts ≤ 1099, skewed +120

    def test_zero_rate_is_identity(self):
        text = _log_text(50)
        assert TraceCorruptor(rate=0.0, seed=1).corrupt_text(text) == text


# ---------------------------------------------------------------------------
# Pipeline hardening


def _classification_key(entries):
    return [
        (
            e.record.ts,
            e.record.client,
            e.record.uri,
            e.page_url,
            e.content_type,
            e.normalized_url,
            e.is_ad,
            e.is_whitelisted,
            e.blacklist_name,
            e.whitelist_name,
        )
        for e in entries
    ]


class TestReorderBuffer:
    def test_jittered_stream_classifies_identically(self, pipeline, rbn_trace):
        records = sorted(rbn_trace.http[:5000], key=lambda r: r.ts)
        rng = random.Random(42)
        shuffled = sorted(records, key=lambda r: r.ts + rng.uniform(-1.0, 1.0))
        assert [r.ts for r in shuffled] != [r.ts for r in records]

        baseline = pipeline.process(records)
        health = PipelineHealth()
        repaired = pipeline.process(shuffled, reorder_window=2.0, health=health)
        assert health.records_reordered > 0
        assert _classification_key(repaired) == _classification_key(baseline)

    def test_sorted_stream_passes_through(self, pipeline, rbn_trace):
        records = sorted(rbn_trace.http[:1000], key=lambda r: r.ts)
        baseline = pipeline.process(records)
        repaired = pipeline.process(records, reorder_window=2.0)
        assert _classification_key(repaired) == _classification_key(baseline)


class TestRedirectFixupHorizon:
    """A redirect source waits for its consequent request at most one
    and a half referrer horizons (DESIGN.md §5), then settles with the
    type it has."""

    def _redirect(self, i: int, ts: float) -> HttpLogRecord:
        return _record(
            ts=ts,
            uri=f"/r{i}",
            status=302,
            content_type="text/html",
            location=f"http://img.example/asset{i}",
            flow_id=i,
        )

    def _consequent(self, i: int, ts: float) -> HttpLogRecord:
        return _record(
            ts=ts,
            host="img.example",
            uri=f"/asset{i}",
            status=200,
            content_type="image/gif",
            flow_id=100 + i,
        )

    def _activity(self, start: float, stop: float) -> list[HttpLogRecord]:
        """The same user's requests every 5 s, which keep its map in use."""
        return [
            _record(ts=start + 5.0 * k, uri=f"/page{k}.js", content_type="application/javascript")
            for k in range(1, int((stop - start) / 5.0))
        ]

    def test_a_consequent_within_the_horizon_repairs_its_source(self):
        pipeline = AdClassificationPipeline({})
        horizon = pipeline.config.referrer_horizon_s
        records = [self._redirect(0, 1000.0), *self._activity(1000.0, 1000.0 + horizon)]
        records.append(self._consequent(0, 1000.0 + horizon - 1.0))
        entries = pipeline.process(records)
        assert entries[0].content_type == entries[-1].content_type  # repaired

    def test_a_consequent_after_the_horizon_does_not(self):
        pipeline = AdClassificationPipeline({})
        horizon = pipeline.config.referrer_horizon_s
        for activity in ([], self._activity(1000.0, 1000.0 + 2 * horizon)):
            records = [self._redirect(0, 1000.0), *activity]
            records.append(self._consequent(0, 1000.0 + 2 * horizon))
            entries = pipeline.process(records)
            assert entries[0].content_type != entries[-1].content_type

    def test_an_active_users_stale_source_is_handed_on(self):
        pipeline = AdClassificationPipeline({})
        horizon = pipeline.config.referrer_horizon_s
        classifier = StreamingClassifier(pipeline)
        user = ("anon-1", "UA/1.0")
        classifier.feed(self._redirect(0, 1000.0))
        assert classifier.drain() == []
        for record in self._activity(1000.0, 1000.0 + 1.6 * horizon):
            classifier.feed(record)
            age = record.ts - 1000.0
            settled = [entry.index for entry in classifier.drain()]
            if 0 in settled:
                break
            assert classifier.users[user].pending_type_fixup  # still waits
        assert 0 in settled and horizon <= age <= 1.5 * horizon  # with the type it had
        assert user in classifier.users and not classifier.users[user].pending_type_fixup

    def test_none_keeps_the_unbounded_wait(self):
        pipeline = AdClassificationPipeline({}, PipelineConfig(referrer_horizon_s=None))
        records = [self._redirect(0, 1000.0), self._consequent(0, 1000.0 + 36_000.0)]
        entries = pipeline.process(records)
        assert entries[0].content_type == entries[-1].content_type


# ---------------------------------------------------------------------------
# Golden degraded-trace test


class TestGoldenDegradedTrace:
    def test_corrupted_trace_ad_ratio_close_to_clean(self, pipeline, rbn_trace, classified):
        records = rbn_trace.http
        clean_ratio = sum(1 for e in classified if e.is_ad) / len(classified)

        text = records_to_text(records)
        corruptor = TraceCorruptor(rate=0.10, jitter_s=1.0, seed=20151028)
        damaged = corruptor.corrupt_text(text)

        health = PipelineHealth()
        survivors = list(
            read_log(io.StringIO(damaged), on_error=ErrorPolicy.SKIP, health=health)
        )
        entries = pipeline.process(survivors, reorder_window=2.0, health=health)

        assert health.records_dropped > 0
        assert health.records_seen == len(records)
        ratio = sum(1 for e in entries if e.is_ad) / len(entries)
        assert abs(ratio - clean_ratio) < 0.05


# ---------------------------------------------------------------------------
# The row decoder against the per-token interpreter it replaced

_NAMES = [f.name for f in dataclasses.fields(HttpLogRecord)]
_REQUIRED = ("ts", "client", "server", "method", "host", "uri", "tcp_handshake_ms", "flow_id")


def _reference_decode_line(line: str, header: list[str]) -> HttpLogRecord:
    """``http/log.py::_decode_line`` and ``_decode`` as they read before
    the decoder was compiled per header, transcribed as the oracle.  The
    one rule added since is marked."""
    tokens = line.split("\t")
    if len(tokens) != len(header):
        raise ValueError(f"expected {len(header)} fields, got {len(tokens)}")
    values: dict[str, object] = {}
    for name, token in zip(header, tokens):
        if len(token) > 8192:
            raise ValueError(f"oversized field '{name}' ({len(token)} chars)")
        try:
            if token == "-" and name in _REQUIRED:  # added: unset is damage here
                raise ValueError("unset")
            value: object = token.replace("%09", "\t").replace("%0A", "\n")
            if token == "-":
                value = None
            elif name in ("ts", "tcp_handshake_ms", "http_handshake_ms"):
                value = float(value)
                if value != value or value in (float("inf"), float("-inf")):
                    raise ValueError(f"non-finite {name}")
            elif name in ("status", "content_length", "flow_id"):
                value = int(value)
            values[name] = value
        except ValueError:
            raise ValueError(f"bad value for field '{name}': {token[:80]!r}") from None
    values.setdefault("tcp_handshake_ms", 0.0)
    values.setdefault("flow_id", 0)
    missing = [name for name in _NAMES if name not in values]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    return HttpLogRecord(**values)


def _reference_read(text: str):
    header, records, refused = _NAMES, [], []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.startswith("#"):
            if set(line[1:].split("\t")) <= set(_NAMES):
                header = line[1:].split("\t")
        elif line:
            try:
                records.append(_reference_decode_line(line, header))
            except ValueError as exc:
                refused.append((line_no, str(exc)))
    return records, refused


def _with_columns(text: str, columns: list[str]) -> str:
    """``text`` (schema-order TSV) rewritten under the header ``columns``."""
    index = [_NAMES.index(name) for name in columns]
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    body = ["\t".join(row[i] for i in index) for row in rows]
    return "\n".join(["#" + "\t".join(columns), *body]) + "\n"


class TestDecoderDifferential:
    @pytest.mark.parametrize(
        "columns",
        [_NAMES, _NAMES[::-1], _NAMES[:12] + _NAMES[13:14], _NAMES[1:]],
        ids=["schema-order", "reversed", "no-optional-columns", "ts-missing"],
    )
    def test_same_records_and_reasons_on_a_damaged_trace(self, rbn_trace, columns):
        records = rbn_trace.http[:4000] + [
            _record(user_agent="tab\tand\nnewline", uri="/q?x=%0A", flow_id=i) for i in range(40)
        ]
        text = _with_columns(records_to_text(records), columns)
        damaged = TraceCorruptor(rate=0.10, duplicate_rate=0.01, seed=24).corrupt_text(text)
        # "-" where a value is required: garbling makes too few of those.
        lines = damaged.split("\n")
        for n, name in enumerate(columns):
            tokens = lines[50 + n].split("\t")
            tokens[n] = "-"
            lines[50 + n] = "\t".join(tokens)
        damaged = "\n".join(lines)

        sidecar = io.StringIO()
        decoded = list(read_log(io.StringIO(damaged), on_error=ErrorPolicy.QUARANTINE,
                                quarantine=QuarantineWriter(sidecar)))
        refused = [(n, why) for n, why, _ in read_quarantine(io.StringIO(sidecar.getvalue()))]
        expected_records, expected_refused = _reference_read(damaged)
        assert refused == expected_refused
        assert decoded == expected_records
        categories = {why.split(" ")[0] for _, why in refused}
        if "ts" in columns:
            assert len(decoded) > 3000 and {"expected", "oversized", "bad"} <= categories
        else:
            assert decoded == [] and "missing" in categories


class TestClassificationRowIsOneLine:
    """A URI's literal ``%0A``/``%09`` reaches the pipeline as a raw LF or
    TAB (the reader unescapes it); the output row spells it back."""

    def test_row_with_embedded_newline_and_tab(self, pipeline):
        text = records_to_text([_record(uri="/x?next=%0Ahttp://t.example/%09z")])
        [record] = read_log(io.StringIO(text))
        assert "\n" in record.uri and "\t" in record.uri
        [entry] = pipeline.process([record])
        row = classification_row(entry)
        assert "\n" not in row and row.count("\t") == 6
        assert row.split("\t")[2] == "http://site.example/x?next=%0Ahttp://t.example/%09z"

    def test_ordinary_row_is_untouched(self, pipeline):
        [entry] = pipeline.process([_record()])
        assert classification_row(entry).split("\t")[:4] == [
            "1000.5", "anon-1", "http://site.example/x?y=1", "http://site.example/",
        ]  # fmt: skip


# ---------------------------------------------------------------------------
# Health checkpoint wire form


class TestHealthStateRoundTrip:
    def test_counters_and_stage_errors_survive(self):
        health = PipelineHealth()
        for _ in range(5):
            health.record_ok()
        health.record_error("read_log", "field-count", quarantined=True)
        health.record_error("read_log", "bad-ts")
        health.record_error("classify", "oversize")
        health.record_repair("read_log", "header-adopted")
        health.records_reordered = 3

        restored = PipelineHealth.from_state(health.export_state())
        assert restored == health
        # The summary text is what the crash/resume equivalence tests
        # compare byte-for-byte — it must be reproducible from state.
        assert restored.summary() == health.summary()
        assert restored.exit_code() == health.exit_code() == 3

    def test_state_is_a_snapshot_not_a_view(self):
        health = PipelineHealth()
        health.record_error("read_log", "field-count")
        state = health.export_state()
        health.record_error("read_log", "field-count")
        restored = PipelineHealth.from_state(state)
        assert restored.stage_errors["read_log"]["field-count"] == 1
