"""Binary record framing (DESIGN.md §16): round-trip fidelity, format
sniffing, damage routing, resumable coordinates, and TSV-vs-bin
classification equivalence.

The contract under test: the binlog encoding is an *ingestion fast
path*, never a semantic fork — the same records classify byte-
identically whichever encoding they arrive in, under every execution
plan (serial, sharded, durable crash/resume), and a damaged block
degrades exactly like a malformed TSV line does (one record ordinal,
strict/skip/quarantine, deterministic shard claims).
"""

from __future__ import annotations

import io
import mmap
import os
import subprocess
import sys

import pytest

from repro.core import AdClassificationPipeline
from repro.http.binlog import (
    BINLOG_MAGIC,
    BinLogReader,
    records_from_binary,
    records_to_binary,
    write_binlog,
)
from repro.http.log import (
    HttpLogRecord,
    SeekableLogReader,
    records_from_text,
    records_to_text,
    write_log,
)
from repro.robustness import ErrorPolicy, LogParseError, PipelineHealth, QuarantineWriter
from repro.robustness.runstate import classification_row
from repro.trace.corruption import ByteCorruptor


def _record(i: int = 0, **overrides) -> HttpLogRecord:
    values = dict(
        ts=1000.0 + i,
        client=f"10.0.0.{i % 256}",
        server="93.184.216.34",
        method="GET",
        host=f"cdn{i % 7}.adnetwork.example",
        uri=f"/serve/ad?id={i}",
        referrer=f"http://news{i % 3:04d}.de/story",
        user_agent="Mozilla/5.0 (X11; Linux x86_64)",
        status=200,
        content_type="image/gif",
        content_length=4321 + i,
        location=None,
        tcp_handshake_ms=12.5,
        http_handshake_ms=3.25,
        flow_id=i,
    )
    values.update(overrides)
    return HttpLogRecord(**values)


# ---------------------------------------------------------------------------
# round-trip fidelity


class TestRoundTrip:
    def test_basic(self):
        records = [_record(i) for i in range(10)]
        assert records_from_binary(records_to_binary(records)) == records

    def test_none_fields(self):
        record = _record(
            referrer=None, user_agent=None, status=None, content_type=None,
            content_length=None, location=None, http_handshake_ms=None,
        )
        assert records_from_binary(records_to_binary([record])) == [record]

    def test_empty_string_distinct_from_none(self):
        # TSV cannot tell "" from None for optional fields ("-" marks
        # both unset and is decoded as None); the framing's presence
        # flags can, so the distinction must survive.
        record = _record(referrer="", user_agent="", content_type="", location="")
        assert records_from_binary(records_to_binary([record])) == [record]

    def test_unicode(self):
        record = _record(
            host="münchen.example", uri="/pfad/ä?q=☃",
            user_agent="Mozilla/5.0 (Über-Agent)",
        )
        assert records_from_binary(records_to_binary([record])) == [record]

    def test_tabs_and_newlines_lossless(self):
        # The fields TSV must escape (and whose literal escape sequences
        # TSV cannot represent at all) pass through the framing intact.
        record = _record(uri="/a\tb\nc", referrer="literal %09 stays")
        assert records_from_binary(records_to_binary([record])) == [record]

    def test_block_sizes(self):
        records = [_record(i) for i in range(10)]
        for block_records in (1, 3, 10, 4096):
            data = records_to_binary(records, block_records=block_records)
            assert records_from_binary(data) == records

    def test_write_returns_count(self):
        buffer = io.BytesIO()
        assert write_binlog([_record(i) for i in range(5)], buffer) == 5

    def test_empty_log(self):
        data = records_to_binary([])
        assert data.startswith(BINLOG_MAGIC)
        assert records_from_binary(data) == []

    def test_oversized_string_rejected(self):
        with pytest.raises(ValueError, match="UTF-8 bytes"):
            records_to_binary([_record(uri="/" + "x" * 70000)])

    def test_non_finite_ts_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            records_to_binary([_record(ts=float("nan"))])

    def test_numeric_overflow_rejected(self):
        with pytest.raises(ValueError, match="framing range"):
            records_to_binary([_record(status=2**40)])

    def test_matches_tsv_semantics(self, rbn_trace):
        """The generator's own records survive both encodings equally."""
        records = rbn_trace.http[:2000]
        assert records_from_binary(records_to_binary(records)) == records
        assert records_from_text(records_to_text(records)) == records


# ---------------------------------------------------------------------------
# format sniffing


class TestSniffing:
    def test_bin_and_tsv_detected(self, tmp_path):
        records = [_record(i) for i in range(50)]
        bin_path = tmp_path / "t.bin"
        tsv_path = tmp_path / "t.tsv"
        bin_path.write_bytes(records_to_binary(records))
        tsv_path.write_text(records_to_text(records))
        with SeekableLogReader(str(bin_path)) as reader:
            assert reader.format == "bin"
            assert list(reader) == records
            assert reader.header is None
        with SeekableLogReader(str(tsv_path)) as reader:
            assert reader.format == "tsv"
            assert list(reader) == records

    def test_short_file_is_not_bin(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("")
        with SeekableLogReader(str(path)) as reader:
            assert reader.format == "tsv"
            assert list(reader) == []


# ---------------------------------------------------------------------------
# hypothesis round-trip

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    max_size=60,
)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)

_records = st.builds(
    HttpLogRecord,
    ts=_finite,
    client=_text,
    server=_text,
    method=st.sampled_from(["GET", "POST", "HEAD"]),
    host=_text,
    uri=_text,
    referrer=st.one_of(st.none(), _text),
    user_agent=st.one_of(st.none(), _text),
    status=st.one_of(st.none(), st.integers(100, 599)),
    content_type=st.one_of(st.none(), _text),
    content_length=st.one_of(st.none(), st.integers(0, 2**40)),
    location=st.one_of(st.none(), _text),
    tcp_handshake_ms=_finite,
    http_handshake_ms=st.one_of(st.none(), _finite),
    flow_id=st.integers(0, 2**50),
)


class TestPropertyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_records, max_size=40), block_records=st.sampled_from([1, 2, 7, 4096]))
    def test_bin_round_trip(self, records, block_records):
        data = records_to_binary(records, block_records=block_records)
        assert records_from_binary(data) == records

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_records, max_size=20))
    def test_coordinates_monotone(self, records):
        data = records_to_binary(records)
        reader = BinLogReader(io.BytesIO(data))
        last_offset, last_line = 0, 0
        for _ in reader:
            assert reader.offset > last_offset
            assert reader.line_no == last_line + 1
            last_offset, last_line = reader.offset, reader.line_no
        assert last_line == len(records)


# ---------------------------------------------------------------------------
# damage routing (ErrorPolicy over corrupted framing)


def _write_corpus(tmp_path, n=600, block_records=64):
    records = [_record(i) for i in range(n)]
    path = tmp_path / "corpus.bin"
    path.write_bytes(records_to_binary(records, block_records=block_records))
    return records, path


def _assert_in_order_subset(subset, full):
    it = iter(full)
    for record in subset:
        for candidate in it:
            if candidate == record:
                break
        else:
            pytest.fail("skip-policy output is not an in-order subset of the clean records")


class TestDamageRouting:
    @pytest.mark.parametrize("pathology", ["truncate", "bitflip", "zero_run"])
    def test_strict_raises_with_block_diagnostics(self, tmp_path, pathology):
        records, path = _write_corpus(tmp_path)
        corruptor = ByteCorruptor(seed=7)
        bad = tmp_path / f"{pathology}.bin"
        corruptor.corrupt_file(str(path), str(bad), pathology)
        with pytest.raises(LogParseError) as abort:
            with SeekableLogReader(str(bad)) as reader:
                list(reader)
        assert "block" in str(abort.value) or "binlog" in str(abort.value)

    @pytest.mark.parametrize("pathology", ["truncate", "bitflip", "zero_run"])
    def test_skip_yields_in_order_subset(self, tmp_path, pathology):
        records, path = _write_corpus(tmp_path)
        corruptor = ByteCorruptor(seed=11)
        bad = tmp_path / f"{pathology}.bin"
        corruptor.corrupt_file(str(path), str(bad), pathology)
        health = PipelineHealth()
        with SeekableLogReader(str(bad), on_error=ErrorPolicy.SKIP, health=health) as reader:
            kept = list(reader)
        assert len(kept) < len(records)
        _assert_in_order_subset(kept, records)
        assert health.records_dropped >= 1
        assert sum(health.stage_errors["read_log"].values()) == health.records_dropped

    def test_quarantine_writes_sidecar(self, tmp_path):
        records, path = _write_corpus(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "flip.bin"
        bad.write_bytes(bytes(data))
        sidecar = tmp_path / "q.tsv"
        health = PipelineHealth()
        quarantine = QuarantineWriter.open(str(sidecar))
        try:
            with SeekableLogReader(
                str(bad), on_error=ErrorPolicy.QUARANTINE,
                health=health, quarantine=quarantine,
            ) as reader:
                kept = list(reader)
        finally:
            quarantine.close()
        assert quarantine.count == 1
        assert health.records_quarantined == 1
        assert "checksum mismatch" in sidecar.read_text()
        assert len(kept) == len(records) - 64  # exactly one block lost

    def test_not_a_binlog_after_magic(self, tmp_path):
        # Right magic, garbage after: the reader must degrade, not spin.
        path = tmp_path / "garbage.bin"
        path.write_bytes(BINLOG_MAGIC + os.urandom(256))
        health = PipelineHealth()
        with SeekableLogReader(str(path), on_error=ErrorPolicy.SKIP, health=health) as reader:
            assert list(reader) == []
        assert health.records_dropped >= 1

    def test_shard_claims_partition_damage(self, tmp_path):
        """Every damaged frame is accounted by exactly one shard, and
        owned records partition across shards (DESIGN.md §10)."""
        records, path = _write_corpus(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0x01
        data[2 * len(data) // 3] ^= 0x01
        bad = tmp_path / "two-flips.bin"
        bad.write_bytes(bytes(data))
        workers = 3
        total_dropped = 0
        owned_by_shard = []
        per_shard_kept = None
        for shard in range(workers):
            health = PipelineHealth()
            with SeekableLogReader(
                str(bad), on_error=ErrorPolicy.SKIP,
                health=health, shard=(shard, workers),
            ) as reader:
                pairs = list(reader.iter_shard())
            kept = [record for record, _owned in pairs]
            if per_shard_kept is None:
                per_shard_kept = kept
            else:
                assert kept == per_shard_kept  # all shards parse the full stream
            owned_by_shard.append([r for r, owned in pairs if owned])
            total_dropped += health.records_dropped
        assert total_dropped == 2  # each damaged frame claimed exactly once
        merged = sorted(
            (record for owned in owned_by_shard for record in owned),
            key=lambda r: r.flow_id,
        )
        assert merged == per_shard_kept


# ---------------------------------------------------------------------------
# resumable coordinates


class TestSeek:
    def test_resume_mid_block_matches_full_read(self, tmp_path):
        records, path = _write_corpus(tmp_path, n=500, block_records=64)
        for stop_after in (1, 63, 64, 65, 200, 499, 500):
            with SeekableLogReader(str(path)) as reader:
                iterator = iter(reader)
                prefix = [next(iterator) for _ in range(stop_after)]
                coords = dict(offset=reader.offset, line_no=reader.line_no, header=reader.header)
            with SeekableLogReader(str(path)) as reader:
                reader.seek(**coords)
                suffix = list(reader)
            assert prefix + suffix == records, f"stop_after={stop_after}"

    def test_seek_to_start(self, tmp_path):
        # Many small blocks over several pages: the first pass gives the
        # pages behind each block back, the rewind must fault them in.
        records, path = _write_corpus(tmp_path, n=500, block_records=16)
        assert path.stat().st_size > 4 * mmap.PAGESIZE
        with SeekableLogReader(str(path)) as reader:
            list(reader)
            reader.seek(offset=0, line_no=0, header=None)
            assert list(reader) == records


# ---------------------------------------------------------------------------
# classification equivalence (in-process)


class TestClassificationEquivalence:
    def test_tsv_and_bin_classify_byte_identical(self, tmp_path, lists, rbn_trace):
        records = rbn_trace.http[:3000]
        tsv_path = tmp_path / "t.tsv"
        bin_path = tmp_path / "t.bin"
        tsv_path.write_text(records_to_text(records))
        bin_path.write_bytes(records_to_binary(records))
        rows = {}
        for path in (tsv_path, bin_path):
            with SeekableLogReader(str(path)) as reader:
                loaded = list(reader)
            pipeline = AdClassificationPipeline(lists)
            entries = pipeline.process(loaded)
            rows[path.suffix] = [classification_row(entry) for entry in entries]
        assert rows[".tsv"] == rows[".bin"]


# ---------------------------------------------------------------------------
# CLI end-to-end: convert + durable kill-and-resume over binlog input


_ECO = ["--publishers", "80", "--eco-seed", "99"]


def _cli(args, cwd):
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def cli_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("binlogcli")
    tsv = tmp / "trace.tsv"
    proc = _cli(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0002", "--out", str(tsv)],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    bin_path = tmp / "trace.bin"
    proc = _cli(["convert", "--trace", str(tsv), "--out", str(bin_path)], tmp)
    assert proc.returncode == 0, proc.stderr
    return tsv, bin_path


@pytest.mark.slow
class TestCliEquivalence:
    def test_convert_round_trips_bytes(self, tmp_path, cli_traces):
        tsv, bin_path = cli_traces
        back = tmp_path / "back.tsv"
        proc = _cli(["convert", "--trace", str(bin_path), "--out", str(back)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert back.read_bytes() == tsv.read_bytes()

    def test_serial_and_sharded_classify_identical(self, tmp_path, cli_traces):
        tsv, bin_path = cli_traces
        outputs = {}
        for name, args in {
            "tsv-serial": ["--trace", str(tsv)],
            "bin-serial": ["--trace", str(bin_path)],
            "bin-workers": ["--trace", str(bin_path), "--workers", "2"],
        }.items():
            out = tmp_path / f"{name}.out"
            proc = _cli(["classify", *_ECO, *args, "--out", str(out)], tmp_path)
            assert proc.returncode == 0, (name, proc.stderr)
            outputs[name] = out.read_bytes()
        assert outputs["tsv-serial"] == outputs["bin-serial"]
        assert outputs["tsv-serial"] == outputs["bin-workers"]

    def test_kill_and_resume_mid_block(self, tmp_path, cli_traces):
        """Hard-killed durable run over binlog input resumes to the same
        bytes an uninterrupted durable run produces — the checkpoint
        cuts mid-block (crash-after is far from any 4096 boundary)."""
        _tsv, bin_path = cli_traces

        def classify_args(out, ckpt, *extra):
            return [
                "classify", *_ECO, "--trace", str(bin_path), "--out", str(out),
                "--checkpoint-dir", str(ckpt), "--checkpoint-every", "500", *extra,
            ]

        golden = tmp_path / "golden.tsv"
        proc = _cli(classify_args(golden, tmp_path / "ckpt-golden"), tmp_path)
        assert proc.returncode == 0, proc.stderr

        out = tmp_path / "resumed.tsv"
        ckpt = tmp_path / "ckpt-crash"
        proc = _cli(classify_args(out, ckpt, "--crash-after", "1300"), tmp_path)
        assert proc.returncode == 87, (proc.returncode, proc.stderr)
        proc = _cli(classify_args(out, ckpt, "--resume"), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == golden.read_bytes()
