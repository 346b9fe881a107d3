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
import struct
import subprocess
import sys
import zlib

import pytest

from repro.core import AdClassificationPipeline
from repro.http.binlog import (
    BINLOG_MAGIC,
    BinLogReader,
    BinlogVersionError,
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


def _blocks(data: bytes) -> list[tuple[int, int]]:
    """``(header offset, payload length)`` of every block in ``data``."""
    spans = []
    pos = 16  # file header <8sII>
    while pos < len(data):
        magic, _count, payload_len, _crc = struct.unpack_from("<4sIII", data, pos)
        assert magic == b"RBLK"
        spans.append((pos, payload_len))
        pos += 16 + payload_len  # block header <4sIII>
    return spans


class TestStringTable:
    def test_repeated_fields_are_one_object(self):
        # Fresh strings per record on the way in; one object per
        # distinct value of a block on the way out.
        records = [
            _record(i, client=f"10.0.0.{i % 2}", user_agent=f"Agent/{i % 3}",
                    referrer=f"http://news{i % 4}.de/")
            for i in range(24)
        ]
        decoded = records_from_binary(records_to_binary(records))
        assert decoded == records
        for a in decoded:
            for b in decoded:
                if a.client == b.client:
                    assert a.client is b.client
                if a.user_agent == b.user_agent:
                    assert a.user_agent is b.user_agent
                if a.referrer == b.referrer:
                    assert a.referrer is b.referrer

    def test_distinct_strings_stored_once(self):
        one = records_to_binary([_record(0)])
        repeated = records_to_binary([_record(0, flow_id=i) for i in range(100)])
        fixed = struct.calcsize("<dddiqqB9H")
        assert len(repeated) - len(one) == 99 * fixed

    def test_table_overflow_closes_block_early(self):
        # 9 distinct strings per record: 8,000 records would need a
        # 72,000-entry table, past the u16 index range.
        records = [
            _record(
                i, client=f"c{i}", server=f"s{i}", method=f"m{i}", host=f"h{i}",
                uri=f"/u{i}", referrer=f"r{i}", user_agent=f"a{i}",
                content_type=f"t{i}", location=f"l{i}",
            )
            for i in range(8000)
        ]
        data = records_to_binary(records, block_records=8000)
        assert len(_blocks(data)) >= 2
        assert records_from_binary(data) == records

    def test_writer_is_deterministic(self):
        records = [_record(i) for i in range(300)]
        data = records_to_binary(records, block_records=64)
        assert records_to_binary(records_from_binary(data), block_records=64) == data


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


def _tamper_block(data: bytes, which: int, edit) -> bytes:
    """Apply ``edit`` to block ``which``'s payload and re-seal its CRC,
    so that only the in-block checks can see the damage."""
    data = bytearray(data)
    pos, payload_len = _blocks(bytes(data))[which]
    start = pos + 16
    payload = bytearray(data[start : start + payload_len])
    edit(payload)
    data[start : start + payload_len] = payload
    struct.pack_into("<I", data, pos + 12, zlib.crc32(payload))
    return bytes(data)


def _index_out_of_range(payload: bytearray) -> None:
    _count, n_strings = struct.unpack_from("<II", payload, 0)
    lengths = struct.unpack_from(f"<{n_strings}H", payload, 8)
    first_record = 8 + 2 * n_strings + sum(lengths)
    client_index = struct.calcsize("<dddiqqB")
    struct.pack_into("<H", payload, first_record + client_index, n_strings)


def _undecodable_table(payload: bytearray) -> None:
    _count, n_strings = struct.unpack_from("<II", payload, 0)
    payload[8 + 2 * n_strings] = 0xFF  # first byte of the first string


class TestInBlockDamage:
    """CRC-valid blocks whose table or indexes are wrong: each costs its
    block and one record ordinal, under every policy."""

    @pytest.fixture(params=[_index_out_of_range, _undecodable_table], ids=["index", "table"])
    def damaged(self, request, tmp_path):
        records, path = _write_corpus(tmp_path, n=600, block_records=64)
        bad = tmp_path / "in-block.bin"
        bad.write_bytes(_tamper_block(path.read_bytes(), 2, request.param))
        return records, bad

    def test_strict_raises(self, damaged):
        _records, bad = damaged
        with pytest.raises(LogParseError, match="block") as abort:
            with SeekableLogReader(str(bad)) as reader:
                list(reader)
        assert abort.value.line_no == 2 * 64 + 1

    def test_skip_loses_exactly_the_block(self, damaged):
        records, bad = damaged
        health = PipelineHealth()
        with SeekableLogReader(str(bad), on_error=ErrorPolicy.SKIP, health=health) as reader:
            kept = list(reader)
            assert reader.line_no == len(records) - 64 + 1
        assert kept == records[: 2 * 64] + records[3 * 64 :]
        assert health.records_dropped == 1

    def test_quarantine_writes_one_line(self, damaged, tmp_path):
        records, bad = damaged
        sidecar = tmp_path / "q.tsv"
        quarantine = QuarantineWriter.open(str(sidecar))
        try:
            with SeekableLogReader(
                str(bad), on_error=ErrorPolicy.QUARANTINE, quarantine=quarantine,
            ) as reader:
                kept = list(reader)
        finally:
            quarantine.close()
        assert quarantine.count == 1
        lines = [line for line in sidecar.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == 1 and "damaged block" in lines[0]
        assert len(kept) == len(records) - 64


class TestVersion:
    def test_v1_header_is_refused_under_every_policy(self, tmp_path):
        path = tmp_path / "v1.bin"
        path.write_bytes(BINLOG_MAGIC + struct.pack("<II", 1, 0))
        for policy in ErrorPolicy:
            with pytest.raises(BinlogVersionError) as refusal:
                SeekableLogReader(str(path), on_error=policy)
            message = str(refusal.value)
            assert "version 1" in message and "version 2" in message
            assert "repro convert" in message


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

    def test_resume_at_record_reusing_earlier_strings(self, tmp_path):
        # Clients cycle over five values, so the record after the cut
        # reuses strings its block first used before the cut: the
        # resumed reader must rebuild that block's table.
        records = [_record(i, client=f"10.0.0.{i % 5}") for i in range(200)]
        path = tmp_path / "cycle.bin"
        path.write_bytes(records_to_binary(records, block_records=64))
        stop_after = 64 + 37
        assert records[stop_after].client in {r.client for r in records[64:stop_after]}
        with SeekableLogReader(str(path)) as reader:
            iterator = iter(reader)
            for _ in range(stop_after):
                next(iterator)
            coords = dict(offset=reader.offset, line_no=reader.line_no, header=reader.header)
        with SeekableLogReader(str(path)) as reader:
            reader.seek(**coords)
            suffix = list(reader)
            assert reader.line_no == len(records)
        assert suffix == records[stop_after:]
        assert suffix[0].user_agent is suffix[1].user_agent

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


@pytest.mark.slow
class TestCliVersionRefusal:
    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["serial", "pool"])
    @pytest.mark.parametrize("policy", ["strict", "skip", "quarantine"])
    def test_v1_binlog_exits_1_and_names_convert(self, tmp_path, policy, workers):
        path = tmp_path / "v1.bin"
        path.write_bytes(BINLOG_MAGIC + struct.pack("<II", 1, 0))
        out = tmp_path / "out.tsv"
        proc = _cli(
            ["classify", *_ECO, "--trace", str(path), "--out", str(out),
             "--on-error", policy, *workers],
            tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        assert "version 1" in proc.stderr and "version 2" in proc.stderr
        assert "repro convert" in proc.stderr
        assert "--on-error" not in proc.stderr
        # No output, no .part file and no quarantine sidecar.
        assert [entry.name for entry in tmp_path.iterdir()] == ["v1.bin"]
