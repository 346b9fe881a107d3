"""Compact binary framing for HTTP log records (DESIGN.md §16).

TSV (:mod:`repro.http.log`) stays the interchange format; this module
is the ingestion fast path.  A binlog file is::

    file header   <8sII>   magic ``RPROBLOG``, version, reserved
    block*        <4sIII>  magic ``RBLK``, record count, payload byte
                           length, CRC-32 of the payload — followed by
                           the payload itself

and each record inside a block payload is a fixed-width struct
(timings, numeric fields, presence flags, and a nine-entry string
length table) followed by the UTF-8 bytes of its string fields,
concatenated.  The layout is record-boundary-first: a reader never
needs to scan for delimiters, so the hot loop is one
``Struct.unpack_from`` plus one bulk decode per record, with no
intermediate line or field allocations.

Integrity mirrors the ``RPROSNAP`` discipline (`filterlist/snapshot.py`):
magic + version up front, a checksum over every payload.  CRC-32 is
used instead of SHA-256 because a block is validated once per ~4096
records on the ingest hot path, and the protection target is storage or
truncation damage, not an adversary.  A damaged block routes through
the same strict/skip/quarantine :class:`~repro.robustness.ErrorPolicy`
as a malformed TSV line, consuming exactly one record ordinal so
quarantine claims and strict aborts stay deterministic across shard
workers (DESIGN.md §10).
"""

from __future__ import annotations

import math
import mmap
import struct
import zlib
from typing import Any, BinaryIO, Iterable, Iterator

from repro.http.log import (
    HttpLogRecord,
    _categorize,
    claims_line,
    shard_of,
)
from repro.robustness import ErrorPolicy, LogParseError, PipelineHealth, QuarantineWriter

__all__ = [
    "BINLOG_MAGIC",
    "BINLOG_VERSION",
    "DEFAULT_BLOCK_RECORDS",
    "BinLogReader",
    "write_binlog",
    "records_to_binary",
    "records_from_binary",
]

BINLOG_MAGIC = b"RPROBLOG"
BINLOG_VERSION = 1

_FILE_HEADER = struct.Struct("<8sII")  # magic, version, reserved
_BLOCK_MAGIC = b"RBLK"
_BLOCK_HEADER = struct.Struct("<4sIII")  # magic, record_count, payload_len, crc32

# Per-record fixed part: ts, tcp_handshake_ms, http_handshake_ms,
# status, content_length, flow_id, presence flags, then the byte
# lengths of the nine string fields in the order client, server,
# method, host, uri, referrer, user_agent, content_type, location.
# The strings' UTF-8 bytes follow, concatenated, in that same order.
_FIXED = struct.Struct("<dddiqqB9H")

_F_HTTP_MS = 0x01
_F_STATUS = 0x02
_F_CONTENT_LENGTH = 0x04
_F_REFERRER = 0x08
_F_USER_AGENT = 0x10
_F_CONTENT_TYPE = 0x20
_F_LOCATION = 0x40

#: Records per block: large enough that header+CRC overhead is noise,
#: small enough that a damaged block loses little and resume seeks stay
#: cheap (~0.5 MiB of payload at typical record sizes).
DEFAULT_BLOCK_RECORDS = 4096

_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)  # absent on Windows

_MAX_STRING_BYTES = 0xFFFF  # u16 length table


def _pack_record(record: HttpLogRecord, out: bytearray) -> None:
    """Append one record's framing to ``out``; ValueError if unrepresentable."""
    flags = 0
    http_ms = record.http_handshake_ms
    if http_ms is None:
        http_ms = 0.0
    else:
        flags |= _F_HTTP_MS
    status = record.status
    if status is None:
        status = 0
    else:
        flags |= _F_STATUS
    content_length = record.content_length
    if content_length is None:
        content_length = 0
    else:
        flags |= _F_CONTENT_LENGTH
    referrer = record.referrer
    if referrer is None:
        referrer = ""
    else:
        flags |= _F_REFERRER
    user_agent = record.user_agent
    if user_agent is None:
        user_agent = ""
    else:
        flags |= _F_USER_AGENT
    content_type = record.content_type
    if content_type is None:
        content_type = ""
    else:
        flags |= _F_CONTENT_TYPE
    location = record.location
    if location is None:
        location = ""
    else:
        flags |= _F_LOCATION
    if not (math.isfinite(record.ts) and math.isfinite(record.tcp_handshake_ms) and math.isfinite(http_ms)):
        raise ValueError("non-finite timing field")
    strings = (
        record.client.encode("utf-8"),
        record.server.encode("utf-8"),
        record.method.encode("utf-8"),
        record.host.encode("utf-8"),
        record.uri.encode("utf-8"),
        referrer.encode("utf-8"),
        user_agent.encode("utf-8"),
        content_type.encode("utf-8"),
        location.encode("utf-8"),
    )
    lengths = tuple(len(blob) for blob in strings)
    if max(lengths) > _MAX_STRING_BYTES:
        raise ValueError(f"string field exceeds {_MAX_STRING_BYTES} UTF-8 bytes")
    try:
        out += _FIXED.pack(
            record.ts,
            record.tcp_handshake_ms,
            http_ms,
            status,
            content_length,
            record.flow_id,
            flags,
            *lengths,
        )
    except struct.error as exc:
        raise ValueError(f"numeric field out of framing range: {exc}") from None
    for blob in strings:
        out += blob


def write_binlog(
    records: Iterable[HttpLogRecord],
    stream: BinaryIO,
    *,
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> int:
    """Write ``records`` in binlog framing; returns the record count.

    The binary sibling of :func:`repro.http.log.write_log`.  Unlike
    TSV's ``%09``/``%0A`` escaping — which cannot represent a field
    that literally contains those sequences — the framing is lossless
    for every :class:`HttpLogRecord` whose strings fit the u16 length
    table.
    """
    if block_records < 1:
        raise ValueError("block_records must be >= 1")
    stream.write(_FILE_HEADER.pack(BINLOG_MAGIC, BINLOG_VERSION, 0))
    payload = bytearray()
    in_block = 0
    total = 0
    for record in records:
        _pack_record(record, payload)
        in_block += 1
        total += 1
        if in_block >= block_records:
            _write_block(stream, payload, in_block)
            payload = bytearray()
            in_block = 0
    if in_block:
        _write_block(stream, payload, in_block)
    return total


def _write_block(stream: BinaryIO, payload: bytearray, count: int) -> None:
    stream.write(_BLOCK_HEADER.pack(_BLOCK_MAGIC, count, len(payload), zlib.crc32(payload)))
    stream.write(payload)


class BinLogReader:
    """Zero-copy binlog reader with the seekable-coordinate contract.

    Implements the same resumable surface as the TSV reader behind
    :class:`repro.http.log.SeekableLogReader` — ``offset`` (byte
    position after the last consumed frame), ``line_no`` (1-based
    record ordinal; damaged frames consume one ordinal), ``header``
    (always ``None``: the framing carries its schema in the version
    field) — so durable-run and shard-worker checkpoints compose
    unchanged.  The file is mapped read-only via :mod:`mmap` and
    decoded through ``Struct.unpack_from`` + one bulk string decode per
    record; nothing is copied until a record's own strings are built.

    Damage handling: a block is admitted (magic, bounds, CRC-32)
    before any of its records are yielded.  A frame that fails
    admission routes through the error policy once, then the reader
    resynchronizes — at the block's stated end when the header was
    sane, else by scanning for the next ``RBLK`` marker.  ``offset``
    strictly increases, so a corrupt tail terminates.
    """

    format = "bin"

    def __init__(
        self,
        file: BinaryIO,
        *,
        on_error: ErrorPolicy = ErrorPolicy.STRICT,
        health: PipelineHealth | None = None,
        quarantine: QuarantineWriter | None = None,
        shard: tuple[int, int] | None = None,
    ):
        self._file = file
        self.on_error = on_error
        self.health = health
        self.quarantine = quarantine
        self.shard = shard
        self.owned = True
        self.offset = 0
        self.line_no = 0
        self._mm: mmap.mmap | None = None
        raw: Any
        try:
            self._mm = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
            raw = self._mm
        except (ValueError, OSError):  # staticcheck: ok[RC002] - no fileno / empty file falls back to a read() copy
            file.seek(0)
            raw = file.read()
        self._raw = raw  # mmap or bytes; both support .find() for resync
        self._buf = memoryview(raw)
        self._size = len(self._buf)
        self._block_end = 0  # byte end of the block currently being decoded
        self._spent = 0  # page-aligned end of the mapping already given back

    @property
    def header(self) -> list[str] | None:
        return None

    def seek(self, *, offset: int, line_no: int, header: list[str] | None = None) -> None:
        """Restore a checkpointed position.

        ``header`` belongs to the TSV coordinate contract and is
        accepted and ignored.  For a mid-block ``offset`` the block
        chain is re-walked from the file header (header-only reads) to
        re-establish the record-framing boundary; payloads are not
        re-verified — the original run admitted this block before the
        checkpoint was cut, and the run manifest pins input identity.
        """
        del header
        self.offset = offset
        self.line_no = line_no
        self._block_end = 0
        if offset <= _FILE_HEADER.size:
            return
        pos = _FILE_HEADER.size
        while pos < offset:
            if pos + _BLOCK_HEADER.size > self._size:
                break
            magic, _count, payload_len, _crc = _BLOCK_HEADER.unpack_from(self._buf, pos)
            if magic != _BLOCK_MAGIC:
                break
            data_start = pos + _BLOCK_HEADER.size
            data_end = data_start + payload_len
            if data_end > self._size:
                break
            if data_start <= offset < data_end:
                self._block_end = data_end
                break
            pos = data_end
        # If the walk could not reach ``offset`` the file changed under
        # the manifest's nose; iteration re-enters at ``offset`` and the
        # damage policy takes it from there.

    def __iter__(self) -> Iterator[HttpLogRecord]:
        if self.offset == 0:
            self._read_file_header()
        unpack = _FIXED.unpack_from
        fixed_size = _FIXED.size
        buf = self._buf
        size = self._size
        shard = self.shard
        health = self.health
        workers = shard[1] if shard is not None else 0
        while True:
            offset = self.offset
            if offset >= self._block_end:
                if offset >= size:
                    return
                self._enter_block()
                continue
            block_end = self._block_end
            start = offset + fixed_size
            if start > block_end:
                self._damage("damaged block: record overruns block", offset, block_end)
                continue
            (
                ts, tcp_ms, http_ms, status, content_length, flow_id, flags,
                n0, n1, n2, n3, n4, n5, n6, n7, n8,
            ) = unpack(buf, offset)
            end = start + n0 + n1 + n2 + n3 + n4 + n5 + n6 + n7 + n8
            if end > block_end:
                self._damage("damaged block: record overruns block", offset, block_end)
                continue
            region = bytes(buf[start:end])
            if region.isascii():
                # ASCII fast path: one bulk decode, then O(1) slicing —
                # char offsets equal byte offsets.
                text = region.decode("ascii")
                a = n0
                client = text[:a]
                server = text[a : a + n1]; a += n1
                method = text[a : a + n2]; a += n2
                host = text[a : a + n3]; a += n3
                uri = text[a : a + n4]; a += n4
                referrer = text[a : a + n5]; a += n5
                user_agent = text[a : a + n6]; a += n6
                content_type = text[a : a + n7]; a += n7
                location = text[a : a + n8]
            else:
                try:
                    fields = _split_utf8(region, (n0, n1, n2, n3, n4, n5, n6, n7, n8))
                except ValueError:
                    self._damage("damaged block: undecodable string field", offset, block_end)
                    continue
                (client, server, method, host, uri,
                 referrer, user_agent, content_type, location) = fields
            record = HttpLogRecord(
                ts,
                client,
                server,
                method,
                host,
                uri,
                referrer if flags & _F_REFERRER else None,
                user_agent if flags & _F_USER_AGENT else None,
                status if flags & _F_STATUS else None,
                content_type if flags & _F_CONTENT_TYPE else None,
                content_length if flags & _F_CONTENT_LENGTH else None,
                location if flags & _F_LOCATION else None,
                tcp_ms,
                http_ms if flags & _F_HTTP_MS else None,
                flow_id,
            )
            self.offset = end
            self.line_no += 1
            if shard is not None:
                self.owned = shard_of(client, user_agent if flags & _F_USER_AGENT else "", workers) == shard[0]
            if health is not None and self.owned:
                health.record_ok()
            yield record

    def iter_shard(self) -> Iterator[tuple[HttpLogRecord, bool]]:
        """Yield every record with this shard's ownership flag."""
        for record in self:
            yield record, self.owned

    def _read_file_header(self) -> None:
        size = self._size
        if size < _FILE_HEADER.size:
            self._damage("unreadable binlog: truncated file header", 0, size)
            return
        magic, version, _reserved = _FILE_HEADER.unpack_from(self._buf, 0)
        if magic != BINLOG_MAGIC:
            self._damage("unreadable binlog: bad file magic", 0, size)
            return
        if version != BINLOG_VERSION:
            self._damage(f"unreadable binlog: unsupported version {version}", 0, size)
            return
        self.offset = _FILE_HEADER.size

    def _enter_block(self) -> None:
        start = self.offset
        size = self._size
        if start + _BLOCK_HEADER.size > size:
            self._damage("damaged block: truncated header", start, size)
            return
        magic, _count, payload_len, crc = _BLOCK_HEADER.unpack_from(self._buf, start)
        if magic != _BLOCK_MAGIC:
            self._damage("damaged block: bad magic", start, None)
            return
        data_start = start + _BLOCK_HEADER.size
        data_end = data_start + payload_len
        if data_end > size:
            self._damage(
                f"damaged block: torn payload ({size - data_start} of {payload_len} bytes)",
                start,
                size,
            )
            return
        if zlib.crc32(self._buf[data_start:data_end]) != crc:
            self._damage("damaged block: checksum mismatch", start, data_end)
            return
        self._block_end = data_end
        self.offset = data_start
        # The blocks behind this one are decoded: give their pages back,
        # so that a consumer holding the reader open keeps one block of
        # the input resident, not all of it.  (A later seek() backwards
        # faults them in again.)
        spent = start - start % mmap.PAGESIZE
        if self._mm is not None and spent > self._spent and _MADV_DONTNEED is not None:
            self._mm.madvise(_MADV_DONTNEED, self._spent, spent - self._spent)
            self._spent = spent

    def _damage(self, reason: str, at: int, resync_to: int | None) -> None:
        """Route one damaged frame through the error policy, then resync.

        Consumes exactly one record ordinal (``line_no``) so strict
        aborts and quarantine claims stay deterministic across shard
        workers.  ``resync_to`` is the next trustworthy byte position;
        ``None`` means the frame's own length cannot be trusted, so
        scan forward for the next ``RBLK`` marker.
        """
        if resync_to is None:
            found = self._raw.find(_BLOCK_MAGIC, at + 1)
            resync_to = found if found != -1 else self._size
        self.offset = resync_to
        self.line_no += 1
        pseudo = f"<binlog frame at byte {at}>"
        if self.on_error is ErrorPolicy.STRICT:
            raise LogParseError(self.line_no, reason, pseudo)
        if self.shard is not None and not claims_line(self.line_no, *self.shard):
            return
        quarantined = False
        if self.on_error is ErrorPolicy.QUARANTINE and self.quarantine is not None:
            self.quarantine.write(self.line_no, reason, pseudo)
            quarantined = True
        if self.health is not None:
            self.health.record_error("read_log", _categorize(reason), quarantined=quarantined)

    def close(self) -> None:
        self._buf.release()
        if self._mm is not None:
            self._mm.close()
        self._file.close()

    def __enter__(self) -> "BinLogReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _split_utf8(region: bytes, lengths: tuple[int, ...]) -> list[str]:
    """Slice ``region`` by the length table and decode each field."""
    fields = []
    a = 0
    for n in lengths:
        fields.append(region[a : a + n].decode("utf-8"))
        a += n
    return fields


def records_to_binary(
    records: Iterable[HttpLogRecord], *, block_records: int = DEFAULT_BLOCK_RECORDS
) -> bytes:
    """Serialize records to in-memory binlog bytes."""
    import io

    buffer = io.BytesIO()
    write_binlog(records, buffer, block_records=block_records)
    return buffer.getvalue()


def records_from_binary(data: bytes) -> list[HttpLogRecord]:
    """Inverse of :func:`records_to_binary` (strict policy)."""
    import io

    with BinLogReader(io.BytesIO(data)) as reader:
        return list(reader)
