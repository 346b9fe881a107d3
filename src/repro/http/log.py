"""Bro-style TSV log records for HTTP transactions.

The paper's pipeline runs on logs produced by the Bro HTTP analyzer
rather than raw packets; here :func:`repro.trace.records.render_visit`
writes those rows directly from emulated browser visits, and no packets
exist.  :class:`HttpLogRecord` mirrors the fields the paper lists in
§3.1 — Host, URI, Referer, Content-Type, Content-Length and (their Bro
extension) Location — plus the timing fields §8.2 needs.  Logs
round-trip through a plain TSV format so experiments can be staged to
disk.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass, fields
from math import isfinite
from operator import itemgetter
from typing import Callable, Iterable, Iterator, TextIO

from repro.http.url import absolute_url
from repro.robustness import ErrorPolicy, LogParseError, PipelineHealth, QuarantineWriter

__all__ = [
    "HttpLogRecord",
    "write_log",
    "encode_field",
    "read_log",
    "SeekableLogReader",
    "shard_of",
]

_UNSET = "-"


@dataclass(slots=True)
class HttpLogRecord:
    """One line of the HTTP log: one request and its response."""

    ts: float
    client: str
    server: str
    method: str
    host: str
    uri: str
    referrer: str | None
    user_agent: str | None
    status: int | None
    content_type: str | None
    content_length: int | None
    location: str | None
    tcp_handshake_ms: float
    http_handshake_ms: float | None
    flow_id: int

    @property
    def url(self) -> str:
        return absolute_url(self.host, self.uri)

    def to_row(self) -> tuple:
        """Field values in schema order — the checkpoint wire form."""
        return tuple(getattr(self, name) for name in _FIELD_NAMES)

    @classmethod
    def from_row(cls, row: tuple) -> "HttpLogRecord":
        """Inverse of :meth:`to_row`."""
        return cls(*row)


_FIELD_NAMES = [f.name for f in fields(HttpLogRecord)]


def encode_field(value: object) -> str:
    """``value`` as one TSV token: ``None`` is ``-``, and a value's own TAB
    and LF are spelled ``%09``/``%0A``, so one row is always one line."""
    return _UNSET if value is None else str(value).replace("\t", "%09").replace("\n", "%0A")


# Bro-style cap on a single field; anything longer is capture damage
# (or an adversarially inflated header), not a legitimate value.
_MAX_FIELD_LEN = 8192


def _float(token: str) -> float:
    value = float(token)
    if not isfinite(value):
        raise ValueError("non-finite")
    return value


# The numeric columns; every other column is text and kept as it is.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "ts": _float, "tcp_handshake_ms": _float, "http_handshake_ms": _float,
    "status": int, "content_length": int, "flow_id": int,
}

# Columns where ``-`` means "no value"; in any other it is damage.
_NULLABLE = frozenset(
    "referrer user_agent status content_type content_length location http_handshake_ms".split()
)


def write_log(records: Iterable[HttpLogRecord], stream: TextIO) -> int:
    """Write records as TSV with a header line; returns line count."""
    stream.write("#" + "\t".join(_FIELD_NAMES) + "\n")
    count = 0
    for record in records:
        row = [encode_field(getattr(record, name)) for name in _FIELD_NAMES]
        stream.write("\t".join(row) + "\n")
        count += 1
    return count


# Fields old logs may legitimately lack (added after the format froze);
# anything else missing from a row is damage, not version skew.
_OPTIONAL_DEFAULTS = {"tcp_handshake_ms": 0.0, "flow_id": 0}

# Stable low-cardinality keys for the health counters.
_REASON_CATEGORIES = [
    ("expected ", "field-count"),
    ("oversized field", "oversized-field"),
    ("bad value", "bad-value"),
    ("missing fields", "missing-fields"),
    ("damaged block", "damaged-block"),
    ("unreadable binlog", "damaged-file"),
]


def _categorize(reason: str) -> str:
    for prefix, category in _REASON_CATEGORIES:
        if reason.startswith(prefix):
            return category
    return "other"


def shard_of(client: str, user_agent: str, workers: int) -> int:
    """Shard index owning user ``(client, user_agent)`` out of ``workers``.

    The parallel execution layer (DESIGN.md §10) splits work by *user*
    — the paper's per-user accounting is independent between users —
    so every record of a user lands on the same worker.  CRC-32 is
    stable across Python versions and processes (unlike ``hash()``,
    which PYTHONHASHSEED salts), which the run manifest relies on when
    a resumed run must reproduce the original sharding.
    """
    key = f"{client}\x00{user_agent}".encode("utf-8", errors="surrogatepass")
    return zlib.crc32(key) % workers


class _LineHandler:
    """Shared per-line parse path of :func:`read_log` and
    :class:`SeekableLogReader`: header adoption, decoding, and the
    error-policy routing (strict raise / skip / quarantine).

    The row decoder is compiled per header (:meth:`adopt`), applied per
    line (:meth:`handle`), and only a refused line pays for finding out
    why (:meth:`_reason`) — DESIGN.md §16, "TSV decode".

    With ``shard=(k, W)`` the handler still *parses* every line — all
    workers must agree on global record positions — but accounts for a
    parsed record only if shard ``k`` owns its user, and for a malformed
    line only if ``k`` is shard 0, which reports every one, in line
    order (DESIGN.md §10).  Strict mode raises in every worker: the
    abort must not depend on which shard meets the bad line.  After
    each parsed record, :attr:`owned` says whether this shard owns it.
    """

    __slots__ = ("header", "on_error", "health", "quarantine", "shard", "owned",
                 "_columns", "_numeric", "_nullable", "_defaults", "_pick", "_defect")

    def __init__(
        self,
        *,
        on_error: ErrorPolicy,
        health: PipelineHealth | None,
        quarantine: QuarantineWriter | None,
        shard: tuple[int, int] | None = None,
    ):
        self.adopt(None)
        self.on_error = on_error
        self.health = health
        self.quarantine = quarantine
        self.shard = shard
        self.owned = True

    def adopt(self, header: list[str] | None) -> None:
        """Decode later lines under ``header`` (``None``: the schema's own order)."""
        self.header = header
        self._columns = columns = _FIELD_NAMES if header is None else header
        self._numeric = [(i, _CONVERTERS[n]) for i, n in enumerate(columns) if n in _CONVERTERS]
        self._nullable = [i for i, n in enumerate(columns) if n in _NULLABLE]
        absent = [name for name in _OPTIONAL_DEFAULTS if name not in columns]
        self._defaults = [_OPTIONAL_DEFAULTS[name] for name in absent]
        # Where each name's value is in a line's tokens + defaults (a repeated name: the last).
        column = {name: i for i, name in enumerate(columns + absent)}
        self._pick = itemgetter(*(column[name] for name in _FIELD_NAMES if name in column))
        # A header lacking a required column refuses every line, after the line's own damage.
        missing = [name for name in _FIELD_NAMES if name not in column]
        self._defect = f"missing fields: {', '.join(missing)}" if missing else ""

    def _reason(self, line: str) -> str:
        """Why :meth:`handle` refused ``line``: the first failing column
        in header order decides, so the fast path need not keep track."""
        tokens = line.split("\t")
        if len(tokens) != len(self._columns):
            return f"expected {len(self._columns)} fields, got {len(tokens)}"
        for name, token in zip(self._columns, tokens):
            if len(token) > _MAX_FIELD_LEN:
                return f"oversized field '{name}' ({len(token)} chars)"
            try:
                if token != _UNSET:
                    _CONVERTERS.get(name, str)(token.replace("%09", "\t").replace("%0A", "\n"))
                elif name not in _NULLABLE:
                    raise ValueError("unset")
            except ValueError:
                return f"bad value for field '{name}': {token[:80]!r}"
        return self._defect

    def handle(self, line: str, line_no: int) -> HttpLogRecord | None:
        """Parse one line as read, terminator and all; ``None`` for non-records."""
        # One terminator, ``\n`` or ``\r\n``: left on, ``\r`` poisons the last field
        # of every record of a CRLF log; ``rstrip("\r\n")`` would eat a value's own.
        if line.endswith("\n"):
            line = line[:-1]
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            return None
        if line.startswith("#"):
            candidate = line[1:].split("\t")
            # Adopt a header only if its names are plausible; a garbled
            # comment must not poison the parse of every later line.
            if set(candidate) <= set(_FIELD_NAMES):
                self.adopt(candidate)
            return None
        tokens: list = line.split("\t")
        try:
            oversized = len(line) > _MAX_FIELD_LEN and max(map(len, tokens)) > _MAX_FIELD_LEN
            if oversized or len(tokens) != len(self._columns) or self._defect:
                raise ValueError
            if "%0" in line:
                tokens = [token.replace("%09", "\t").replace("%0A", "\n") for token in tokens]
            for i in self._nullable:
                if tokens[i] == _UNSET:
                    tokens[i] = None
            for i, convert in self._numeric:
                if tokens[i] is not None:
                    tokens[i] = convert(tokens[i])
            if _UNSET in tokens:  # only text that must be set can still read so
                raise ValueError
            record = HttpLogRecord(*self._pick(tokens + self._defaults))
        except ValueError:
            reason = self._reason(line)
            if self.on_error is ErrorPolicy.STRICT:
                raise LogParseError(line_no, reason, line) from None
            if self.shard is not None and self.shard[0]:
                return None  # shard 0 reports malformed lines
            quarantined = False
            if self.on_error is ErrorPolicy.QUARANTINE and self.quarantine is not None:
                self.quarantine.write(line_no, reason, line)
                quarantined = True
            if self.health is not None:
                self.health.record_error("read_log", _categorize(reason), quarantined=quarantined)
            return None
        if self.shard is not None:
            self.owned = shard_of(record.client, record.user_agent or "", self.shard[1]) == self.shard[0]
        if self.health is not None and self.owned:
            self.health.record_ok()
        return record


def read_log(
    stream: TextIO,
    *,
    on_error: ErrorPolicy = ErrorPolicy.STRICT,
    health: PipelineHealth | None = None,
    quarantine: QuarantineWriter | None = None,
) -> Iterator[HttpLogRecord]:
    """Read records written by :func:`write_log`.

    Malformed lines are routed through ``on_error``: ``STRICT`` raises
    :class:`LogParseError` citing the 1-based line number, ``SKIP``
    drops and counts them in ``health``, ``QUARANTINE`` additionally
    writes the raw line to the ``quarantine`` sidecar.
    """
    handler = _LineHandler(on_error=on_error, health=health, quarantine=quarantine)
    for line_no, line in enumerate(stream, start=1):
        record = handler.handle(line, line_no)
        if record is not None:
            yield record


class _TextLogReader(_LineHandler):
    """TSV backend of :class:`SeekableLogReader`: line-at-a-time binary
    reads with the coordinates (`offset`/`line_no`/`header`) a durable
    checkpoint stores."""

    format = "tsv"

    def __init__(self, file, **policy):
        super().__init__(**policy)
        self._file = file
        self.offset = 0
        self.line_no = 0

    def seek(self, *, offset: int, line_no: int, header: list[str] | None) -> None:
        self._file.seek(offset)
        self.offset = offset
        self.line_no = line_no
        self.adopt(header)

    def __iter__(self) -> Iterator[HttpLogRecord]:
        handle = self.handle
        for raw in self._file:
            self.offset += len(raw)
            self.line_no += 1
            record = handle(raw.decode("utf-8", errors="replace"), self.line_no)
            if record is not None:
                yield record

    def close(self) -> None:
        self._file.close()


class SeekableLogReader:
    """Record iterator over an on-disk log with byte-offset accounting.

    Durable runs (DESIGN.md §8) checkpoint their input position between
    records and later continue mid-file, so this reader maintains three
    resumable coordinates:

    * ``offset`` — byte position after the last consumed frame (a TSV
      line, or a binlog record / damaged frame);
    * ``line_no`` — 1-based ordinal of the last consumed frame;
    * ``header`` — the adopted column header (TSV only; ``None`` for
      binlog), which may precede the resume point and must therefore
      travel in the checkpoint.

    The coordinates update *before* a record is yielded, so at yield
    time they already describe the post-record position a checkpoint
    should store.  Error-policy routing matches :func:`read_log`.

    The on-disk format is sniffed from the leading magic: a file that
    opens with ``RPROBLOG`` takes the memory-mapped binary fast path
    (:class:`repro.http.binlog.BinLogReader`, DESIGN.md §16); anything
    else is read as TSV.  Both backends expose identical coordinate
    semantics, so `--resume`, `--workers` sharding, and quarantine
    accounting compose with either format unchanged.
    """

    def __init__(
        self,
        path: str,
        *,
        on_error: ErrorPolicy = ErrorPolicy.STRICT,
        health: PipelineHealth | None = None,
        quarantine: QuarantineWriter | None = None,
        shard: tuple[int, int] | None = None,
    ):
        from repro.http import binlog  # local import: binlog builds on this module

        file = open(path, "rb")
        try:
            magic = file.read(len(binlog.BINLOG_MAGIC))
            file.seek(0)
            backend = binlog.BinLogReader if magic == binlog.BINLOG_MAGIC else _TextLogReader
            self._impl: _TextLogReader | binlog.BinLogReader = backend(
                file, on_error=on_error, health=health, quarantine=quarantine, shard=shard
            )
        except BaseException:  # cleanup-and-reraise, nothing swallowed
            file.close()
            raise

    @property
    def format(self) -> str:
        """``"tsv"`` or ``"bin"`` — the sniffed on-disk format."""
        return self._impl.format

    @property
    def offset(self) -> int:
        return self._impl.offset

    @property
    def line_no(self) -> int:
        return self._impl.line_no

    @property
    def header(self) -> list[str] | None:
        return self._impl.header

    def position(self) -> dict:
        """The three coordinates as a checkpoint keeps them: the inverse
        of ``seek(**position)``."""
        return {"offset": self.offset, "line_no": self.line_no, "header": self.header}

    def seek(self, *, offset: int, line_no: int, header: list[str] | None) -> None:
        """Restore a checkpointed position (and the header adopted before it)."""
        self._impl.seek(offset=offset, line_no=line_no, header=header)

    def __iter__(self) -> Iterator[HttpLogRecord]:
        return iter(self._impl)

    def iter_shard(self) -> Iterator[tuple[HttpLogRecord, bool]]:
        """Yield every parsed record with its ownership flag.

        Shard workers (DESIGN.md §10) need the full parsed stream — a
        record owned by another shard still occupies a global ingest
        index and feeds the replicated reorder heap — plus a flag
        saying whether this shard classifies it.  Without a ``shard``
        every record is owned, which makes one-worker pools exercise
        the same path.
        """
        impl = self._impl
        for record in impl:
            yield record, impl.owned

    def close(self) -> None:
        self._impl.close()

    def __enter__(self) -> "SeekableLogReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def records_to_text(records: Iterable[HttpLogRecord]) -> str:
    """Serialize records to an in-memory TSV string."""
    buffer = io.StringIO()
    write_log(records, buffer)
    return buffer.getvalue()


def records_from_text(text: str) -> list[HttpLogRecord]:
    """Inverse of :func:`records_to_text`."""
    return list(read_log(io.StringIO(text)))
