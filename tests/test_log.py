"""Unit tests for repro.http.log (TSV log records)."""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.http.log import (
    HttpLogRecord,
    SeekableLogReader,
    read_log,
    records_from_text,
    records_to_text,
    write_log,
)
from repro.robustness import ErrorPolicy, LogParseError, QuarantineWriter, read_quarantine


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


class TestRoundTrip:
    def test_basic_roundtrip(self):
        records = [_record(), _record(ts=1001.0, status=302, location="http://t.example/")]
        parsed = records_from_text(records_to_text(records))
        assert parsed == records

    def test_none_fields(self):
        record = _record(referrer=None, user_agent=None, status=None,
                         content_type=None, content_length=None, http_handshake_ms=None)
        parsed = records_from_text(records_to_text([record]))[0]
        assert parsed.referrer is None
        assert parsed.status is None
        assert parsed.http_handshake_ms is None

    def test_tab_and_newline_escaped(self):
        record = _record(user_agent="weird\tUA\nagent")
        parsed = records_from_text(records_to_text([record]))[0]
        assert parsed.user_agent == "weird\tUA\nagent"

    def test_write_returns_count(self):
        buffer = io.StringIO()
        assert write_log([_record(), _record()], buffer) == 2

    def test_read_skips_blank_lines(self):
        text = records_to_text([_record()]) + "\n\n"
        assert len(list(read_log(io.StringIO(text)))) == 1


class TestRecordUrl:
    """Regression: an absolute-form URI whose scheme is not lower-case
    was glued onto the Host (``http://site.exampleHTTP://x/y``)."""

    @pytest.mark.parametrize("uri", ["HTTP://x.example/y", "Https://x.example/y?q=1",
                                     "http://x.example/y", "hTtPs://X.example"])
    def test_absolute_form_is_the_url_in_any_case(self, uri):
        assert _record(uri=uri).url == uri

    @pytest.mark.parametrize("uri", ["/x?y=1", "/http://x.example/", "httpx://x/", "http:/x"])
    def test_origin_form_is_glued_onto_the_host(self, uri):
        assert _record(uri=uri).url == f"http://site.example{uri}"

    def test_split_sees_the_absolute_host(self):
        from repro.http.url import split_url

        parts = split_url(_record(uri="HTTP://Ads.Example:8080/a.gif").url)
        assert (parts.scheme, parts.host, parts.port, parts.path) == ("http", "ads.example", 8080, "/a.gif")


class TestCrlfHandling:
    """Regression: a CRLF-terminated log must not poison the last field
    (``rstrip("\\n")`` alone left a trailing ``\\r`` on ``flow_id``)."""

    def test_read_log_strips_crlf(self):
        records = [_record(), _record(ts=1001.0, flow_id=8)]
        crlf_text = records_to_text(records).replace("\n", "\r\n")
        parsed = list(read_log(io.StringIO(crlf_text, newline="")))
        assert parsed == records

    def test_seekable_reader_strips_crlf(self, tmp_path):
        records = [_record(), _record(ts=1001.0, flow_id=8)]
        path = tmp_path / "crlf.tsv"
        path.write_bytes(records_to_text(records).replace("\n", "\r\n").encode())
        with SeekableLogReader(str(path)) as reader:
            assert list(reader) == records
            # offsets still count the real on-disk bytes, CR included
            assert reader.offset == path.stat().st_size

    def test_value_trailing_cr_preserved(self):
        # Only the line terminator is stripped — a field whose value
        # ends in a (escaped) newline keeps it.
        record = _record(uri="/seen\n")
        assert records_from_text(records_to_text([record])) == [record]


CANONICAL = [field.name for field in dataclasses.fields(HttpLogRecord)]
REQUIRED = ["ts", "client", "server", "method", "host", "uri", "tcp_handshake_ms", "flow_id"]


def _line(columns=CANONICAL, **tokens) -> str:
    """One data line of ``_record()``, ``tokens`` replacing columns verbatim."""
    row = dict(zip(CANONICAL, records_to_text([_record()]).splitlines()[1].split("\t")))
    row.update(tokens)
    return "\t".join(row[name] for name in columns)


def _text(*lines, columns=CANONICAL) -> str:
    return "".join(line + "\n" for line in ("#" + "\t".join(columns), *lines))


@pytest.fixture(params=["read_log", "seekable"])
def read(request, tmp_path):
    """``read(text) -> (records, [(line_no, reason)])`` under the
    quarantine policy, through :func:`read_log` or the file reader."""

    def run(text: str):
        sidecar = io.StringIO()
        policy = dict(on_error=ErrorPolicy.QUARANTINE, quarantine=QuarantineWriter(sidecar))
        if request.param == "read_log":
            records = list(read_log(io.StringIO(text), **policy))
        else:
            path = tmp_path / "log.tsv"
            path.write_text(text)
            with SeekableLogReader(str(path), **policy) as reader:
                records = list(reader)
        refused = read_quarantine(io.StringIO(sidecar.getvalue()))
        return records, [(line_no, reason) for line_no, reason, _ in refused]

    return run


class TestReasons:
    """The reason a line is refused: its text, and which defect wins."""

    def test_first_failing_column_decides(self, read):
        big = "h" * 9000
        records, refused = read(_text(
            _line(client="-", host=big),               # bad value in column 2, oversized column 5
            _line(client="-", host=big) + "\textra",   # a wrong token count beats both
            _line(host=big, status="2oo"),             # oversized column 5, bad value in column 9
            _line(ts="nan", client="c" * 9000),
            _line(),
        ))
        assert records == [_record()]
        assert refused == [
            (2, "bad value for field 'client': '-'"),
            (3, "expected 15 fields, got 16"),
            (4, "oversized field 'host' (9000 chars)"),
            (5, "bad value for field 'ts': 'nan'"),
        ]

    def test_bad_value_quotes_at_most_80_chars(self, read):
        _, refused = read(_text(_line(content_length="9" * 50 + "x" * 50)))
        assert refused == [(2, f"bad value for field 'content_length': {'9' * 50 + 'x' * 30!r}")]

    @pytest.mark.parametrize("name", ["ts", "tcp_handshake_ms", "http_handshake_ms"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_floats_refused(self, read, name, token):
        records, refused = read(_text(_line(**{name: token})))
        assert records == []
        assert refused == [(2, f"bad value for field '{name}': {token!r}")]

    def test_escape_inside_a_numeric_token_still_parses(self, read):
        # float() and int() strip whitespace, and %09 is unescaped
        # before they run: "%091000.5" has always read as 1000.5.
        records, refused = read(_text(_line(ts="%091000.5", status="200%0A")))
        assert records == [_record()] and refused == []

    @pytest.mark.parametrize("name", REQUIRED)
    def test_unset_required_column_refused(self, read, name):
        records, refused = read(_text(_line(**{name: "-"}), _line()))
        assert records == [_record()]
        assert refused == [(2, f"bad value for field '{name}': '-'")]

    def test_unset_nullable_columns_read_none(self, read):
        nullable = [name for name in CANONICAL if name not in REQUIRED]
        records, refused = read(_text(_line(**dict.fromkeys(nullable, "-"))))
        assert records == [_record(**dict.fromkeys(nullable))] and refused == []

    def test_unset_required_column_is_typed_under_strict(self):
        with pytest.raises(LogParseError, match="bad value for field 'uri': '-'"):
            list(read_log(io.StringIO(_text(_line(uri="-")))))


class TestHeaders:
    """What a ``#`` line decides for the data lines after it."""

    def test_reordered_columns(self, read):
        columns = CANONICAL[::-1]
        records, refused = read(_text(_line(columns), _line(columns, status="x"), columns=columns))
        assert records == [_record()]
        assert refused == [(3, "bad value for field 'status': 'x'")]

    def test_old_log_without_optional_columns(self, read):
        columns = [name for name in CANONICAL if name not in ("tcp_handshake_ms", "flow_id")]
        records, refused = read(_text(_line(columns), columns=columns))
        assert records == [_record(tcp_handshake_ms=0.0, flow_id=0)] and refused == []

    def test_header_missing_a_required_column_refuses_every_row(self, read):
        columns = [name for name in CANONICAL if name not in ("host", "uri", "flow_id")]
        records, refused = read(_text(
            _line(columns), _line(columns, ts="??"), _line(columns) + "\tx", columns=columns
        ))
        assert records == []
        assert refused == [
            (2, "missing fields: host, uri"),
            (3, "bad value for field 'ts': '??'"),  # the line's own damage is named first
            (4, "expected 12 fields, got 13"),
        ]

    def test_garbled_comment_is_not_adopted(self, read):
        records, refused = read(_text(_line(), "#ts\tclient\tnonsense", _line(), "#", _line()))
        assert records == [_record()] * 3 and refused == []

    def test_repeated_column_last_one_counts(self, read):
        columns = ["status"] + CANONICAL
        records, refused = read(_text(
            "404\t" + _line(), "4o4\t" + _line(), "-\t" + _line(), columns=columns
        ))
        assert records == [_record()] * 2
        assert refused == [(3, "bad value for field 'status': '4o4'")]

    def test_header_changes_mid_file(self, read):
        short = CANONICAL[:-1]
        text = _text(_line()) + _text(_line(short), _line(), columns=short) + _text(_line())
        records, refused = read(text)
        assert records == [_record(), _record(flow_id=0), _record()]
        assert refused == [(5, "expected 14 fields, got 15")]

    def test_no_header_means_schema_order(self, read):
        records, refused = read(_line() + "\n")
        assert records == [_record()] and refused == []

    def test_header_is_carried_across_seek(self, tmp_path):
        columns = CANONICAL[::-1]
        path = tmp_path / "log.tsv"
        path.write_text(_text(*[_line(columns, flow_id=str(i)) for i in range(4)], columns=columns))
        with SeekableLogReader(str(path)) as reader:
            stream = iter(reader)
            head = [next(stream), next(stream)]
            position = dict(offset=reader.offset, line_no=reader.line_no, header=reader.header)
        assert position["header"] == columns and position["line_no"] == 3
        with SeekableLogReader(str(path)) as reader:
            reader.seek(**position)
            tail = list(reader)
            assert reader.line_no == 5 and reader.header == columns
        assert head + tail == [_record(flow_id=i) for i in range(4)]
        # Without the header the same bytes are schema-order rows, and refused.
        with SeekableLogReader(str(path), on_error=ErrorPolicy.SKIP) as reader:
            reader.seek(**{**position, "header": None})
            assert list(reader) == [] and reader.header is None


class TestUrlProperty:
    def test_relative_uri(self):
        assert _record().url == "http://site.example/x?y=1"

    def test_absolute_uri(self):
        record = _record(uri="http://other.example/z")
        assert record.url == "http://other.example/z"
