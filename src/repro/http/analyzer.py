"""Bro-style HTTP analyzer: TCP segments -> HTTP transaction log.

This is the reproduction's analogue of the Bro (Zeek) HTTP analyzer the
paper uses, including the paper's extension of logging the ``Location``
response header for redirect fix-up.  The analyzer consumes
:class:`~repro.http.tcp.TcpSegment` records, reassembles both stream
directions of each port-80 flow, parses pipelined requests/responses,
pairs them in order, and emits :class:`~repro.http.message.HttpTransaction`
records with HTTP and TCP handshake timings.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.http.message import HttpTransaction
from repro.http.parser import (
    HttpParseError,
    parse_request_stream,
    parse_response_stream,
    serialize_request,
)
from repro.http.tcp import FlowTable, TcpFlow, TcpSegment

__all__ = ["HttpAnalyzer", "analyze_segments"]


class HttpAnalyzer:
    """Reconstructs HTTP transactions from captured TCP segments.

    Parameters:
        http_ports: TCP server ports treated as HTTP (the paper's
            port-based DAG classification; default ``{80}``).
        strict: when True, parse errors raise; when False (default, as
            a passive monitor must behave) broken flows are skipped and
            counted in :attr:`parse_errors`.
    """

    def __init__(self, http_ports: Iterable[int] = (80,), strict: bool = False):
        self._http_ports = frozenset(http_ports)
        self._strict = strict
        self._table = FlowTable()
        self.parse_errors = 0

    def add_segment(self, segment: TcpSegment) -> None:
        """Feed one captured segment into the flow table."""
        if segment.dport in self._http_ports or segment.sport in self._http_ports:
            self._table.add_segment(segment)

    def transactions(self) -> list[HttpTransaction]:
        """Finish analysis and return all transactions, time-ordered."""
        result: list[HttpTransaction] = []
        for flow in self._table.flows():
            try:
                result.extend(self._analyze_flow(flow))
            except HttpParseError:
                if self._strict:
                    raise
                self.parse_errors += 1
        result.sort(key=lambda txn: txn.ts_request)
        return result

    def _analyze_flow(self, flow: TcpFlow) -> list[HttpTransaction]:
        client_data = flow.client_stream.data
        if not client_data:
            return []
        requests = parse_request_stream(client_data)
        methods = [request.method for request in requests]
        responses = parse_response_stream(flow.server_stream.data, methods)

        # Locate each request's byte offset so persistent connections
        # get per-transaction timestamps rather than the flow start.
        request_offsets: list[int] = []
        cursor = 0
        for request in requests:
            request_offsets.append(cursor)
            cursor += len(serialize_request(request))

        response_offsets: list[int] = []
        server_data = flow.server_stream.data
        cursor = 0
        for _response in responses:
            response_offsets.append(cursor)
            end = server_data.find(b"\r\n\r\n", cursor)
            cursor = len(server_data) if end < 0 else _offset_past_body(
                server_data, end + 4, responses[len(response_offsets) - 1].body_length
            )

        transactions = []
        handshake = flow.tcp_handshake_ms or 0.0
        for index, request in enumerate(requests):
            response = responses[index] if index < len(responses) else None
            ts_request = flow.ts_at_client_offset(request_offsets[index])
            if ts_request is None:
                ts_request = flow.first_ts or 0.0
            ts_response = None
            if response is not None and index < len(response_offsets):
                ts_response = flow.ts_at_server_offset(response_offsets[index])
            transactions.append(
                HttpTransaction(
                    client=flow.key.client,
                    server=flow.key.server,
                    request=request,
                    response=response,
                    ts_request=ts_request,
                    ts_response=ts_response,
                    tcp_handshake_ms=handshake,
                    flow_id=flow.flow_id,
                )
            )
        return transactions


def _offset_past_body(data: bytes, offset: int, body_length: int) -> int:
    """Advance ``offset`` past a response body of known parsed length."""
    return min(len(data), offset + body_length)


def analyze_segments(
    segments: Iterable[TcpSegment], http_ports: Iterable[int] = (80,)
) -> list[HttpTransaction]:
    """Convenience one-shot wrapper around :class:`HttpAnalyzer`."""
    analyzer = HttpAnalyzer(http_ports=http_ports)
    for segment in segments:
        analyzer.add_segment(segment)
    return analyzer.transactions()
