"""Minimal stdlib HTTP/1.1 transport for the classification daemon.

One ``asyncio.Protocol`` per connection parses requests in place in one
buffer (heads ending ``\\r\\n`` or bare ``\\n``, ``Content-Length``
bodies) under hard caps: malformed or oversized input gets 400/413/431
and a close, ``Transfer-Encoding`` (chunked bodies) 501 and a close, and
disagreeing ``Content-Length`` headers 400.  Pipelined requests are
answered in order; keep-alive ends on ``Connection: close`` (any case),
HTTP/1.0 without ``keep-alive``, or an idle timeout.  No TLS.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Union

__all__ = ["HttpError", "HttpServer", "Request", "Response"]

# Hard caps: one header line / the whole header block / the body.
MAX_LINE = 8192
MAX_HEADERS = 64
MAX_BODY = 1 << 20  # 1 MiB

IDLE_TIMEOUT_S = 30.0

# The empty line that ends a head, whichever line ending the peer uses.
_HEAD_END = re.compile(rb"\r?\n\r?\n")

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


class HttpError(Exception):
    """``(status, reason)``: a request that could not be parsed; a 4xx/501 and a close."""


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes


@dataclass(slots=True)
class Response:
    """One JSON response to serialize; ``headers`` are extra headers."""

    status: int
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, *, close: bool) -> bytes:
        extra = "".join(f"{name}: {value}\r\n" for name, value in self.headers.items())
        head = (
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(self.body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n{extra}\r\n"
        )
        return head.encode("latin-1") + self.body


def _error(status: int, reason: str) -> Response:
    return Response(status=status, body=json.dumps({"error": reason}).encode())


def _parse_head(head: str) -> tuple[Request, int, bool]:
    """A bodiless request, its body length, and whether to close after it."""
    lines = head.split("\n")
    if len(head) >= MAX_LINE and max(map(len, lines)) >= MAX_LINE:
        raise HttpError(431, f"{'request' if len(lines[0]) >= MAX_LINE else 'header'} line too long")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, "malformed request line")
    if len(lines) - 1 > MAX_HEADERS:
        raise HttpError(431, "too many header fields")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise HttpError(501, "transfer codings are not supported")
    length = headers.get("content-length", "0")
    if not length.isdecimal():
        raise HttpError(400, f"bad Content-Length {length!r}")
    if int(length) > MAX_BODY:
        raise HttpError(413, f"body of {length} bytes exceeds {MAX_BODY}")
    connection = headers.get("connection", "").lower()
    close = "close" in connection or (parts[2] == "HTTP/1.0" and "keep-alive" not in connection)
    return Request(parts[0], parts[1], headers, b""), int(length), close


class _Connection(asyncio.Protocol):
    """One client connection: cut requests off the buffer, answer in order."""

    def __init__(self, server: HttpServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()
        self._scan = 0  # where the search for the end of the head resumes
        self._pending: asyncio.Future[None] | None = None  # an answer being awaited
        self._write_paused = self._eof = False
        self._idle_since = self._loop.time()
        self._timer = self._loop.call_later(server.idle_timeout_s, self._on_idle)
        self.closed = self._loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport: asyncio.Transport = transport  # type: ignore[assignment]
        self._server.connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server.connections.discard(self)
        self._timer.cancel()
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._pump()

    def eof_received(self) -> bool:
        self._eof = True
        self._pump()
        return True  # stay half-open until everything received is answered

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._pending is None:
            self.transport.resume_reading()
            self._pump()

    def _pump(self) -> None:
        """Answer every whole request in the buffer, in order."""
        while self._pending is None and not self._write_paused and not self.transport.is_closing():
            try:
                parsed = self._next_request()
            except HttpError as exc:
                self._respond(_error(*exc.args), close=True)
                return
            if parsed is None:
                if self._eof:  # the peer is done sending: answer what is left
                    if self._buffer:
                        self._respond(_error(400, "truncated request"), close=True)
                    self.transport.close()
                return
            request, close = parsed
            try:
                reply = self._server.route(request)
            except Exception:  # a route bug must answer 500, not kill the daemon
                reply, close = _error(500, "internal error"), True
            if isinstance(reply, Response):
                self._respond(reply, close)
            else:  # read no further until the awaited answer is written
                self.transport.pause_reading()
                self._pending = asyncio.ensure_future(self._await_reply(reply, close))

    def _next_request(self) -> tuple[Request, bool] | None:
        """Cut the next whole request off the buffer; ``None`` until there is one."""
        buffer = self._buffer
        match = _HEAD_END.search(buffer, self._scan)
        if match is None:
            self._scan = max(0, len(buffer) - 3)
            line_start = buffer.rfind(b"\n") + 1
            if len(buffer) - line_start > MAX_LINE:
                raise HttpError(431, "header line too long" if line_start else "request line too long")
            if len(buffer) > (MAX_HEADERS + 1) * MAX_LINE:
                raise HttpError(431, "too many header fields")
            return None
        request, length, close = _parse_head(buffer[: match.start()].decode("latin-1"))
        end = match.end() + length
        if len(buffer) < end:
            return None
        request.body = bytes(buffer[match.end() : end])
        del buffer[:end]
        self._scan = 0
        return request, close

    async def _await_reply(self, reply: Awaitable[Response], close: bool) -> None:
        try:
            response = await reply
        except Exception:  # a route bug must answer 500, not kill the daemon
            response, close = _error(500, "internal error"), True
        self._pending = None
        if not self.transport.is_closing():
            self._respond(response, close)
            if not self._write_paused:
                self.transport.resume_reading()
            self._pump()

    def _respond(self, response: Response, close: bool) -> None:
        close = close or self._server.closing  # draining: keep-alive clients migrate off
        self.transport.write(response.encode(close=close))
        self._idle_since = self._loop.time()
        if close:
            self.transport.close()

    def _on_idle(self) -> None:
        timeout = self._server.idle_timeout_s
        delay = timeout if self._pending is not None else self._idle_since + timeout - self._loop.time()
        if delay > 0:
            self._timer = self._loop.call_later(delay, self._on_idle)
        else:
            self.transport.close()  # idle keep-alive: nothing to answer


class HttpServer:
    """One listening socket; ``route`` answers each request now or with an awaitable."""

    def __init__(
        self, route: Callable[[Request], Union[Response, Awaitable[Response]]], *,
        host: str = "127.0.0.1", port: int = 0, idle_timeout_s: float = IDLE_TIMEOUT_S,
    ) -> None:
        self.route = route
        self._address = (host, port)
        self.idle_timeout_s = idle_timeout_s
        self._server: asyncio.AbstractServer | None = None
        self.connections: set[_Connection] = set()
        self.closing = False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> int:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Connection(self), *self._address)
        return self.port

    async def stop_accepting(self) -> None:
        """Close the listening socket and flip :attr:`closing` (drain, step one)."""
        self.closing = True  # no wait_closed(): from 3.12 it waits for idle connections
        if self._server is not None:
            self._server.close()

    async def wait_connections(self, *, grace_s: float = 5.0) -> None:
        """Wait (bounded) for open connections to finish, then cut them."""
        if self.connections:
            await asyncio.wait([c.closed for c in self.connections], timeout=grace_s)
        for connection in tuple(self.connections):
            connection.transport.close()  # an answer still awaited is dropped when it lands

    async def close(self, *, grace_s: float = 5.0) -> None:
        """Stop accepting, then wait (bounded) for open connections."""
        await self.stop_accepting()
        await self.wait_connections(grace_s=grace_s)
