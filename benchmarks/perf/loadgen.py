"""asyncio load generator for ``repro serve``: closed loop and open loop.

One process, a fixed number of keep-alive connections.  *Closed loop*
(throughput): each connection sends its next request when the reply
lands, so a slower daemon receives less load.  *Open loop* (latency):
request *k* is due at ``t0 + k / rate`` whatever the daemon does, and is
timed **from its due time**, so the wait a stall imposes on the requests
behind it is counted; how late the generator itself ran is reported
beside the latencies.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "REPLY_TIMEOUT_S",
    "ClosedLoopResult",
    "Connection",
    "OpenLoopSchedule",
    "closed_loop",
    "http_post",
    "open_loop",
]


#: A window that has not ended this long after it was due to end has a
#: daemon that stopped answering: the run fails instead of hanging.
REPLY_TIMEOUT_S = 30.0


def http_post(path: str, body: bytes) -> bytes:
    """One HTTP/1.1 POST, ready to write to a keep-alive connection."""
    head = f"POST {path} HTTP/1.1\r\nHost: perf\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


class Connection:
    """A keep-alive HTTP/1.1 client connection (no pipelining)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "Connection":
        return cls(*await asyncio.open_connection(host, port))

    async def roundtrip(self, payload: bytes) -> tuple[int, bytes]:
        """Send ``payload``; return ``(status, body)`` of the reply."""
        self._writer.write(payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the daemon")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, await self._reader.readexactly(length)

    async def get(self, path: str) -> tuple[int, bytes]:
        return await self.roundtrip(f"GET {path} HTTP/1.1\r\nHost: perf\r\n\r\n".encode("ascii"))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the daemon may already have dropped its side


@dataclass(slots=True)
class ClosedLoopResult:
    requests: int = 0
    failed: int = 0  # non-200 reply or connection error
    elapsed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def per_second(self) -> float:
        return (self.requests - self.failed) / self.elapsed_s


async def closed_loop(
    port: int, payloads: Sequence[bytes], *, connections: int, seconds: float
) -> ClosedLoopResult:
    """Drive ``payloads`` in order (wrapping) for ``seconds``; one in flight per connection."""
    result = ClosedLoopResult()
    cursor = 0
    clock = time.perf_counter
    began = clock()
    deadline = began + seconds

    async def worker() -> None:
        nonlocal cursor
        connection = await Connection.open(port)
        try:
            while clock() < deadline:
                payload = payloads[cursor % len(payloads)]
                cursor += 1
                sent = clock()
                result.requests += 1
                try:
                    status, _ = await connection.roundtrip(payload)
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    result.failed += 1
                    return
                result.latencies_s.append(clock() - sent)
                if status != 200:
                    result.failed += 1
        finally:
            await connection.close()

    await asyncio.wait_for(
        asyncio.gather(*(worker() for _ in range(connections))), seconds + REPLY_TIMEOUT_S
    )
    result.elapsed_s = clock() - began
    return result


class OpenLoopSchedule:
    """Due times and the accounting of an open-loop window; no I/O, no clock.

    ``claim`` hands out request numbers in order; ``record`` books one
    finished request.  Latency runs from the *due* time, lateness is how
    long after its due time the generator actually sent it, and a request
    sent only after the window closed was backlog at its end (every
    request of the window is due inside it).
    """

    def __init__(self, rate: float, seconds: float, t0: float) -> None:
        if rate <= 0 or seconds <= 0:
            raise ValueError("rate and seconds must be positive")
        self.rate = rate
        self.t0 = t0
        self.window_end = t0 + seconds
        self.total = int(rate * seconds)
        self._next = 0
        self.backlog_end = 0
        self.latencies_s: list[float] = []
        self.lateness_s: list[float] = []
        self.failed = 0

    def due(self, k: int) -> float:
        return self.t0 + k / self.rate

    def claim(self) -> int | None:
        """The next request number, or None when the window's requests are all taken."""
        if self._next >= self.total:
            return None
        self._next += 1
        return self._next - 1

    def abandon(self) -> None:
        """Every connection is gone: what nobody claimed was never answered."""
        self.failed += self.total - self._next
        self._next = self.total

    def record(self, k: int, sent_at: float, done_at: float, ok: bool) -> None:
        self.lateness_s.append(max(0.0, sent_at - self.due(k)))
        if sent_at > self.window_end:
            self.backlog_end += 1
        if ok:
            self.latencies_s.append(done_at - self.due(k))
        else:
            self.failed += 1


async def open_loop(
    port: int,
    payloads: Sequence[bytes],
    *,
    connections: int,
    rate: float,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> OpenLoopSchedule:
    """Send ``rate`` requests per second for ``seconds``; return the filled schedule."""
    schedule = OpenLoopSchedule(rate, seconds, clock() + 0.05)

    async def worker() -> None:
        connection = await Connection.open(port)
        try:
            while (k := schedule.claim()) is not None:
                # The loop's timers are a millisecond coarse: sleep short of the
                # due time, then yield to the loop until it arrives.
                wait = schedule.due(k) - clock()
                if wait > 0.002:
                    await asyncio.sleep(wait - 0.001)
                while clock() < schedule.due(k):
                    await asyncio.sleep(0)
                sent = clock()
                try:
                    status, _ = await connection.roundtrip(payloads[k % len(payloads)])
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    schedule.record(k, sent, clock(), False)
                    return
                schedule.record(k, sent, clock(), status == 200)
        finally:
            await connection.close()

    await asyncio.wait_for(
        asyncio.gather(*(worker() for _ in range(connections))), seconds + REPLY_TIMEOUT_S
    )
    schedule.abandon()
    return schedule
