"""Bounded admission with explicit backpressure and deadlines.

The daemon's robustness invariant is *exact accounting*: every classify
request is *exactly one* of

* **shed** — refused at the door (queue full, or draining) with 429/503
  and a ``Retry-After``, never enqueued;
* **served** — admitted and answered (200, or 400 for a body the
  handler rejected);
* **timed out** — admitted but not answered within its deadline (503).

The chaos tests sum these against the request total and require
equality; nothing may be double-counted or dropped on the floor.

A request is answered *inline* — on the caller's stack, no queue hop —
when the daemon is not draining, nothing is queued, a worker slot is
free and no chaos delay applies: it is then accepted and served (or
failed) in one synchronous call, so nothing can interleave between its
bookings.  Every other request takes the queue, where ticket resolution
is single-owner (:meth:`Ticket.claim`): the waiting request handler and
the worker that eventually processes the ticket race politely, and
exactly one of them books the outcome.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.serve.metrics import ServeMetrics

__all__ = ["QUEUED", "AdmissionQueue", "DeadlineExceeded", "Shed", "Ticket"]

DEFAULT_QUEUE_DEPTH = 1024
DEFAULT_TIMEOUT_S = 5.0
DEFAULT_CONCURRENCY = 8

#: What :meth:`AdmissionQueue.try_inline` returns when the request must queue.
QUEUED = object()


class Shed(Exception):
    """The request was refused admission (backpressure or drain)."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


class DeadlineExceeded(Exception):
    """The request was admitted but its deadline expired unanswered."""


@dataclass(slots=True)
class Ticket:
    """One admitted request waiting for a worker."""

    payload: Any
    future: asyncio.Future
    delay_s: float = 0.0  # injected handler latency, slept before the handler runs
    claimed: bool = False

    def claim(self) -> bool:
        """Take ownership of the outcome; exactly one caller wins."""
        if self.claimed:
            return False
        self.claimed = True
        return True


class AdmissionQueue:
    """Bounded queue + worker pool between the HTTP layer and the engine.

    ``handler`` is the application's synchronous classify function; the
    inline path and the workers both call it.  (A coroutine function is
    accepted too: the workers await it, and it never runs inline.)  The
    queue depth bounds memory and tail latency; admission failure is
    immediate and explicit (429), and the per-request deadline is
    enforced by the *waiter* (the HTTP handler coroutine), which is the
    only place that can still answer the client — a worker discovering
    a stale ticket just drops it.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        metrics: ServeMetrics,
        *,
        depth: int = DEFAULT_QUEUE_DEPTH,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        concurrency: int = DEFAULT_CONCURRENCY,
    ) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self._handler = handler
        self._awaits = inspect.iscoroutinefunction(handler)
        self._metrics = metrics
        self._timeout_s = timeout_s
        self._depth = depth
        self._concurrency = concurrency
        self._queue: asyncio.Queue[Ticket] = asyncio.Queue(maxsize=depth)
        self._workers: list[asyncio.Task[None]] = []
        self._pending = 0  # queued + in service, not yet claimed
        self._in_service = 0  # tickets a worker has taken and not finished
        self._idle = asyncio.Event()
        self._idle.set()
        self.draining = False

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def timeout_s(self) -> float:
        return self._timeout_s

    @property
    def queued(self) -> int:
        return self._queue.qsize()

    @property
    def pending(self) -> int:
        return self._pending

    def start(self) -> None:
        for _ in range(self._concurrency):
            self._workers.append(asyncio.ensure_future(self._worker()))

    # -- admission ---------------------------------------------------------

    def try_inline(self, payload: Any, delay_s: float = 0.0) -> Any:
        """Answer ``payload`` now if a worker slot is free, else :data:`QUEUED`.

        An inline request is booked ``accepted`` (and ``inline``) and
        then ``served`` — or ``internal_errors``, re-raising the
        handler's exception — before this returns.  A request that
        returns :data:`QUEUED` was not booked and goes to :meth:`submit`.
        """
        if (
            self.draining
            or delay_s > 0.0
            or self._awaits
            or self._in_service >= self._concurrency
            or not self._queue.empty()
        ):
            return QUEUED
        metrics = self._metrics
        metrics.book_inline()
        try:
            result = self._handler(payload)
        except Exception:  # booked, then re-raised to the caller
            metrics.book_internal_error()
            raise
        metrics.book_served()
        return result

    async def submit(self, payload: Any, delay_s: float = 0.0) -> Any:
        """Admit through the queue, await the outcome, enforce the deadline.

        Raises :class:`Shed` without enqueueing when the queue is full
        or the daemon is draining; raises :class:`DeadlineExceeded` when
        the ticket was admitted but not processed in time.  ``delay_s``
        is slept by the worker before it calls the handler.
        """
        if self.draining:
            self._metrics.shed_draining += 1
            raise Shed("draining", retry_after_s=1.0)
        future = asyncio.get_running_loop().create_future()
        ticket = Ticket(payload=payload, future=future, delay_s=delay_s)
        try:
            self._queue.put_nowait(ticket)
        except asyncio.QueueFull:
            self._metrics.shed_queue_full += 1
            raise Shed("queue full", retry_after_s=self._retry_after()) from None
        self._metrics.accepted += 1
        self._pending += 1
        self._idle.clear()
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout=self._timeout_s)
        except asyncio.TimeoutError:
            if ticket.claim():
                self._book_done(self._metrics.book_timeout)
            elif not future.cancelled():
                # The worker claimed it as the deadline fired, and booked
                # it served (or an internal error): that outcome stands.
                return future.result()
            raise DeadlineExceeded from None
        except asyncio.CancelledError:
            if future.cancelled():
                # Drain force-resolution: the canceller already claimed
                # and booked this ticket as timed out — answer 503.
                raise DeadlineExceeded from None
            raise  # the waiter itself was cancelled (connection died)

    def _retry_after(self) -> float:
        """A Retry-After estimate: time to drain half the queue."""
        per_request = self._timeout_s / max(1, self._depth)
        return max(0.1, per_request * self._queue.qsize() / 2)

    def _book_done(self, book: Callable[[], None]) -> None:
        book()
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    # -- the worker pool ---------------------------------------------------

    async def _worker(self) -> None:
        while True:
            ticket = await self._queue.get()
            if ticket.claimed:
                continue  # deadline fired while queued; already booked
            self._in_service += 1
            try:
                if ticket.delay_s > 0.0:
                    await asyncio.sleep(ticket.delay_s)
                result = self._handler(ticket.payload)
                if self._awaits:
                    result = await result
            except asyncio.CancelledError:
                # Drain cancellation: resolve rather than drop, so the
                # waiter books the timeout instead of hanging.
                if ticket.claim():
                    self._book_done(self._metrics.book_timeout)
                    ticket.future.cancel()
                raise
            except Exception as exc:  # handler bugs must 500, not kill the worker
                if ticket.claim():
                    self._book_done(self._metrics.book_internal_error)
                    ticket.future.set_exception(exc)
                    # The waiter consumes it; stop the "never retrieved"
                    # warning if the waiter already timed out racing us.
                    ticket.future.exception()
                continue
            finally:
                self._in_service -= 1
            if ticket.claim():
                self._book_done(self._metrics.book_served)
                ticket.future.set_result(result)

    # -- drain -------------------------------------------------------------

    async def drain(self, deadline_s: float) -> None:
        """Stop admitting, finish queued work, deadline the rest.

        After ``deadline_s`` any still-unclaimed ticket is resolved as
        timed out (its waiter answers 503), so the accounting invariant
        holds even for a drain that runs out of patience.
        """
        self.draining = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=deadline_s)
        except asyncio.TimeoutError:
            pass
        while not self._queue.empty():
            ticket = self._queue.get_nowait()
            if ticket.claim():
                self._book_done(self._metrics.book_timeout)
                ticket.future.cancel()
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
