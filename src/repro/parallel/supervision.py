"""Parent-side worker supervision for the shard pool (DESIGN.md §12).

The PR-4 runner treated every worker anomaly the same way: abort the
whole run.  This module gives :class:`~repro.parallel.runner.ParallelRun`
a supervisor that distinguishes the three ways a shard worker goes bad
and recovers from each:

* **crash** — the process's ``exitcode`` is set before its ``done``
  message arrived (OOM kill, segfault, injected ``crash-hard``);
* **hang** — the process is alive but has sent nothing (not even a
  heartbeat) within ``worker_timeout``; the supervisor kills it, so a
  stuck shard can never stall the parent forever;
* **garbage** — the worker emitted an unintelligible message on the
  result queue; the worker is killed and treated like a crash.

Recovery is respawn-from-checkpoint bounded by a
:class:`~repro.robustness.retry.RetryPolicy`: each incarnation gets a
new 0-based ``attempt`` number, messages stamped with a stale attempt
are dropped (a killed worker's last gasps must not poison the fold),
and the replacement resumes from the shard's newest valid checkpoint
(durable runs) or from scratch (in-memory runs) — both safe because
shard replay is deterministic and the parent's merge structures are
idempotent.  Terminal failures follow ``on_failure``: ``abort`` raises
:class:`WorkerFailure`; ``degrade`` marks the shard lost and lets the
remaining shards finish, for an honest partial result.

The supervisor owns no queue and no protocol: the runner feeds it
liveness evidence (``accept``/``mark_done``) and calls ``poll`` between
messages; everything here is pure bookkeeping over injectable
``clock``/``sleep``, which is what makes the unit tests deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.robustness.policy import RunInterrupted
from repro.robustness.retry import RetryPolicy

__all__ = ["ShardSlot", "WorkerFailure", "RunInterrupted", "WorkerSupervisor"]

# Grace period for a dead worker whose final messages may still be in
# flight through the queue pipe before its silence counts as a crash.
_DEAD_WORKER_GRACE_S = 1.0

# Until its first real (non-heartbeat) message, a worker may be
# restoring its shard checkpoint — one opaque call it cannot heartbeat
# from — so its silence budget is this multiple of ``worker_timeout``.
# A worker hung in startup is still caught, just on a longer fuse.
_WARMUP_FACTOR = 10.0

# How long terminate() gets before escalating to kill().  Generous on
# purpose: workers flush their queue feeder thread on SIGTERM (see
# run_worker), and SIGKILLing a worker mid-pipe-write truncates a
# frame, which would wedge the parent's next queue read forever.
_TERMINATE_GRACE_S = 5.0


class WorkerFailure(Exception):
    """A shard worker failed terminally (retries exhausted or disabled)."""


@dataclass(slots=True)
class ShardSlot:
    """Supervision state for one shard (across all its incarnations)."""

    worker_id: int
    process: Any = None
    attempt: int = 0
    last_seen: float = 0.0
    dead_since: float | None = None
    warmed: bool = False  # first non-heartbeat message seen (startup done)
    done: bool = False
    failed: bool = False
    fail_reason: str | None = None


class WorkerSupervisor:
    """Tracks liveness of the pool; kills, respawns, or gives up.

    Args:
        workers: pool size (one slot per shard).
        spawn: callback ``(worker_id, attempt) -> process`` that starts
            a new incarnation; the runner closes over the worker config
            and the shard's resume generation.
        retry: respawn budget; ``None`` disables recovery entirely
            (any fault is terminal), preserving fail-fast semantics.
        worker_timeout: seconds of silence after which a live worker is
            declared hung and killed; ``None`` disables hang detection.
        on_failure: ``"abort"`` raises :class:`WorkerFailure` on a
            terminal fault, ``"degrade"`` records the shard as lost.
        clock/sleep: injectable time sources for deterministic tests.
    """

    def __init__(
        self,
        *,
        workers: int,
        spawn: "Callable[[int, int], Any]",
        retry: RetryPolicy | None,
        worker_timeout: float | None,
        on_failure: str = "abort",
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
        log: "Callable[[str], None]" = lambda message: None,
    ) -> None:
        if on_failure not in ("abort", "degrade"):
            raise ValueError("on_failure must be 'abort' or 'degrade'")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be > 0 (or None to disable)")
        self.slots = [ShardSlot(worker_id) for worker_id in range(workers)]
        self.spawn = spawn
        self.retry = retry
        self.worker_timeout = worker_timeout
        self.on_failure = on_failure
        self.clock = clock
        self.sleep = sleep
        self.log = log
        self.restarts = 0
        self.heartbeat_gaps = 0
        # Old incarnations that were sent SIGTERM and are on the clock:
        # (process, SIGKILL deadline).  Killing is deliberately
        # asynchronous — the parent must keep draining the result queue
        # while a worker flushes its feeder and dies, or the flush
        # could never complete and the whole pool would deadlock.
        self._dying: list[tuple[Any, float]] = []

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        for slot in self.slots:
            self._launch(slot)

    def _launch(self, slot: ShardSlot) -> None:
        slot.process = self.spawn(slot.worker_id, slot.attempt)
        slot.last_seen = self.clock()
        slot.dead_since = None
        slot.warmed = False  # every incarnation starts up anew

    @property
    def finished(self) -> bool:
        return all(slot.done or slot.failed for slot in self.slots)

    @property
    def failed_ids(self) -> list[int]:
        return [slot.worker_id for slot in self.slots if slot.failed]

    def processes(self) -> list[Any]:
        return [slot.process for slot in self.slots if slot.process is not None]

    # -- evidence from the message loop -----------------------------------

    def accept(self, worker_id: int, attempt: int, kind: str) -> bool:
        """Record a message as liveness evidence; ``False`` = drop it.

        Messages from a superseded incarnation (stale ``attempt``) or a
        shard already written off are dropped: a worker killed mid-kill
        may still flush an ``error`` or half a batch, and none of it may
        reach the fold.  ``kind`` is accepted for symmetry/logging; the
        dispatch itself stays in the runner.
        """
        if not 0 <= worker_id < len(self.slots):
            self.log(f"discarding message from unknown worker id {worker_id!r}")
            return False
        slot = self.slots[worker_id]
        if slot.failed or attempt != slot.attempt:
            self.log(
                f"worker {worker_id}: dropping stale {kind!r} message "
                f"(attempt {attempt}, current {slot.attempt})"
            )
            return False
        slot.last_seen = self.clock()
        if kind != "hb":
            slot.warmed = True
        return True

    def mark_done(self, worker_id: int) -> None:
        self.slots[worker_id].done = True

    # -- detection --------------------------------------------------------

    def poll(self) -> None:
        """Sweep for crashed and hung workers; recover or give up.

        Called by the runner on every loop iteration (message or poll
        timeout), so detection latency is bounded by the queue poll
        interval, never by worker goodwill.
        """
        now = self.clock()
        self._reap_dying(now)
        for slot in self.slots:
            if slot.done or slot.failed:
                continue
            process = slot.process
            if process is None:
                continue
            if process.exitcode is not None:
                # Dead without a `done`: its final messages may still be
                # in the pipe — give them one grace period to drain.
                if slot.dead_since is None:
                    slot.dead_since = now
                elif now - slot.dead_since >= _DEAD_WORKER_GRACE_S:
                    self.fault(
                        slot.worker_id,
                        f"exited with code {process.exitcode} before reporting a result",
                    )
            elif self.worker_timeout is not None:
                budget = self.worker_timeout * (1.0 if slot.warmed else _WARMUP_FACTOR)
                if now - slot.last_seen > budget:
                    self.heartbeat_gaps += 1
                    self.log(
                        f"worker {slot.worker_id}: no heartbeat within "
                        f"{budget:g}s — killing the stuck process"
                    )
                    self.fault(
                        slot.worker_id,
                        f"hung (no heartbeat within {budget:g}s)",
                    )

    # -- recovery ---------------------------------------------------------

    def fault(self, worker_id: int, reason: str) -> None:
        """One incarnation failed: respawn within budget, else give up."""
        slot = self.slots[worker_id]
        if slot.done or slot.failed:
            return
        self._begin_kill(slot.process)
        next_attempt = slot.attempt + 1
        if self.retry is not None and self.retry.allows(next_attempt):
            delay = self.retry.delay_before(next_attempt, key=worker_id)
            self.log(
                f"worker {worker_id} {reason}; retrying shard "
                f"(attempt {next_attempt + 1}/{self.retry.max_attempts}) "
                f"after {delay:.2f}s backoff"
            )
            if delay > 0.0:
                self.sleep(delay)
            slot.attempt = next_attempt
            self.restarts += 1
            self._launch(slot)
            return
        budget = f" after {slot.attempt + 1} attempt(s)" if self.retry is not None else ""
        if self.on_failure == "degrade":
            slot.failed = True
            slot.fail_reason = reason
            self.log(
                f"worker {worker_id} {reason}; retries exhausted{budget} — "
                f"continuing without shard {worker_id} (degraded)"
            )
            return
        raise WorkerFailure(f"worker {worker_id} {reason}{budget}")

    # -- process plumbing -------------------------------------------------

    def _begin_kill(self, process: Any) -> None:
        """Start killing one incarnation without blocking the caller.

        TERM first: workers flush their queue feeder on SIGTERM, so a
        polite death cannot truncate a frame mid-pipe-write (a
        truncated frame wedges the parent's next queue read forever —
        it reads a length header, then blocks for bytes that never
        come).  The flush itself needs the parent to keep draining, so
        no join happens here; :meth:`poll` escalates to SIGKILL only
        after the grace deadline, by which point a flushing worker is
        long gone and only a truly stuck one remains.
        """
        if process is None or process.exitcode is not None:
            return
        process.terminate()
        self._dying.append((process, self.clock() + _TERMINATE_GRACE_S))

    def _reap_dying(self, now: float) -> None:
        remaining: list[tuple[Any, float]] = []
        for process, deadline in self._dying:
            if process.exitcode is not None:
                continue  # polling exitcode also reaps the zombie
            if now >= deadline:
                process.kill()
                process.join(timeout=0.2)
                continue
            remaining.append((process, deadline))
        self._dying = remaining

    def join_all(self, timeout: float) -> list[int]:
        """Join every live process; return ids still running (stragglers)."""
        for slot in self.slots:
            if slot.process is not None:
                slot.process.join(timeout=timeout)
        return [
            slot.worker_id
            for slot in self.slots
            if slot.process is not None and slot.process.is_alive()
        ]

    def terminate_all(self) -> None:
        """Best-effort shutdown of every live incarnation (cleanup path)."""
        processes = [slot.process for slot in self.slots]
        processes += [process for process, _deadline in self._dying]
        self._dying = []
        for process in processes:
            if process is not None and process.exitcode is None:
                process.terminate()
        for process in processes:
            if process is not None and process.exitcode is None:
                process.join(timeout=_TERMINATE_GRACE_S)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=_TERMINATE_GRACE_S)
