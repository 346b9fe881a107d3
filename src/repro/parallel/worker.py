"""Shard worker process for the parallel classification pool.

One worker owns one shard of the user space (DESIGN.md §10).  It reads
and parses the *entire* input file itself — parsing is cheap relative
to classification and reparsing removes all input IPC — and feeds every
record to the same :class:`~repro.core.pipeline.StreamingClassifier`
the serial path drives, flagging whether its shard owns the record's
user.  The classifier classifies owned records and lets the others pass
as placeholders, so its ingest index and reorder pops follow the serial
order exactly.  The pipeline is the parent's, inherited through
``fork``.

Entries leave the worker as they settle, as pre-rendered output rows
tagged with their ``index``.  Every batch also carries the worker's
ingest frontier (``classifier.next_index``): each row of this shard
below it has been sent, or is a redirect source still waiting.  The
parent hands every shard's rows to its sink and moves the sink's
frontier to the lowest worker frontier; the sink puts the rows in
index order, which is what makes parallel output byte-identical to the
serial path.  Shard 0 alone reports malformed lines, in line order;
the other shards parse and skip them.

A worker never writes to disk.  On a durable run it cuts at every
``checkpoint_every``-th record, flushes its rows and sends its shard
state (stream position, classifier state, health) to the parent, which
saves it into the run's one checkpoint store; a resumed or respawned
worker is handed that state back when it is forked.

Supervision (DESIGN.md §12) adds three obligations on this side:

* every message is stamped with the worker's incarnation ``attempt``
  so the parent can drop the last gasps of a killed predecessor;
* the run loop emits periodic ``hb`` heartbeats — progress-driven, not
  thread-driven, so a loop stuck inside one record goes silent and the
  parent's hang detector actually fires;
* an optional :class:`~repro.robustness.crash.WorkerFaultInjector`
  (armed by the ``REPRO_CHAOS`` spec) fires crash/hang/slow/garbage
  faults at exact record counts, for the chaos equivalence tests.
"""

from __future__ import annotations

import io
import os
import queue
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from repro.core.pipeline import (
    AdClassificationPipeline,
    ClassifiedRequest,
    StreamingClassifier,
)
from repro.exitcodes import EXIT_WORKER_ORPHANED, EXIT_WORKER_TERMINATED
from repro.http.log import SeekableLogReader
from repro.http.url import split_url
from repro.robustness.crash import CRASH_EXIT_CODE, FaultAction, WorkerFaultInjector
from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy, LogParseError
from repro.robustness.quarantine import QuarantineWriter
from repro.robustness.runstate import TrafficSink, classification_row

__all__ = ["MessageKind", "WorkerConfig", "run_worker"]

# Records read between "batch" messages: bounds both message size and
# how far behind the sink's frontier in the parent this shard's
# frontier lags, even across a stretch in which the shard owns nothing.
_ROW_BATCH = 512

# How long a blocked queue put waits before re-checking that the parent
# is still alive (a dead parent never drains the queue).
_PUT_TIMEOUT_S = 2.0

# Orphan-watchdog poll interval.
_ORPHAN_POLL_S = 1.0

# Backstop for the SIGTERM flush: if the feeder cannot drain (parent
# wedged or gone), die anyway rather than hang the kill escalation.
_TERM_FLUSH_CAP_S = 4.0



class MessageKind(str, Enum):
    """What a result-queue message ``(worker_id, attempt, kind, payload)``
    carries.  The worker sends and the parent's fold loop dispatches on
    these members only, so the two sides cannot drift apart."""

    BATCH = "batch"  # rendered rows, ingest frontier, quarantined lines
    HB = "hb"  # heartbeat: liveness only
    CKPT = "ckpt"  # this shard's state at a checkpoint cut
    DONE = "done"  # final health, fold and cache counters
    PARSE_ERROR = "parse_error"  # strict-mode abort
    ERROR = "error"  # unexpected exception, as a traceback


# The kind a garbage-message fault puts on the wire: a recognizable
# nonsense kind outside :class:`MessageKind`, exercising the parent's
# unknown-message handling.
GARBAGE_KIND = "\x00garbage\x00"


@dataclass(slots=True)
class WorkerConfig:
    """Everything one shard worker needs, in picklable form."""

    worker_id: int
    workers: int
    input_path: str
    on_error: str  # ErrorPolicy value
    reorder_window: float | None
    emit: str = "rows"  # "rows" (classify) | "fold" (report)
    checkpoint_every: int | None = None  # None: plain run, no cuts
    attempt: int = 0  # incarnation number, stamped on every message
    heartbeat_interval_s: float | None = None  # None = no heartbeats
    chaos: str | None = None  # fault-injection spec (crash.parse_chaos)


class _QuarantineBuffer(QuarantineWriter):
    """Captures sidecar writes as tuples for shipment to the parent.

    The parent owns the single on-disk sidecar; shard 0 routes every
    rejected line to it, so :meth:`write` records the ``(line_no,
    reason, raw)`` triple instead of emitting bytes.
    """

    def __init__(self) -> None:
        super().__init__(io.BytesIO())
        self.entries: list[tuple[int, str, str]] = []

    def write(self, line_no: int, reason: str, raw: str) -> None:
        self.entries.append((line_no, reason, raw))
        self.count += 1

    def drain(self) -> list[tuple[int, str, str]]:
        entries, self.entries = self.entries, []
        return entries


def run_worker(
    config: WorkerConfig,
    pipeline: AdClassificationPipeline,
    out_queue: Any,
    resume: dict | None = None,
) -> None:
    """Process entry point: run one shard, stream results to the parent.

    ``resume`` is the shard state of a ``ckpt`` message this shard sent
    earlier (the checkpoint it resumes from), or ``None`` to start at
    the top of the input.

    Every outcome — including a strict-mode parse abort and unexpected
    exceptions — leaves as a message, so the parent never has to infer
    worker state from an exit code.
    """
    parent_pid = os.getppid()
    worker_id = config.worker_id
    attempt = config.attempt
    # Shutdown is the parent's job: on Ctrl-C it catches the signal,
    # terminates the pool and exits 130.  A worker that also received
    # the terminal's SIGINT (same process group) must not race it with
    # a KeyboardInterrupt traceback of its own.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _make_term_handler(out_queue))
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    _start_orphan_watchdog(parent_pid)
    try:
        # First heartbeat before the (potentially slow) checkpoint
        # restore, so the supervisor's silence clock starts from a real
        # signal.
        if config.heartbeat_interval_s is not None:
            _put(out_queue, parent_pid, worker_id, attempt, MessageKind.HB, {"arrivals": 0})
        _ShardWorker(config, pipeline, out_queue, parent_pid).run(resume)
    except LogParseError as exc:
        _put(
            out_queue,
            parent_pid,
            worker_id,
            attempt,
            MessageKind.PARSE_ERROR,
            (exc.line_no, exc.reason, exc.line),
        )
    except BaseException:  # shipped to the parent verbatim and re-raised there
        _put(out_queue, parent_pid, worker_id, attempt, MessageKind.ERROR, traceback.format_exc())


def _make_term_handler(out_queue: Any) -> "Callable[[int, Any], None]":
    """SIGTERM = die *politely*: flush the queue feeder, then exit.

    The supervisor's kill escalation starts with SIGTERM precisely so
    that a worker never dies while its queue feeder thread is halfway
    through a pipe write — a truncated frame would block the parent's
    next ``get`` forever (it reads a length header, then waits for
    bytes that never come).  The flush needs the parent to keep
    draining the pipe, which the supervisor guarantees by never
    blocking on the kill; the cap below covers the case where the
    parent is itself wedged or gone.
    """

    def handle(signum: int, frame: Any) -> None:
        def backstop() -> None:
            time.sleep(_TERM_FLUSH_CAP_S)
            os._exit(EXIT_WORKER_TERMINATED)

        threading.Thread(target=backstop, name="term-backstop", daemon=True).start()
        out_queue.close()
        out_queue.join_thread()
        os._exit(EXIT_WORKER_TERMINATED)

    return handle


def _start_orphan_watchdog(parent_pid: int) -> None:
    """Hard-exit the worker the moment its parent dies.

    The ``_put`` liveness check only fires while blocked on a *full*
    queue.  A worker whose queue still has slots sails on after a
    parent crash — and then hangs forever at interpreter exit, where
    the queue's feeder thread is joined while writing into a pipe
    nobody drains.  The orphan also keeps the parent's inherited
    stdout/stderr open, wedging any harness that waits for pipe EOF.
    ``os._exit`` from this daemon thread skips the feeder join
    entirely, which is safe: with the parent gone there is no reader
    to owe data to.
    """

    def watch() -> None:
        while True:
            time.sleep(_ORPHAN_POLL_S)
            if os.getppid() != parent_pid:
                os._exit(EXIT_WORKER_ORPHANED)

    threading.Thread(target=watch, name="orphan-watchdog", daemon=True).start()


def _put(
    out_queue: Any, parent_pid: int, worker_id: int, attempt: int, kind: str, payload: Any
) -> None:
    """Queue put that notices a dead parent instead of blocking forever.

    ``kind`` is a :class:`MessageKind`, or the chaos harness's
    ``GARBAGE_KIND``."""
    message = (worker_id, attempt, kind, payload)
    while True:
        try:
            out_queue.put(message, timeout=_PUT_TIMEOUT_S)
            return
        except queue.Full:
            if os.getppid() != parent_pid:
                os._exit(EXIT_WORKER_ORPHANED)  # orphaned: nobody will ever drain the queue


class _ShardWorker:
    """The per-process run loop (see module docstring for the model)."""

    def __init__(
        self,
        config: WorkerConfig,
        pipeline: AdClassificationPipeline,
        out_queue: Any,
        parent_pid: int,
    ) -> None:
        self.config = config
        self.pipeline = pipeline
        self.out_queue = out_queue
        self.parent_pid = parent_pid
        self.quarantine = _QuarantineBuffer()
        self.health = PipelineHealth()
        self._arrivals = 0  # parsed records seen, in arrival order
        # Only ``report`` folds (TrafficSink imports numpy on use).
        self.sink = TrafficSink() if config.emit == "fold" else None
        self.classifier: StreamingClassifier | None = None
        self.reader: SeekableLogReader | None = None
        # Supervision plumbing (DESIGN.md §12).
        self.injector = WorkerFaultInjector.for_worker(
            config.chaos, config.worker_id, config.attempt
        )
        self._hb_interval = config.heartbeat_interval_s
        self._next_beat = (
            time.monotonic() + self._hb_interval if self._hb_interval is not None else 0.0
        )

    # -- lifecycle --------------------------------------------------------

    def run(self, resume: dict | None) -> None:
        config = self.config
        if resume is not None:
            self.health = PipelineHealth.from_state(resume["health"])
            self._arrivals = resume["arrivals"]
        self.reader = SeekableLogReader(
            config.input_path,
            on_error=ErrorPolicy(config.on_error),
            health=self.health,
            quarantine=self.quarantine,
            shard=(config.worker_id, config.workers),
        )
        self.classifier = StreamingClassifier(
            self.pipeline, reorder_window=config.reorder_window, health=self.health
        )
        if resume is not None:
            self.reader.seek(**resume["reader"])
            self.classifier.restore_state(resume["classifier"])
        try:
            self._loop()
        finally:
            self.reader.close()

    # -- the run loop -----------------------------------------------------

    def _loop(self) -> None:
        config = self.config
        every = config.checkpoint_every
        assert self.reader is not None and self.classifier is not None
        feed = self.classifier.feed
        for record, owned in self.reader.iter_shard():
            self._arrivals += 1
            feed(record, owned)
            if every and self._arrivals % every == 0:
                self._checkpoint()
            elif self._arrivals % _ROW_BATCH == 0:
                self._flush(self.classifier.drain())
            # Supervision duties, after this record's effects (rows,
            # checkpoint) have been applied — so an injected crash at
            # record N dies with exactly N records processed, and a
            # heartbeat always vouches for completed work.
            if self.injector is not None:
                action = self.injector.tick()
                if action is FaultAction.CRASH:
                    # Flush the queue feeder first: dying while it holds
                    # the shared write lock would block every other
                    # worker's put (a multiprocessing.Queue hazard the
                    # harness must not trip on purpose).
                    self.out_queue.close()
                    self.out_queue.join_thread()
                    os._exit(CRASH_EXIT_CODE)
                elif action is FaultAction.GARBAGE:
                    _put(
                        self.out_queue, self.parent_pid, config.worker_id, config.attempt,
                        GARBAGE_KIND, b"\xde\xad\xbe\xef",
                    )
                    # A worker whose stream has degenerated to garbage
                    # is not meaningfully continuing; quiescing also
                    # makes the parent's kill safe (feeder drained).
                    self.injector.nap()
            if self._hb_interval is not None:
                now = time.monotonic()
                if now >= self._next_beat:
                    self._send(MessageKind.HB, {"arrivals": self._arrivals})
                    self._next_beat = now + self._hb_interval
        self._flush(self.classifier.finish())
        cache_stats = self.pipeline.decision_cache_stats
        url_info = split_url.cache_info()
        done = {
            "arrivals": self._arrivals,
            "health": self.health.export_state(),
            "fold": self.sink.export_state() if self.sink is not None else None,
            # Transient observability, shipped OUTSIDE the health state:
            # per-shard caches are process-local, so their counters must
            # never enter the mergeable (checkpointable) health fields.
            "cache": (
                (cache_stats.hits, cache_stats.misses, cache_stats.evictions)
                if cache_stats is not None
                else None
            ),
            "url_cache": (url_info.hits, url_info.misses),
        }
        self._send(MessageKind.DONE, done)

    def _flush(self, entries: list[ClassifiedRequest]) -> None:
        """Send settled entries with this shard's ingest frontier and
        rejected lines (a ``report`` shard folds the entries instead)."""
        assert self.classifier is not None
        if self.sink is not None:
            for entry in entries:
                self.sink.consume(entry)
            entries = []
        rows = [
            (entry.index, classification_row(entry), entry.is_ad, entry.is_whitelisted)
            for entry in entries
        ]
        self._send(
            MessageKind.BATCH,
            {
                "rows": rows,
                "frontier": self.classifier.next_index,
                "quarantine": self.quarantine.drain(),
            },
        )

    def _send(self, kind: MessageKind, payload: Any) -> None:
        config = self.config
        _put(self.out_queue, self.parent_pid, config.worker_id, config.attempt, kind, payload)

    # -- checkpoints ------------------------------------------------------

    def _checkpoint(self) -> None:
        """Send the parent this shard's state at a checkpoint cut.

        Cuts fall at every ``checkpoint_every``-th record of the
        replicated stream — a pure function of the input — so all
        workers cut at the *same* global positions, and the parent saves
        generation ``arrivals // checkpoint_every`` once every shard's
        state for it has arrived.  Rows are flushed first: by then every
        settled row below the cut has reached the parent, and the
        classifier state holds only the redirect sources still waiting.
        """
        assert self.reader is not None and self.classifier is not None
        self._flush(self.classifier.drain())
        self._send(
            MessageKind.CKPT,
            {
                "arrivals": self._arrivals,
                "reader": self.reader.position(),
                "classifier": self.classifier.export_state(),
                "health": self.health.export_state(),
            },
        )
