"""Shard worker process for the parallel classification pool.

One worker owns one shard of the user space (DESIGN.md §10).  It reads
and parses the *entire* input file itself — parsing is cheap relative
to classification and reparsing removes all input IPC — and feeds every
record to the same :class:`~repro.core.pipeline.StreamingClassifier`
the serial path drives, flagging whether its shard owns the record's
user.  The classifier classifies owned records and lets the others pass
as placeholders, so its ingest index, reorder pops and fix-up releases
follow the serial order exactly.  The pipeline is the parent's,
inherited through ``fork``.

Released entries leave the worker as pre-rendered output rows tagged
with their ``index``; the parent merely interleaves shards back into
index order, which is what makes parallel output byte-identical to the
serial path.

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
from typing import TYPE_CHECKING, Any, Callable

from repro.core.pipeline import (
    AdClassificationPipeline,
    ClassifiedRequest,
    StreamingClassifier,
)
from repro.exitcodes import EXIT_WORKER_ORPHANED, EXIT_WORKER_TERMINATED
from repro.http.log import SeekableLogReader
from repro.http.url import split_url
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.crash import CRASH_EXIT_CODE, FaultAction, WorkerFaultInjector
from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy, LogParseError
from repro.robustness.quarantine import QuarantineWriter
from repro.robustness.runstate import classification_row

if TYPE_CHECKING:
    from repro.analysis.traffic import TrafficAccumulator

__all__ = ["MessageKind", "WorkerConfig", "run_worker", "SHARD_STATE_VERSION"]

SHARD_STATE_VERSION = 2

# Rows per "batch" message; bounds both message size and the arrival
# lag of the parent's contiguous-prefix emitter.
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

    BATCH = "batch"  # rendered rows + quarantined lines
    HB = "hb"  # heartbeat: liveness only
    CKPT = "ckpt"  # this shard's generation is durable
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
    fixup_window: int | None
    reorder_window: float | None
    emit: str = "rows"  # "rows" (classify) | "fold" (report)
    checkpoint_dir: str | None = None  # this shard's own store
    checkpoint_every: int | None = None
    resume_generation: int | None = None
    attempt: int = 0  # incarnation number, stamped on every message
    heartbeat_interval_s: float | None = None  # None = no heartbeats
    chaos: str | None = None  # fault-injection spec (crash.parse_chaos)


class _QuarantineBuffer(QuarantineWriter):
    """Captures sidecar writes as tuples for shipment to the parent.

    The parent owns the single on-disk sidecar; a worker only routes
    the rejected lines its shard claims, so :meth:`write` records the
    ``(line_no, reason, raw)`` triple instead of emitting bytes.
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
) -> None:
    """Process entry point: run one shard, stream results to the parent.

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
        _ShardWorker(config, pipeline, out_queue, parent_pid).run()
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
        # keep=None: a shard never prunes its own store.  The parent lags
        # behind the workers (it checkpoints generation n only once every
        # shard's marker for n has arrived), so retention is the parent's
        # call — it prunes shard stores relative to its *own* generation.
        self.store = (
            CheckpointStore(config.checkpoint_dir, keep=None)
            if config.checkpoint_dir is not None
            else None
        )
        self.quarantine = _QuarantineBuffer()
        self.health = PipelineHealth()
        self._arrivals = 0  # parsed records seen, in arrival order
        # Outbound row batch: (index, rendered row, is_ad, is_wl).
        self._rows: list[tuple[int, str, bool, bool]] = []
        self.accumulator: TrafficAccumulator | None = None
        if config.emit == "fold":
            # Only ``report`` folds; classify must not import numpy.
            from repro.analysis.traffic import TrafficAccumulator

            self.accumulator = TrafficAccumulator()
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

    def run(self) -> None:
        config = self.config
        payload = None
        if config.resume_generation is not None:
            assert self.store is not None
            payload = self.store.load(config.resume_generation).payload
            self._restore_scalars(payload)
        self.reader = SeekableLogReader(
            config.input_path,
            on_error=ErrorPolicy(config.on_error),
            health=self.health,
            quarantine=self.quarantine,
            shard=(config.worker_id, config.workers),
        )
        self.classifier = StreamingClassifier(
            self.pipeline,
            fixup_window=config.fixup_window,
            reorder_window=config.reorder_window,
            health=self.health,
        )
        if payload is not None:
            self.reader.seek(**payload["reader"])
            self.classifier.restore_state(payload["classifier"])
        try:
            self._loop()
        finally:
            self.reader.close()

    def _restore_scalars(self, payload: dict) -> None:
        if payload.get("version") != SHARD_STATE_VERSION:
            raise ValueError(f"unsupported shard state version {payload.get('version')!r}")
        if (payload["worker"], payload["workers"]) != (
            self.config.worker_id,
            self.config.workers,
        ):
            raise ValueError(
                f"shard checkpoint belongs to worker {payload['worker']}/{payload['workers']}, "
                f"not {self.config.worker_id}/{self.config.workers}"
            )
        self.health = PipelineHealth.from_state(payload["health"])
        self._arrivals = payload["arrivals"]

    # -- the run loop -----------------------------------------------------

    def _loop(self) -> None:
        config = self.config
        every = config.checkpoint_every
        assert self.reader is not None and self.classifier is not None
        feed = self.classifier.feed
        for record, owned in self.reader.iter_shard():
            self._arrivals += 1
            for entry in feed(record, owned):
                self._emit(entry)
            if self.store is not None and every and self._arrivals % every == 0:
                self._checkpoint()
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
        for entry in self.classifier.finish():
            self._emit(entry)
        self._flush()
        cache_stats = self.pipeline.decision_cache_stats
        url_info = split_url.cache_info()
        done = {
            "arrivals": self._arrivals,
            "health": self.health.export_state(),
            "fold": self.accumulator.export_state() if self.accumulator is not None else None,
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

    def _emit(self, entry: ClassifiedRequest) -> None:
        if self.accumulator is not None:
            self.accumulator.add(entry)
            return
        self._rows.append(
            (entry.index, classification_row(entry), entry.is_ad, entry.is_whitelisted)
        )
        if len(self._rows) >= _ROW_BATCH:
            self._flush()

    def _flush(self) -> None:
        rows, self._rows = self._rows, []
        rejected = self.quarantine.drain()
        if not rows and not rejected:
            return
        self._send(MessageKind.BATCH, {"rows": rows, "quarantine": rejected})

    def _send(self, kind: MessageKind, payload: Any) -> None:
        config = self.config
        _put(self.out_queue, self.parent_pid, config.worker_id, config.attempt, kind, payload)

    # -- checkpoints ------------------------------------------------------

    def _checkpoint(self) -> None:
        """Save this shard's generation; tell the parent it is durable.

        The generation number is ``arrivals / checkpoint_every`` — a
        pure function of the replicated stream position — so all
        workers independently produce the *same* generation numbers at
        the *same* global cut points, which is what lets resume pick a
        single rendezvous generation across stores.  Rows are flushed
        first: when the parent has collected this marker from every
        shard, every row at or below the cut has already arrived.
        """
        self._flush()
        assert self.store is not None and self.config.checkpoint_every
        assert self.reader is not None and self.classifier is not None
        generation = self._arrivals // self.config.checkpoint_every
        payload = {
            "version": SHARD_STATE_VERSION,
            "worker": self.config.worker_id,
            "workers": self.config.workers,
            "generation": generation,
            "arrivals": self._arrivals,
            "reader": {
                "offset": self.reader.offset,
                "line_no": self.reader.line_no,
                "header": self.reader.header,
            },
            "classifier": self.classifier.export_state(),
            "health": self.health.export_state(),
        }
        self.store.save(payload, generation=generation)
        self._send(
            MessageKind.CKPT,
            {
                "generation": generation,
                "line_no": self.reader.line_no,
                "next_index": self.classifier.next_index,
            },
        )
