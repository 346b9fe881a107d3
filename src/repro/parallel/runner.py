"""Parent-side orchestration of the shard worker pool (DESIGN.md §10).

The parent never parses or classifies.  It forks one worker per shard,
each inheriting the parent's pipeline, then folds their message streams
back into the single serial-order output.  Rows go to the sink as they
arrive, and the sink's frontier moves to the lowest worker frontier:
the sink puts them in index order, as it does for a serial run.
Rejected lines come from shard 0 alone, already in line order, and are
written as they arrive.  Health counters and traffic folds merge by
``merge_state()``: sums, which merge in any order.

Durable runs keep the DESIGN.md §8 model unchanged: one checkpoint
store, written by the parent alone.  Each worker cuts when its
replicated stream position crosses the ``n * checkpoint_every``-th
parsed record — a pure function of the input, so all workers cut at the
same global positions — and sends its shard state to the parent.  Once
every shard's state for ``n`` has arrived, the parent saves generation
``n``: its own state (sink positions and frontier, sidecar watermark)
plus the list of shard states.  Resume is the serial path's: the newest
generation that validates, each worker forked with its shard's state
from it.  A replayed row below the sink's frontier fills a gap in the
sink or, already written, is dropped, and a replayed rejected line at
or below the sidecar watermark is dropped, which is lossless because
the replayed tail regenerates both byte-identically.

Worker *supervision* (DESIGN.md §12) rides on the same message stream:
every message doubles as a heartbeat, a
:class:`~repro.parallel.supervision.WorkerSupervisor` kills and
respawns crashed or silent shards within a
:class:`~repro.robustness.retry.RetryPolicy` budget, and terminal
failures either abort the run (:class:`WorkerFailure`) or degrade it —
finish the surviving shards and report the gap honestly.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import queue as queue_module
from typing import Any, Callable

from repro.core.pipeline import AdClassificationPipeline
from repro.http.log import SeekableLogReader
from repro.parallel.supervision import RunInterrupted, WorkerFailure, WorkerSupervisor
from repro.parallel.worker import MessageKind, WorkerConfig, run_worker
from repro.robustness.checkpoint import Checkpoint, CheckpointStore
from repro.robustness.crash import CHAOS_ENV
from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy, LogParseError
from repro.robustness.quarantine import QuarantineWriter
from repro.robustness.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.robustness.runstate import (
    Checkpointing,
    InterruptFlag,
    RunResult,
    RunSink,
    TrafficSink,
    open_quarantine,
    publish_quarantine,
    quarantine_state,
)

__all__ = [
    "ParallelRun",
    "RunInterrupted",
    "WorkerFailure",
]

_QUEUE_SLOTS_PER_WORKER = 4
_POLL_TIMEOUT_S = 1.0
# How long finished workers get to exit before being reported as
# stragglers (and then terminated by the cleanup path).
_STRAGGLER_GRACE_S = 10.0


class ParallelRun:
    """One classification run over a pool of shard workers.

    The pool is :func:`repro.robustness.runstate.run_serial` spread
    over processes and takes the same things: a ``sink`` — a
    :class:`TrafficSink`, whose accumulator the shards' folds merge
    into, a :class:`ClassifySink` (or anything else with
    ``consume_row``), which the shards send rendered rows, or none to
    discard — a ``quarantine_path`` for the sidecar, and optionally a
    :class:`Checkpointing` (rows only), which adds the run manifest and
    the run's checkpoint store under its directory, as it does for a
    serial run.

    Workers are forked and inherit ``pipeline`` as it stands: the engine
    is built (or restored from a snapshot) once, in the parent.
    """

    def __init__(
        self,
        *,
        workers: int,
        input_path: str,
        pipeline: AdClassificationPipeline,
        on_error: ErrorPolicy = ErrorPolicy.STRICT,
        quarantine_path: str | None = None,
        reorder_window: float | None = None,
        sink: RunSink | None = None,
        checkpointing: Checkpointing | None = None,
        worker_timeout: float | None = 30.0,
        retry: RetryPolicy | None = DEFAULT_RETRY_POLICY,
        on_worker_failure: str = "abort",
        chaos: str | None = None,
        log: "Callable[[str], None]" = lambda message: None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if on_worker_failure not in ("abort", "degrade"):
            raise ValueError("on_worker_failure must be 'abort' or 'degrade'")
        emit = "fold" if isinstance(sink, TrafficSink) else "rows"
        if checkpointing is not None and emit != "rows":
            raise ValueError("durable parallel runs only support classify output")
        self.workers = workers
        self.input_path = input_path
        self.pipeline = pipeline
        self.on_error = on_error
        self.quarantine_path = quarantine_path
        self.reorder_window = reorder_window
        self.emit = emit
        self.sink = sink
        self.checkpointing = checkpointing
        self.worker_timeout = worker_timeout
        self.retry = retry
        self.on_worker_failure = on_worker_failure
        # Progress-driven heartbeats: workers beat from their run loop
        # (so a hung loop goes silent), several times per timeout window
        # but at most once per second on the fast path.
        self.heartbeat_interval_s = (
            None if worker_timeout is None else min(1.0, worker_timeout / 4.0)
        )
        self.chaos = chaos if chaos is not None else os.environ.get(CHAOS_ENV) or None
        self._saved_generation = 0
        self._checkpoints_written = 0
        self._frontier = 0
        self._flushed_line = 0
        self.log = log

    # -- lifecycle --------------------------------------------------------

    def _spawn_worker(
        self,
        context: Any,
        out_queue: Any,
        worker_id: int,
        attempt: int,
        store: CheckpointStore | None,
        resumed: Checkpoint | None,
    ) -> Any:
        """Start one shard incarnation (the supervisor's spawn callback).

        The first incarnation resumes from the run's resume point; a
        respawn from the newest generation the parent has saved, whose
        cut is at or behind everything the parent has folded, so the
        replayed tail regenerates whatever died with the old incarnation
        (the sink and the sidecar watermark drop what the parent already
        has).  With nothing saved, the shard replays from the top.
        """
        checkpoint = resumed
        if attempt > 0:
            checkpoint = None
            if self._saved_generation:
                assert store is not None
                checkpoint = store.load(self._saved_generation)
        checkpointing = self.checkpointing
        config = WorkerConfig(
            worker_id=worker_id,
            workers=self.workers,
            input_path=self.input_path,
            on_error=self.on_error.value,
            reorder_window=self.reorder_window,
            emit=self.emit,
            checkpoint_every=checkpointing.every if checkpointing else None,
            attempt=attempt,
            heartbeat_interval_s=self.heartbeat_interval_s,
            chaos=self.chaos,
        )
        resume = checkpoint.payload["shards"][worker_id] if checkpoint is not None else None
        process = context.Process(
            target=run_worker,
            args=(config, self.pipeline, out_queue, resume),
            daemon=True,
        )
        process.start()
        return process

    # -- the fold ---------------------------------------------------------

    def run(self) -> RunResult:
        # Surface a missing input (CLI exit 2) or an old binlog version
        # (exit 1) in the parent instead of as a WorkerFailure traceback.
        SeekableLogReader(self.input_path).close()
        sink, checkpointing = self.sink, self.checkpointing
        store = checkpoint = None
        if checkpointing is not None:
            store, checkpoint = checkpointing.begin(self.log)
        payload = checkpoint.payload if checkpoint is not None else None
        quarantine = open_quarantine(
            self.on_error,
            self.quarantine_path,
            checkpointing,
            payload["quarantine"] if payload else None,
        )
        try:
            if sink is not None:
                sink.begin(fresh=payload is None, state=payload["sink"] if payload else None)
            result = self._fold(store, checkpoint, quarantine)
            if result.degraded_shards and checkpointing is not None:
                # Honest partial result: withhold finalize so the .part
                # outputs and every checkpoint survive for a --resume
                # once whatever killed the shard is fixed.
                self.log(
                    "degraded run: outputs left unpublished as .part files under "
                    f"{checkpointing.directory} (fix the fault and --resume to complete them)"
                )
            else:
                if sink is not None and not result.degraded_shards:
                    sink.finalize()
                publish_quarantine(quarantine, self.quarantine_path, checkpointing)
                if store is not None:
                    store.clear()
        finally:
            # After a publish these are no-ops; after anything else they
            # release the streams without publishing: a checkpointed run
            # keeps output.part, the sidecar and every checkpoint for a
            # later --resume, a plain one leaves no output behind.
            if sink is not None:
                sink.close()
            if quarantine is not None:
                quarantine.close()
        return result

    def _fold(
        self,
        store: CheckpointStore | None,
        resumed: Checkpoint | None,
        quarantine: QuarantineWriter | None,
    ) -> RunResult:
        """Supervise the pool and merge its message streams in order."""
        payload = resumed.payload if resumed is not None else None
        # The sink's frontier, and each worker's: a respawned incarnation
        # replays from behind its last one, so a frontier never moves back.
        self._frontier = payload["sink"]["next_index"] if payload else 0
        frontiers = [self._frontier] * self.workers
        # The last rejected line in the sidecar; shard 0 sends them in
        # line order, so one at or below it is a replay.
        self._flushed_line = payload["flushed_line"] if payload else 0
        row_sink = self.sink if self.emit == "rows" else None

        context = multiprocessing.get_context("fork")
        out_queue = context.Queue(maxsize=_QUEUE_SLOTS_PER_WORKER * self.workers + 8)
        supervisor = WorkerSupervisor(
            workers=self.workers,
            spawn=lambda worker_id, attempt: self._spawn_worker(
                context, out_queue, worker_id, attempt, store, resumed
            ),
            retry=self.retry,
            worker_timeout=self.worker_timeout,
            on_failure=self.on_worker_failure,
            log=self.log,
        )

        done: dict[int, dict] = {}
        # Shard states by generation, until every shard's has arrived.
        cuts: dict[int, dict[int, dict]] = {}
        # Doubles as the respawn resume point and the guard against
        # replayed cuts (a respawned shard re-walks cuts the parent may
        # already have saved).
        self._saved_generation = resumed.generation if resumed is not None else 0
        # Workers ignore SIGINT themselves, so a terminal ^C reaches only
        # the parent, which shuts the pool down cleanly.
        with InterruptFlag() as interrupt:
            try:
                supervisor.start()
                while not supervisor.finished:
                    if interrupt.signum is not None:
                        raise RunInterrupted(interrupt.signum)
                    try:
                        item = out_queue.get(timeout=_POLL_TIMEOUT_S)
                    except queue_module.Empty:
                        supervisor.poll()
                        continue
                    try:
                        worker_id, attempt, kind, message = item
                    except (TypeError, ValueError):
                        self.log(f"discarding malformed result-queue item: {item!r}")
                        supervisor.poll()
                        continue
                    if not isinstance(worker_id, int) or not isinstance(attempt, int):
                        self.log(f"discarding malformed result-queue item: {item!r}")
                        supervisor.poll()
                        continue
                    if not supervisor.accept(worker_id, attempt, kind):
                        supervisor.poll()
                        continue
                    if kind is MessageKind.BATCH or kind is MessageKind.CKPT:
                        # A cut carries its shard's last batch: the
                        # generation it completes is saved before the
                        # injector counts the frontier's move (_advance).
                        batch = message.pop("batch") if kind is MessageKind.CKPT else message
                        if row_sink is not None:
                            for index, row, is_ad, is_whitelisted in batch["rows"]:
                                row_sink.consume_row(index, row, is_ad, is_whitelisted)
                        frontiers[worker_id] = max(frontiers[worker_id], batch["frontier"])
                        for line_no, reason, raw in batch["quarantine"]:
                            if line_no > self._flushed_line:
                                if quarantine is not None:
                                    quarantine.write(line_no, reason, raw)
                                self._flushed_line = line_no
                        save: Callable[[], None] | None = None
                        if kind is MessageKind.CKPT:
                            assert store is not None and self.checkpointing is not None
                            generation = message["arrivals"] // self.checkpointing.every
                            if generation > self._saved_generation:
                                group = cuts.setdefault(generation, {})
                                group[worker_id] = message
                                if len(group) == self.workers:
                                    save = functools.partial(
                                        self._save_checkpoint, store, generation,
                                        cuts.pop(generation), quarantine,
                                    )
                        self._advance(row_sink, min(frontiers), save)
                    elif kind is MessageKind.HB:
                        pass  # pure liveness evidence; accept() already credited it
                    elif kind is MessageKind.DONE:
                        done[worker_id] = message
                        supervisor.mark_done(worker_id)
                    elif kind is MessageKind.PARSE_ERROR:
                        line_no, reason, line = message
                        raise LogParseError(line_no, reason, line)
                    elif kind is MessageKind.ERROR:
                        supervisor.fault(worker_id, f"failed:\n{message}")
                    else:
                        # GARBAGE_KIND or anything else unintelligible: this
                        # incarnation's stream can no longer be trusted.
                        supervisor.fault(worker_id, "sent garbage on the result queue")
                    supervisor.poll()
                stragglers = supervisor.join_all(_STRAGGLER_GRACE_S)
                if stragglers:
                    self.log(
                        "worker(s) "
                        + ", ".join(str(worker_id) for worker_id in stragglers)
                        + f" still running {_STRAGGLER_GRACE_S:g}s after the pool "
                        "finished; terminating them"
                    )
            finally:
                supervisor.terminate_all()
                out_queue.close()

        degraded_shards = supervisor.failed_ids
        if degraded_shards:
            for worker_id in degraded_shards:
                self.log(f"shard {worker_id} lost: {supervisor.slots[worker_id].fail_reason}")
            records = next(iter(done.values()))["arrivals"] if done else 0
        else:
            records = done[0]["arrivals"]
            # Each worker's last batch carries frontier == records; the
            # sink's finalize() checks that every gap was filled.
            if self.emit == "rows" and self._frontier != records:
                raise WorkerFailure(f"row merge stopped at {self._frontier} of {records}")

        health = PipelineHealth()
        for message in done.values():
            health.merge_state(message["health"])
            # Cache counters travel outside the (checkpointable) health
            # state; fold them into the parent's transient fields so the
            # CLI can report pool-wide cache effectiveness.
            cache_stats = message.get("cache")
            if cache_stats is not None:
                health.add_cache_stats(*cache_stats)
            url_cache_stats = message.get("url_cache")
            if url_cache_stats is not None:
                health.add_url_cache_stats(*url_cache_stats)
            if self.emit == "fold" and self.sink is not None:
                self.sink.merge_state(message["fold"])
        health.worker_restarts += supervisor.restarts
        health.heartbeat_gaps += supervisor.heartbeat_gaps
        health.shards_degraded += len(degraded_shards)

        return RunResult(
            health=health,
            records=records,
            resumed_generation=resumed.generation if resumed is not None else None,
            checkpoints_written=self._checkpoints_written,
            quarantine_count=quarantine.count if quarantine is not None else 0,
            degraded_shards=degraded_shards,
            worker_restarts=supervisor.restarts,
        )

    def _advance(
        self, sink: RunSink | None, frontier: int, save: "Callable[[], None] | None" = None
    ) -> None:
        """Move the sink's frontier up to ``frontier``, the lowest over
        the workers: below it, every row has arrived or comes late.
        ``save`` saves the generation whose cut ``frontier`` is.

        ``--crash-after N`` counts the records the frontier passes, and
        the move stops where the injector fires, as a serial run splits
        its batches: the crash lands with the frontier at N.  As a serial
        run saves a cut before its injector ticks, a generation is saved
        before the injector counts the move to its cut, so the crash
        leaves every generation at or below N saved.
        """
        checkpointing = self.checkpointing
        injector = checkpointing.crash_injector if checkpointing is not None else None
        stop = frontier
        if injector is not None:
            stop = min(stop, self._frontier + injector.remaining)
        if sink is not None:
            sink.advance(stop)
        if save is not None and stop == frontier:
            save()
        if injector is not None:
            injector.tick(stop - self._frontier)  # fires if stop < frontier
        self._frontier = stop

    def _save_checkpoint(
        self,
        store: CheckpointStore,
        generation: int,
        group: dict[int, dict],
        quarantine: QuarantineWriter | None,
    ) -> None:
        """Save generation ``generation``: the parent's state and every
        shard's, into the run's one store.

        Workers replicate the same stream, so their cut coordinates
        must agree exactly — a mismatch means the replication invariant
        broke and resuming would corrupt output.
        """
        cuts = {
            (message["reader"]["line_no"], message["classifier"]["next_index"])
            for message in group.values()
        }
        if len(cuts) != 1:
            raise WorkerFailure(
                f"shard checkpoints disagree on the generation-{generation} cut: {sorted(cuts)}"
            )
        # Shard 0's cut carries its last rejected lines, written before
        # this save, so the sidecar holds every one up to the cut.
        assert self.sink is not None
        state = {
            "records_fed": group[0]["arrivals"],
            "sink": self.sink.export_state(),
            "quarantine": quarantine_state(quarantine),
            "flushed_line": self._flushed_line,
            "shards": [group[worker_id] for worker_id in range(self.workers)],
        }
        store.save(state, generation=generation)
        self._checkpoints_written += 1
        self._saved_generation = generation
