"""Parent-side orchestration of the shard worker pool (DESIGN.md §10).

The parent never parses or classifies.  It forks one worker per shard,
each inheriting the parent's pipeline, then folds their message streams
back into the single serial-order output: rows re-interleave by ingest
index, rejected lines by line number, health counters and traffic
accumulators by ``merge_state()`` in shard order.

Durable runs extend the DESIGN.md §8 model with *per-shard* checkpoint
stores.  Each worker autonomously saves generation ``n`` when its
replicated stream position crosses the ``n * checkpoint_every``-th
parsed record — a pure function of the input, so all workers cut at the
same global positions — and notifies the parent, which saves its own
generation-``n`` state (sink positions, emit frontier, sidecar
watermark) once every shard's marker for ``n`` has arrived.  Resume
restarts every worker from the newest generation valid in the parent
store *and* every shard store; output published beyond that cut is
deduplicated by the emit frontier, which is lossless because the
replayed tail regenerates it byte-identically.

Worker *supervision* (DESIGN.md §12) rides on the same message stream:
every message doubles as a heartbeat, a
:class:`~repro.parallel.supervision.WorkerSupervisor` kills and
respawns crashed or silent shards within a
:class:`~repro.robustness.retry.RetryPolicy` budget, and terminal
failures either abort the run (:class:`WorkerFailure`) or degrade it —
finish the surviving shards and report the gap honestly.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
from typing import Callable

from repro.core.pipeline import AdClassificationPipeline
from repro.http.log import SeekableLogReader
from repro.parallel.sharding import OrderedRowEmitter, QuarantineMerger
from repro.parallel.supervision import RunInterrupted, WorkerFailure, WorkerSupervisor
from repro.parallel.worker import GARBAGE_KIND, WorkerConfig, run_worker
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.crash import CHAOS_ENV
from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy, LogParseError
from repro.robustness.quarantine import QuarantineWriter
from repro.robustness.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.robustness.runstate import (
    DURABLE_FIXUP_WINDOW,
    Checkpointing,
    InterruptFlag,
    RunResult,
    RunSink,
    open_quarantine,
    publish_quarantine,
    quarantine_state,
)

__all__ = [
    "ParallelRun",
    "RunInterrupted",
    "WorkerFailure",
]

PARENT_STATE_VERSION = 1

_QUEUE_SLOTS_PER_WORKER = 4
_POLL_TIMEOUT_S = 1.0
# How long finished workers get to exit before being reported as
# stragglers (and then terminated by the cleanup path).
_STRAGGLER_GRACE_S = 10.0


class ParallelRun:
    """One classification run over a pool of shard workers.

    The pool is :func:`repro.robustness.runstate.run_serial` spread
    over processes and takes the same things: a ``sink`` — a
    :class:`ClassifySink` (or anything with ``consume_row``) for
    ``emit="rows"``, a :class:`TrafficSink` whose accumulator the shard
    folds merge into for ``emit="fold"``, or none to discard — a
    ``quarantine_path`` for the sidecar, and optionally a
    :class:`Checkpointing`, which adds the run manifest, the parent
    checkpoint store and one store per shard under its directory.

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
        emit: str = "rows",
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
        self._last_parent_generation = 0
        self.log = log

    # -- checkpoint stores --------------------------------------------------

    @property
    def parent_store(self) -> CheckpointStore:
        assert self.checkpointing is not None
        return self.checkpointing.store("parent")

    def shard_store(self, worker_id: int) -> CheckpointStore:
        assert self.checkpointing is not None
        return self.checkpointing.store(f"shard-{worker_id:02d}")

    def _stores(self) -> list[CheckpointStore]:
        return [self.parent_store] + [
            self.shard_store(worker_id) for worker_id in range(self.workers)
        ]

    # -- lifecycle --------------------------------------------------------

    def _prepare(self) -> tuple[int | None, dict | None]:
        """Manifest handling + resume rendezvous: the newest generation
        valid in the parent store *and* every shard store."""
        if self.checkpointing is None:
            return None, None
        self.checkpointing.begin(self._stores())
        if not self.checkpointing.resume:
            return None, None
        candidates = set(self.parent_store.valid_generations())
        for worker_id in range(self.workers):
            candidates &= set(self.shard_store(worker_id).valid_generations())
            if not candidates:
                break
        if not candidates:
            self.log("no valid checkpoint found; restarting from the beginning")
            return None, None
        generation = max(candidates)
        payload = self.parent_store.load(generation).payload
        if payload.get("version") != PARENT_STATE_VERSION:
            raise ValueError(f"unsupported parent state version {payload.get('version')!r}")
        self.log(
            f"resuming from checkpoint generation {generation} "
            f"({payload['records']} records already processed)"
        )
        return generation, payload

    def _spawn_worker(
        self, context, out_queue, worker_id: int, attempt: int, rendezvous: int | None
    ):
        """Start one shard incarnation (the supervisor's spawn callback).

        The first incarnation resumes from the pool-wide rendezvous
        generation; a *respawn* resumes from the parent's last *saved*
        generation.  Not the shard's own newest checkpoint: a worker
        saves to disk before its marker message clears the queue pipe,
        so its newest generation can run *ahead* of what the parent has
        folded — resuming there would silently skip the in-flight rows
        that died with the old incarnation.  The parent generation is
        at or behind its fold frontier for every shard, so the replayed
        tail regenerates everything missing (and re-sends some rows the
        parent already holds, which the idempotent merge structures
        absorb).  Non-durable respawns replay the whole shard from
        scratch for the same reason.
        """
        checkpointing = self.checkpointing
        if attempt == 0:
            resume_generation = rendezvous
        elif checkpointing is not None:
            resume_generation = self._last_parent_generation or None
        else:
            resume_generation = None
        config = WorkerConfig(
            worker_id=worker_id,
            workers=self.workers,
            input_path=self.input_path,
            on_error=self.on_error.value,
            fixup_window=DURABLE_FIXUP_WINDOW if checkpointing is not None else None,
            reorder_window=self.reorder_window,
            emit=self.emit,
            checkpoint_dir=self.shard_store(worker_id).directory if checkpointing else None,
            checkpoint_every=checkpointing.every if checkpointing else None,
            resume_generation=resume_generation,
            attempt=attempt,
            heartbeat_interval_s=self.heartbeat_interval_s,
            chaos=self.chaos,
        )
        process = context.Process(
            target=run_worker,
            args=(config, self.pipeline, out_queue),
            daemon=True,
        )
        process.start()
        return process

    # -- the fold ---------------------------------------------------------

    def run(self) -> RunResult:
        # Surface a missing input (CLI exit 2) or an old binlog version
        # (exit 1) in the parent instead of as a WorkerFailure traceback.
        SeekableLogReader(self.input_path).close()
        resume_generation, payload = self._prepare()
        sink, checkpointing = self.sink, self.checkpointing
        quarantine = open_quarantine(
            self.on_error,
            self.quarantine_path,
            checkpointing,
            payload["quarantine"] if payload else None,
        )
        try:
            if sink is not None:
                sink.begin(fresh=payload is None, state=payload["sink"] if payload else None)
            result = self._fold(resume_generation, payload, quarantine)
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
                if checkpointing is not None:
                    for store in self._stores():
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
        resume_generation: int | None,
        payload: dict | None,
        quarantine: QuarantineWriter | None,
    ) -> RunResult:
        """Supervise the pool and merge its message streams in order."""
        emitter = OrderedRowEmitter(next_emit=payload["next_emit"] if payload else 0)
        merger = QuarantineMerger(
            quarantine.write if quarantine is not None else (lambda line_no, reason, raw: None),
            flushed_line=payload["flushed_line"] if payload else 0,
        )

        context = multiprocessing.get_context("fork")
        out_queue = context.Queue(maxsize=_QUEUE_SLOTS_PER_WORKER * self.workers + 8)
        supervisor = WorkerSupervisor(
            workers=self.workers,
            spawn=lambda worker_id, attempt: self._spawn_worker(
                context, out_queue, worker_id, attempt, resume_generation
            ),
            retry=self.retry,
            worker_timeout=self.worker_timeout,
            on_failure=self.on_worker_failure,
            log=self.log,
        )

        done: dict[int, dict] = {}
        markers: dict[int, dict[int, dict]] = {}
        checkpoints_written = 0
        # Doubles as the respawn resume point and the guard against
        # replayed markers (a respawned shard re-walks cuts the parent
        # may already have made durable).
        self._last_parent_generation = resume_generation or 0
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
                    if kind == "batch":
                        for index, row, is_ad, is_whitelisted in message["rows"]:
                            emitter.push(index, (row, is_ad, is_whitelisted))
                        for row, is_ad, is_whitelisted in emitter.drain():
                            self._consume_row(row, is_ad, is_whitelisted)
                        for line_no, reason, raw in message["quarantine"]:
                            merger.push(line_no, reason, raw)
                    elif kind == "hb":
                        pass  # pure liveness evidence; accept() already credited it
                    elif kind == "ckpt":
                        generation = message["generation"]
                        if generation > self._last_parent_generation:
                            group = markers.setdefault(generation, {})
                            group[worker_id] = message
                            if len(group) == self.workers:
                                del markers[generation]
                                self._save_parent_checkpoint(
                                    generation, group, emitter, merger, quarantine
                                )
                                checkpoints_written += 1
                                self._last_parent_generation = generation
                    elif kind == "done":
                        done[worker_id] = message
                        supervisor.mark_done(worker_id)
                    elif kind == "parse_error":
                        line_no, reason, line = message
                        raise LogParseError(line_no, reason, line)
                    elif kind == "error":
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
        for row, is_ad, is_whitelisted in emitter.drain():
            self._consume_row(row, is_ad, is_whitelisted)
        if degraded_shards:
            for worker_id in degraded_shards:
                self.log(f"shard {worker_id} lost: {supervisor.slots[worker_id].fail_reason}")
            if emitter.pending:
                # Rows from surviving shards past the dead shard's emit
                # frontier can never become contiguous; the published
                # output is the exact serial prefix up to the gap.
                self.log(
                    f"discarding {len(emitter.pending)} buffered rows stranded "
                    "past the missing shard's frontier"
                )
                emitter.pending.clear()
            records = next(iter(done.values()))["arrivals"] if done else 0
        else:
            records = done[0]["arrivals"]
            if self.emit == "rows":
                if emitter.next_emit != records:
                    emitter.assert_empty()
                    raise WorkerFailure(
                        f"row merge lost rows: emitted {emitter.next_emit} of {records}"
                    )
                emitter.assert_empty()
        if not (degraded_shards and self.checkpointing is not None):
            merger.finish()

        health = PipelineHealth()
        for _worker_id, message in sorted(done.items()):
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
                self.sink.accumulator.merge_state(message["fold"])
        health.worker_restarts += supervisor.restarts
        health.heartbeat_gaps += supervisor.heartbeat_gaps
        health.shards_degraded += len(degraded_shards)

        return RunResult(
            health=health,
            records=records,
            resumed_generation=resume_generation,
            checkpoints_written=checkpoints_written,
            quarantine_count=quarantine.count if quarantine is not None else 0,
            degraded_shards=degraded_shards,
            worker_restarts=supervisor.restarts,
        )

    def _consume_row(self, row: str, is_ad: bool, is_whitelisted: bool) -> None:
        if self.sink is not None:
            self.sink.consume_row(row, is_ad, is_whitelisted)
        if self.checkpointing is not None and self.checkpointing.crash_injector is not None:
            self.checkpointing.crash_injector.tick(1)

    def _save_parent_checkpoint(
        self,
        generation: int,
        group: dict[int, dict],
        emitter: OrderedRowEmitter,
        merger: QuarantineMerger,
        quarantine: QuarantineWriter | None,
    ) -> None:
        """Persist parent state once every shard's generation is durable.

        Workers replicate the same stream, so their cut coordinates
        must agree exactly — a mismatch means the replication invariant
        broke and resuming would corrupt output.
        """
        cuts = {(message["line_no"], message["next_index"]) for message in group.values()}
        if len(cuts) != 1:
            raise WorkerFailure(
                f"shard checkpoints disagree on the generation-{generation} cut: {sorted(cuts)}"
            )
        cut_line, _cut_index = cuts.pop()
        if quarantine is not None:
            # Everything at or below the cut line has arrived (workers
            # flush before their marker), so it is safe — and necessary,
            # for the recorded position to cover it — to flush now.
            merger.release(cut_line)
        assert self.sink is not None and self.checkpointing is not None
        assert self.checkpointing.every is not None
        state = {
            "version": PARENT_STATE_VERSION,
            "workers": self.workers,
            "generation": generation,
            "records": generation * self.checkpointing.every,
            "next_emit": emitter.next_emit,
            "sink": self.sink.export_state(),
            "quarantine": quarantine_state(quarantine),
            "flushed_line": merger.flushed_line,
        }
        self.parent_store.save(state, generation=generation)
        # Retention is the parent's call: shard stores never self-prune
        # (they run ahead of the parent and would delete the very
        # generations the resume rendezvous needs).  Prune them to the
        # parent's retention window, leaving newer shard generations be.
        for worker_id in range(self.workers):
            self.shard_store(worker_id).prune_through(generation)
