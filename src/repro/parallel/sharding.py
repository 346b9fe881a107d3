"""Deterministic merge primitives for the parallel runner (DESIGN.md §10).

Workers finish records in shard-local order; these two small machines
put the global order back:

* :class:`OrderedRowEmitter` re-interleaves output rows by their global
  ingest index, emitting exactly the contiguous prefix ``0, 1, 2, …``
  as it becomes available — the serial emission order;
* :class:`QuarantineMerger` re-interleaves rejected lines by line
  number, releasing an entry only once every worker has read past its
  line (so no smaller-numbered entry can still arrive).

Both also implement the resume-side dedup: a durable parallel run may
have published rows/entries *beyond* the last checkpoint cut (workers
run ahead of the cut), and the replayed tail regenerates them
byte-identically; skipping everything at or below the restored
watermark is therefore lossless.  The same idempotence is what makes
supervised shard *respawn* (DESIGN.md §12) safe: a restarted worker
replays its stream from the last saved checkpoint (or from scratch) and
re-sends rows and rejected lines the parent may already hold — rows
overwrite identical pending payloads, rejected lines dedup by line
number, so one incarnation or five produce the same fold.

The user-space hash itself lives in :func:`repro.http.log.shard_of`,
next to the record schema it keys on.
"""

from __future__ import annotations

from typing import Callable

from repro.http.log import claims_line, shard_of

__all__ = ["shard_of", "claims_line", "OrderedRowEmitter", "QuarantineMerger"]


class OrderedRowEmitter:
    """Reorders ``(global_index, payload)`` pairs into index order.

    ``next_emit`` is the next index owed to the output; rows below it
    are duplicates of already-published output (resume replay) and are
    dropped.  How much ``pending`` holds depends on how the workers
    release entries.  A durable pool's workers release in index order
    behind the fix-up window, so rows run at most one window plus one
    row batch ahead of the contiguous frontier.  A plain pool's workers
    release nothing before their ``finish()``, so ``pending`` can hold
    most of the run's rows while one shard waits on another.
    """

    def __init__(self, *, next_emit: int = 0) -> None:
        self.next_emit = next_emit
        self.pending: dict[int, tuple] = {}

    def push(self, index: int, payload: tuple) -> None:
        if index < self.next_emit:
            return  # already published before the resumed checkpoint
        self.pending[index] = payload

    def drain(self) -> list[tuple]:
        """Pop the payloads of the contiguous prefix available right now."""
        pending, index = self.pending, self.next_emit
        run = []
        while index in pending:
            run.append(pending.pop(index))
            index += 1
        self.next_emit = index
        return run

    def assert_empty(self) -> None:
        if self.pending:
            missing = self.next_emit
            raise AssertionError(
                f"row merge incomplete: index {missing} never arrived "
                f"({len(self.pending)} rows stranded)"
            )


class QuarantineMerger:
    """Line-number-ordered fold of rejected lines from all shards.

    Entries are held (keyed by line number, which is globally unique —
    each raw line is rejected at most once, by exactly one shard) until
    :meth:`release` learns that every worker's reader has passed a
    given line; entries at or below that watermark can no longer be
    preceded by an unseen one and are flushed in line order.  Keying by
    line number makes :meth:`push` idempotent, so a respawned shard
    re-sending lines already held is harmless.  ``flushed_line`` is the
    resume watermark: entries at or below it are already in the sidecar
    ``.part`` file.
    """

    def __init__(self, write: Callable[[int, str, str], None], *, flushed_line: int = 0) -> None:
        self._write = write
        self._pending: dict[int, tuple[str, str]] = {}
        self.flushed_line = flushed_line

    def push(self, line_no: int, reason: str, raw: str) -> None:
        if line_no <= self.flushed_line:
            return  # already in the sidecar before the resumed checkpoint
        self._pending[line_no] = (reason, raw)

    def _flush(self, line_numbers: list[int]) -> None:
        for line_no in sorted(line_numbers):
            reason, raw = self._pending.pop(line_no)
            self._write(line_no, reason, raw)

    def release(self, through_line: int) -> None:
        """Flush entries at or below ``through_line`` (a safe watermark)."""
        self._flush([line_no for line_no in self._pending if line_no <= through_line])
        if through_line > self.flushed_line:
            self.flushed_line = through_line

    def finish(self) -> None:
        """End of stream: every entry is safe to flush."""
        if self._pending:
            self.flushed_line = max(self.flushed_line, max(self._pending))
        self._flush(list(self._pending))
