"""Deterministic merge primitives for the parallel runner (DESIGN.md §10).

Workers finish records in shard-local order; these two small machines
put the global order back:

* :class:`OrderedRowEmitter` re-interleaves output rows by their global
  ingest index, emitting them in index order up to the lowest ingest
  frontier over the workers — the serial emission order, but for the
  late redirect sources the sink splices in;
* :class:`QuarantineMerger` re-interleaves rejected lines by line
  number, releasing an entry only once every worker has read past its
  line (so no smaller-numbered entry can still arrive).

Both also take part in the resume-side dedup: a durable parallel run
may have published rows/entries *beyond* the last checkpoint cut
(workers run ahead of the cut), and the replayed tail regenerates them
byte-identically, so dropping what was already published is lossless.
The same idempotence is what makes supervised shard *respawn*
(DESIGN.md §12) safe: a restarted worker replays its stream from the
last saved checkpoint (or from scratch) and re-sends rows and rejected
lines the parent may already hold — pending rows are overwritten by
identical payloads, a row below the emit frontier either fills a gap
in the sink or is dropped there, rejected lines dedup by line number,
so one incarnation or five produce the same fold.

The user-space hash itself lives in :func:`repro.http.log.shard_of`,
next to the record schema it keys on.
"""

from __future__ import annotations

from typing import Callable

from repro.http.log import claims_line, shard_of

__all__ = ["shard_of", "claims_line", "OrderedRowEmitter", "QuarantineMerger"]


class OrderedRowEmitter:
    """Reorders ``(global_index, payload)`` pairs into index order.

    Workers send rows as they settle, each batch with the worker's
    ingest frontier: every row of its shard below the frontier has been
    sent, or is a redirect source still waiting for its consequent
    request.  Below the lowest frontier over the workers, an index with
    no row is therefore a *gap*, whose row comes late.  ``next_emit`` is
    the next index owed to the output; a row below it is late or a
    replay, and only the sink can tell which, so :meth:`push` hands it
    back.  ``pending`` holds the rows between ``next_emit`` and the
    fastest worker's frontier: about one row batch per worker while the
    workers keep pace.
    """

    def __init__(self, workers: int, *, next_emit: int = 0) -> None:
        self.next_emit = next_emit
        self.pending: dict[int, tuple] = {}
        self.frontiers = [next_emit] * workers

    def push(self, index: int, payload: tuple) -> bool:
        """Hold a row; False for one below ``next_emit``, which the
        caller hands to the sink directly."""
        if index < self.next_emit:
            return False
        self.pending[index] = payload
        return True

    def advance(self, worker: int, frontier: int) -> None:
        """Record a worker's ingest frontier (a respawned incarnation
        replays from behind it, so it never moves back)."""
        self.frontiers[worker] = max(self.frontiers[worker], frontier)

    def drain(self) -> list[tuple[int, tuple]]:
        """Pop ``(index, payload)`` in index order below the lowest
        frontier; ``next_emit`` moves to that frontier, past the gaps."""
        stop = min(self.frontiers)
        if stop <= self.next_emit:
            return []
        pending, run = self.pending, []
        for index in range(self.next_emit, stop):
            payload = pending.pop(index, None)
            if payload is not None:
                run.append((index, payload))
        self.next_emit = stop
        return run


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
