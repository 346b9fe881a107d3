"""Checksummed, generational checkpoints for long pipeline runs.

A checkpoint freezes everything a durable run needs to continue after a
crash: the input byte/line offset, the streaming classifier state, the
health counters and the output sink positions (DESIGN.md §8).  The
on-disk format is deliberately paranoid because checkpoints are written
*during* the failure modes they protect against:

* framed payload — engine snapshots' container (:class:`~repro.robustness.atomic.Framing`):
  a checksummed header and a JSON payload, so a torn or bit-flipped
  file is detected rather than decoded, and a hand-edited one runs no code;
* atomic replace — each generation is written via temp + fsync +
  rename, so a crash mid-write cannot damage an existing generation;
* N retained generations — :meth:`CheckpointStore.latest` falls back to
  the newest generation that validates, so even a checkpoint torn by a
  crash at the worst moment only costs one checkpoint interval of
  recomputation.

Payloads are JSON object trees: producers export primitive state (see
``StreamingClassifier.export_state``) rather than live objects, with
string dict keys; tuples come back as lists, which every
``restore_state`` accepts.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterator

from repro.robustness.atomic import Framing

__all__ = ["Checkpoint", "CheckpointError", "CheckpointStore", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 2  # 1 framed a pickle

_NAME_RE = re.compile(r"^ckpt-(\d{8})\.bin$")


class CheckpointError(Exception):
    """A checkpoint file failed validation (torn, damaged, or alien)."""


_FRAMING = Framing(b"RPROCKPT", CHECKPOINT_VERSION, "checkpoint", CheckpointError, CheckpointError)


@dataclass(slots=True)
class Checkpoint:
    """One validated checkpoint generation."""

    generation: int
    payload: dict


class CheckpointStore:
    """Reads and writes numbered checkpoint generations in a directory.

    Args:
        directory: checkpoint directory (created on first save).
        keep: retained generations; older ones are pruned after a
            successful save.  ``keep >= 2`` is what makes torn-newest
            fallback possible.  ``None`` disables save-time pruning —
            used by shard-parallel workers, whose retention is owned by
            the parent (it lags behind them and prunes via
            :meth:`prune_through` once its own generation advances).
    """

    def __init__(self, directory: str | os.PathLike, *, keep: int | None = 3):
        if keep is not None and keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = os.fspath(directory)
        self.keep = keep

    # -- paths ------------------------------------------------------------

    def path_for(self, generation: int) -> str:
        return os.path.join(self.directory, f"ckpt-{generation:08d}.bin")

    def generations(self) -> list[int]:
        """Existing generation numbers, ascending (validity not checked)."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        found = []
        for name in names:
            match = _NAME_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # -- write ------------------------------------------------------------

    def save(self, payload: dict, *, generation: int | None = None) -> Checkpoint:
        """Write the next (or given) generation atomically; prune old ones."""
        if generation is None:
            existing = self.generations()
            generation = (existing[-1] + 1) if existing else 1
        os.makedirs(self.directory, exist_ok=True)
        _FRAMING.write(self.path_for(generation), payload)
        self.prune_through(generation)
        return Checkpoint(generation=generation, payload=payload)

    def prune_through(self, generation: int) -> None:
        """Prune as if ``generation`` were the newest save: keep the
        newest ``keep`` generations at or below it, leaving anything
        newer untouched (a shard worker may already have run ahead)."""
        if self.keep is None:
            return
        generations = [g for g in self.generations() if g <= generation]
        for stale in generations[: -self.keep]:
            try:
                os.unlink(self.path_for(stale))
            except OSError:
                pass  # pruning is housekeeping, never fatal

    def clear(self) -> None:
        """Delete every generation: a finished run must not be resumed
        into its published outputs, nor a fresh one from stale state."""
        for generation in self.generations():
            os.unlink(self.path_for(generation))

    # -- read -------------------------------------------------------------

    def load(self, generation: int) -> Checkpoint:
        """Load and validate one generation; raises :class:`CheckpointError`."""
        path = self.path_for(generation)
        try:
            payload = _FRAMING.read(path)
        except FileNotFoundError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        return Checkpoint(generation=generation, payload=payload)

    def latest(self) -> Checkpoint | None:
        """Newest generation that validates; falls back past damaged ones.

        Returns ``None`` when no generation validates (fresh start).
        Damaged newer generations are left on disk for post-mortems —
        the next :meth:`save` writes a higher generation anyway.
        """
        return next(self._valid(reversed(self.generations())), None)

    def valid_generations(self) -> list[int]:
        """Generation numbers that fully validate, ascending.

        Shard-parallel resume (DESIGN.md §10) must restart every worker
        from the *same* generation, so the rendezvous point is the
        newest generation valid in the parent store and every shard
        store at once — which needs the whole valid set, not just the
        newest survivor that :meth:`latest` returns.
        """
        return [checkpoint.generation for checkpoint in self._valid(self.generations())]

    def _valid(self, generations) -> Iterator[Checkpoint]:
        """Those of ``generations`` that validate, loaded one at a time."""
        for generation in generations:
            try:
                yield self.load(generation)
            except CheckpointError:
                continue
